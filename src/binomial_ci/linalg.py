"""Exact linear algebra over the rationals.

One fraction-free elimination, `RowSpace._reduced`, serves ranks, membership
and determinants.  It works on sparse integer dictionaries (rational rows
are scaled first), divided by their gcd after each step, cancelling the
least column first, so it never builds a fraction and a row's cost follows
its nonzeros rather than the matrix width.

Determinants go through one integer core, `_det_int`, which takes integer
rows and returns numerator and denominator as ints.  It has two callers,
each of which scales its own rows and folds those scales back in:
`det_sparse` scales any int or Fraction row by `to_int_row`, and
`resultant.det_numeric_oracle` scales the rows of each label once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Row = Mapping[int, Fraction | int]


def _normalize(row: dict) -> tuple[dict, int]:
    """The row divided by the gcd of its entries, and that gcd (1 for an
    empty row)."""
    g = 0
    for c in row.values():
        g = gcd(g, c)
    if g > 1:
        return {k: v // g for k, v in row.items()}, g
    return row, 1


def to_int_row(row: Row) -> dict:
    """Scale a {key: int or Fraction} row to coprime integers, dropping
    zeros.  No Fraction is built; any other value type raises TypeError."""
    try:
        scale = lcm(*(v.denominator for v in row.values()))
    except AttributeError:
        bad = next(v for v in row.values() if not hasattr(v, "denominator"))
        raise TypeError(f"row values must be int or Fraction, not {type(bad).__name__}") from None
    return _normalize({k: v.numerator * (scale // v.denominator) for k, v in row.items() if v})[0]


def _int_row(row: Row) -> dict:
    """A copy of a row of nonzero ints, else `to_int_row(row)`: only rational
    rows are scaled (and a float raises there)."""
    values = row.values()
    if {*map(type, values)} <= {int} and 0 not in values:
        return dict(row)
    return to_int_row(row)


class RowSpace:
    """Incrementally built echelon basis of a row space over Q.

    Pivot rows are stored by their least column; reduction always cancels the
    least column first, which is enough to decide membership exactly.
    """

    def __init__(self) -> None:
        self._pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _reduced(self, row: dict[int, int]) -> tuple[dict[int, int], int | None, int, int]:
        """Reduce an integer row against the pivots: (reduced, lead, a_prod,
        g_prod) with reduced = (a_prod / g_prod) * (row - a combination of
        pivots) and lead its least column, None when reduced is empty.

        Each step multiplies the row by the lead of the pivot it cancels
        against (a_prod collects those leads) and divides out the gcd of the
        result (g_prod collects those).  The row comes back as soon as its
        least column has no pivot, or empty when it lies in the space.
        """
        a_prod = g_prod = 1
        while row:
            lead = min(row)
            piv = self._pivots.get(lead)
            if piv is None:
                return row, lead, a_prod, g_prod
            a, b = piv[lead], row[lead]
            new = {}
            for k, v in row.items():
                w = a * v - b * piv.get(k, 0)
                if w:
                    new[k] = w
            for k, v in piv.items():
                if k not in row:
                    new[k] = -b * v
            row, g = _normalize(new)
            a_prod *= a
            g_prod *= g
        return row, None, a_prod, g_prod

    def add(self, row: Row) -> bool:
        """Insert a row; True when it enlarged the space."""
        reduced, lead = self._reduced(_int_row(row))[:2]
        if not reduced:
            return False
        self._pivots[lead] = reduced
        return True

    def contains(self, row: Row) -> bool:
        return not self._reduced(_int_row(row))[0]


def rank_of(rows: Iterable[Row]) -> int:
    space = RowSpace()
    for row in rows:
        space.add(row)
    return space.rank


def _det_int(rows: Iterable[dict[int, int]], size: int) -> tuple[int, int]:
    """The determinant of size integer rows as (num, den) ints, num / den.

    Each row is reduced against the earlier pivots by RowSpace._reduced,
    which multiplies it by a_prod / g_prod on the way.  Sorted by pivot
    column the reduced rows are upper triangular, so the determinant is the
    product of the pivots over the product of those factors, times the sign
    of the permutation row -> pivot column.  A row that reduces to zero
    makes the matrix singular: (0, 1).  Rows map columns in 0..size-1 to
    nonzero ints.
    """
    space = RowSpace()
    pivot_cols = []
    num = den = 1
    for row in rows:
        reduced, lead, a_prod, g_prod = space._reduced(row)
        if not reduced:
            return 0, 1
        space._pivots[lead] = reduced
        pivot_cols.append(lead)
        num *= reduced[lead] * g_prod
        den *= a_prod
    # A permutation is odd when size minus its cycle count is odd.
    seen = [False] * size
    parity = size
    for start in range(size):
        if not seen[start]:
            parity -= 1
            k = start
            while not seen[k]:
                seen[k] = True
                k = pivot_cols[k]
    return (-num if parity % 2 else num), den


def det_sparse(rows: Sequence[Row], size: int) -> Fraction:
    """Exact determinant of a size x size matrix given as sparse rows.

    Each {column: int or Fraction} row is scaled to a coprime integer row
    (to_int_row) for the integer core `_det_int`, which
    `resultant.det_numeric_oracle` also calls with rows it scales once per
    label.  The determinant is the core's num / den divided by every row's
    scale; numerator and denominator stay ints until the one Fraction at the
    end.  Explicit zeros are ignored, and a float entry raises TypeError.
    """
    if len(rows) != size:
        raise ValueError(f"a {size} x {size} determinant needs {size} rows, not {len(rows)}")
    for row in rows:
        for k in row:
            if not 0 <= k < size:
                raise ValueError(f"column {k} outside 0..{size - 1}")
    scaled_rows = [to_int_row(row) for row in rows]
    num, den = _det_int(scaled_rows, size)
    if not num:
        return Fraction(0)
    for row, scaled in zip(rows, scaled_rows):
        # to_int_row scaled the row by scaled[k] / row[k], the same at every k
        k = next(iter(scaled))
        num *= row[k].numerator
        den *= scaled[k] * row[k].denominator
    return Fraction(num, den)
