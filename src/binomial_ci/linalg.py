"""Exact linear algebra over the rationals.

Rank and membership queries run on sparse rows kept as gcd-normalized integer
dictionaries, so elimination never introduces fractions.  Determinants
eliminate sparse rows with Fraction entries, so a row's cost follows its
nonzeros rather than the matrix width.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Row = Mapping[int, Fraction | int]


def _normalize(row: dict) -> dict:
    g = 0
    for c in row.values():
        g = gcd(g, c)
    if g > 1:
        return {k: v // g for k, v in row.items()}
    return row


def to_int_row(row: Row) -> dict:
    """Scale a {key: int or Fraction} row to coprime integers, dropping
    zeros.  No Fraction is built; any other value type raises TypeError."""
    try:
        scale = lcm(*(v.denominator for v in row.values()))
    except AttributeError:
        bad = next(v for v in row.values() if not hasattr(v, "denominator"))
        raise TypeError(f"row values must be int or Fraction, not {type(bad).__name__}") from None
    return _normalize({k: v.numerator * (scale // v.denominator) for k, v in row.items() if v})


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

    def _reduced(self, row: dict[int, int]) -> dict[int, int]:
        while row:
            lead = min(row)
            piv = self._pivots.get(lead)
            if piv is None:
                return row
            a, b = piv[lead], row[lead]
            new = {}
            for k, v in row.items():
                w = a * v - b * piv.get(k, 0)
                if w:
                    new[k] = w
            for k, v in piv.items():
                if k not in row:
                    new[k] = -b * v
            row = _normalize(new)
        return row

    def add(self, row: Row) -> bool:
        """Insert a row; True when it enlarged the space."""
        reduced = self._reduced(to_int_row(row))
        if not reduced:
            return False
        self._pivots[min(reduced)] = reduced
        return True

    def contains(self, row: Row) -> bool:
        return not self._reduced(to_int_row(row))


def rank_of(rows: Iterable[Row]) -> int:
    space = RowSpace()
    for row in rows:
        space.add(row)
    return space.rank


def dense_rank(matrix: Iterable[Iterable[Fraction | int]]) -> int:
    return rank_of({j: v for j, v in enumerate(row) if v} for row in matrix)


def det_sparse(rows: Sequence[Row], size: int) -> Fraction:
    """Exact determinant of a size x size matrix given as sparse rows.

    Each {column: rational} row is reduced against the earlier pivot rows,
    always cancelling its least column first, with Fraction entries and no
    row scaling.  Sorted by pivot column the reduced rows are upper
    triangular, so the determinant is the product of the pivots times the
    sign of the permutation row -> pivot column.  A row that reduces to zero
    makes the matrix singular.
    """
    if len(rows) != size:
        raise ValueError(f"a {size} x {size} determinant needs {size} rows, not {len(rows)}")
    matrix = []
    for row in rows:
        for k in row:
            if not 0 <= k < size:
                raise ValueError(f"column {k} outside 0..{size - 1}")
        matrix.append({k: v if type(v) is Fraction else Fraction(v) for k, v in row.items() if v})
    pivots: dict[int, dict[int, Fraction]] = {}
    pivot_cols = []
    det = Fraction(1)
    for row in matrix:
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                break
            factor = row[lead] / piv[lead]
            for k, v in piv.items():
                w = row.get(k, 0) - factor * v
                if w:
                    row[k] = w
                else:
                    del row[k]
        else:  # the row reduced to zero
            return Fraction(0)
        pivots[lead] = row
        pivot_cols.append(lead)
        det *= row[lead]
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
    return -det if parity % 2 else det
