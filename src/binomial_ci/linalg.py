"""Exact linear algebra over the rationals.

Rank and membership queries run on sparse rows kept as gcd-normalized integer
dictionaries, so elimination never introduces fractions.  Determinants use
Bareiss' fraction-free scheme on a dense integer copy.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

Row = Mapping[int, Fraction | int]


def _normalize(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for c in row.values():
        g = gcd(g, c)
    if g > 1:
        return {k: v // g for k, v in row.items()}
    return row


def to_int_row(row: Row) -> dict[int, int]:
    """Scale a {column: rational} row to coprime integers."""
    lcm = 1
    for v in row.values():
        den = Fraction(v).denominator
        lcm = lcm * den // gcd(lcm, den)
    out = {}
    for k, v in row.items():
        scaled = Fraction(v) * lcm
        if scaled:
            out[int(k)] = scaled.numerator
    return _normalize(out)


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

    def copy(self) -> RowSpace:
        """An independent space with the same rows; adding to either leaves
        the other unchanged."""
        other = RowSpace()
        # Pivot rows are never mutated in place, so they can be shared.
        other._pivots = dict(self._pivots)
        return other


def rank_of(rows: Iterable[Row]) -> int:
    space = RowSpace()
    for row in rows:
        space.add(row)
    return space.rank


def dense_rank(matrix: Iterable[Iterable[Fraction | int]]) -> int:
    return rank_of({j: v for j, v in enumerate(row) if v} for row in matrix)


def det_rational(matrix: list[list[Fraction | int]]) -> Fraction:
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    scale = 1
    m: list[list[int]] = []
    for row in matrix:
        if len(row) != n:
            raise ValueError("determinant of a non-square matrix")
        lcm = 1
        for v in row:
            den = Fraction(v).denominator
            lcm = lcm * den // gcd(lcm, den)
        scale *= lcm
        m.append([(Fraction(v) * lcm).numerator for v in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = m[k][k]
        for i in range(k + 1, n):
            head = m[i][k]
            ri, rk = m[i], m[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pivot - head * rk[j]) // prev
            ri[k] = 0
        prev = pivot
    return Fraction(sign * m[n - 1][n - 1], scale)
