"""Brute-force verification by exact linear algebra.

Hilbert functions come from ranks of Macaulay matrices (rows: the degree-j
multiples of the generators in the monomial basis), complete-intersection
tests compare against the product series of the generator degrees, and
inverse-system dimensions come from catalecticant ranks under contraction.
A catalecticant row is an image x^gamma o F from `dual.action_image`.
Everything is deterministic and exact; no probabilistic rank anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .algebra import Monomial, monomials_of_degree
from .dual import DIFFERENTIATION, Exponents, _check_convention, action_image, numeric_form
from .family import BinomialFamily
from .linalg import RowSpace, rank_of


class NotCompleteIntersectionError(ValueError):
    """Raised when an oracle check requires a complete intersection."""


@dataclass(frozen=True)
class HilbertFunction:
    values: tuple[int, ...]

    def series_str(self) -> str:
        parts = []
        for j, h in enumerate(self.values):
            if h == 0:
                continue
            if j == 0:
                parts.append(str(h))
            elif j == 1:
                parts.append("t" if h == 1 else f"{h}t")
            else:
                parts.append(f"t^{j}" if h == 1 else f"{h}t^{j}")
        return " + ".join(parts) if parts else "0"

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other) -> bool:
        if isinstance(other, HilbertFunction):
            return self.values == other.values
        if isinstance(other, (tuple, list)):
            return self.values == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.values)


def _require_numeric(family: BinomialFamily) -> None:
    if not family.is_numeric:
        raise ValueError("this oracle needs a fully numeric family")


Generators = Sequence[Mapping[Monomial, Fraction]]


def macaulay_rows(n: int, generators: Generators, degree: int) -> list[dict[int, Fraction]]:
    """Rows of the degree-`degree` Macaulay matrix for explicit generators."""
    columns = {m: j for j, m in enumerate(monomials_of_degree(n, degree))}
    rows = []
    for gen in generators:
        if not gen:
            continue
        gen_degree = max(m.degree for m in gen)
        shift = degree - gen_degree
        if shift < 0:
            continue
        for mult in monomials_of_degree(n, shift):
            row: dict[int, Fraction] = {}
            for m, c in gen.items():
                if c:
                    row[columns[mult * m]] = c
            if row:
                rows.append(row)
    return rows


def _family_generators(family: BinomialFamily) -> list[dict[Monomial, Fraction]]:
    return [family.generator_values(i) for i in range(1, family.n + 1)]


def _macaulay_space(n: int, generators: Generators, degree: int) -> RowSpace:
    """Row space of the degree-`degree` Macaulay matrix."""
    space = RowSpace()
    for row in macaulay_rows(n, generators, degree):
        space.add(row)
    return space


@lru_cache(maxsize=512)
def _ideal_space(family: BinomialFamily, degree: int) -> RowSpace:
    # Shared by every caller: read it, or mutate a copy().
    return _macaulay_space(family.n, _family_generators(family), degree)


def hilbert_function_of_generators(n: int, generators: Generators, max_degree: int) -> HilbertFunction:
    return HilbertFunction(
        tuple(
            math.comb(j + n - 1, n - 1) - _macaulay_space(n, generators, j).rank
            for j in range(max_degree + 1)
        )
    )


def hilbert_function(family: BinomialFamily, max_degree: int) -> HilbertFunction:
    """h_j = dim R_j - rank(Macaulay matrix) for j = 0..max_degree."""
    _require_numeric(family)
    return HilbertFunction(
        tuple(
            math.comb(j + family.n - 1, family.n - 1) - _ideal_space(family, j).rank
            for j in range(max_degree + 1)
        )
    )


def ci_reference(degrees: Sequence[int], max_degree: int) -> tuple[int, ...]:
    """Coefficients of prod_i (1 + t + ... + t^(d_i - 1)) through max_degree."""
    series = [1]
    for d in degrees:
        block = [1] * d
        out = [0] * (len(series) + d - 1)
        for i, x in enumerate(series):
            for j, y in enumerate(block):
                out[i + j] += x * y
        series = out
    series = series[: max_degree + 1]
    series += [0] * (max_degree + 1 - len(series))
    return tuple(series)


def is_complete_intersection(family: BinomialFamily) -> bool:
    """Whether the Hilbert function matches the product series through D+1."""
    _require_numeric(family)
    top = family.socle_degree + 1
    return hilbert_function(family, top).values == ci_reference(family.degrees, top)


def basis_check(family: BinomialFamily) -> bool:
    """Whether the avoided-power monomials are independent in each degree and
    count exactly the Hilbert function (requires a complete intersection)."""
    _require_numeric(family)
    if not is_complete_intersection(family):
        raise NotCompleteIntersectionError(
            "basis_check requires a complete intersection at the given coefficients"
        )
    for j in range(family.socle_degree + 1):
        columns = {m: c for c, m in enumerate(monomials_of_degree(family.n, j))}
        space = _ideal_space(family, j).copy()
        h = len(columns) - space.rank
        basis = family.basis_monomials(j)
        if len(basis) != h:
            return False
        for m in basis:
            if not space.add({columns[m]: Fraction(1)}):
                return False
    return True


def ideal_membership(family: BinomialFamily, m: Monomial) -> bool:
    """Whether m lies in the degree-deg(m) piece of the ideal."""
    _require_numeric(family)
    columns = {mm: c for c, mm in enumerate(monomials_of_degree(family.n, m.degree))}
    return _ideal_space(family, m.degree).contains({columns[m]: Fraction(1)})


def polynomial_in_ideal(family: BinomialFamily, terms: Mapping[Monomial, Fraction]) -> bool:
    """Membership for a homogeneous polynomial given as monomial -> rational."""
    _require_numeric(family)
    nonzero = {m: c for m, c in terms.items() if c}
    if not nonzero:
        return True
    degrees = {m.degree for m in nonzero}
    if len(degrees) != 1:
        raise ValueError("membership test expects a homogeneous polynomial")
    degree = degrees.pop()
    columns = {mm: c for c, mm in enumerate(monomials_of_degree(family.n, degree))}
    return _ideal_space(family, degree).contains(
        {columns[m]: c for m, c in nonzero.items()}
    )


def catalecticant_rows(
    F,
    degree: int,
    monomials: Sequence[Monomial] | None = None,
    convention: str = "contraction",
):
    """Action images {m o F} for the given degree-`degree` monomials.

    Contraction by default; differentiation weights each image coefficient by
    the falling factorials of the exponents.
    """
    _check_convention(convention)
    return _catalecticant_rows(
        *numeric_form(F), degree, monomials, convention == DIFFERENTIATION
    )


def _catalecticant_rows(
    terms: Mapping[Exponents, Fraction],
    n: int,
    top: int,
    degree: int,
    monomials: Sequence[Monomial] | None = None,
    differentiate: bool = False,
):
    """catalecticant_rows for F already normalized to (terms, n, top) by
    `dual.numeric_form`."""
    if monomials is None:
        monomials = monomials_of_degree(n, degree)
    if degree > top:
        return [{} for _ in monomials]
    columns = {m.exponents: j for j, m in enumerate(monomials_of_degree(n, top - degree))}
    return [
        {columns[key]: c for key, c in action_image(terms, g.exponents, differentiate).items()}
        for g in monomials
    ]


def inverse_system_dims(F, max_degree: int) -> HilbertFunction:
    """h_j = rank of the contraction map from degree-j monomials into F."""
    form = numeric_form(F)
    return HilbertFunction(
        tuple(rank_of(_catalecticant_rows(*form, j)) for j in range(max_degree + 1))
    )


def m_spans_ann_quotient(family: BinomialFamily, F) -> bool:
    """Whether the avoided-power monomials span each graded piece of R/Ann(F).

    Only the variable count and degrees of the family matter here; F is any
    numeric homogeneous form in the same variables.  One elimination per
    degree: every other catalecticant row must lie in the avoided-power span.
    """
    terms, n, top = numeric_form(F)
    if n != family.n:
        raise ValueError("form and family have different variable counts")
    for j in range(top + 1):
        monomials = monomials_of_degree(n, j)
        space = RowSpace()
        others = []
        for m, row in zip(monomials, _catalecticant_rows(terms, n, top, j, monomials)):
            if family.in_basis(m):
                space.add(row)
            else:
                others.append(row)
        if not all(space.contains(row) for row in others):
            return False
    return True
