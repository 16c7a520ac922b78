"""Brute-force verification by exact linear algebra.

Hilbert functions come from ranks of Macaulay matrices with integer rows
(the degree-j multiples of the generators, each scaled once to coprime
integers); the complete-intersection test is the one rank h_{D+1} = 0.
Inverse-system dimensions come from catalecticant ranks under contraction of
rows x^gamma o F from `dual.action_image`, up to half the degree of F (the
catalecticants of complementary degrees are transposes).  The avoided-power
monomials span R/Ann(F) when, in each degree j, the rank of their rows is
that h_j.  Column indices come from `_columns`.  Everything is deterministic
and exact; no probabilistic rank.
"""

from __future__ import annotations

import math
from operator import add
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .algebra import Monomial, as_fraction, monomials_of_degree
from .dual import DIFFERENTIATION, Exponents, _check_convention, action_image, normalize_terms, numeric_form
from .family import BinomialFamily
from .linalg import RowSpace, rank_of, to_int_row


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


Generators = Sequence[Mapping[Monomial | Exponents, Fraction | int]]


@lru_cache(maxsize=32)
def _columns(n: int, degree: int) -> dict[Exponents, int]:
    """The column index of the degree-`degree` monomials: exponent tuple ->
    position in canonical order.  Shared by every caller: read it only."""
    return {m.exponents: j for j, m in enumerate(monomials_of_degree(n, degree))}


def macaulay_rows(n: int, generators: Generators, degree: int) -> list[dict[int, int]]:
    """Integer rows x^beta * f_k of the degree-`degree` Macaulay matrix, by
    generator and then by beta in canonical order."""
    columns = _columns(n, degree)
    rows = []
    for gen in generators:
        terms = to_int_row(normalize_terms(gen, n)[0])
        if not terms:
            continue
        shift = degree - max(map(sum, terms))
        if shift < 0:
            continue
        for beta in _columns(n, shift):
            rows.append({columns[tuple(map(add, beta, exps))]: c for exps, c in terms.items()})
    return rows


def _macaulay_space(n: int, generators: Generators, degree: int) -> RowSpace:
    """Row space of the degree-`degree` Macaulay matrix."""
    space = RowSpace()
    for row in macaulay_rows(n, generators, degree):
        space.add(row)
    return space


@lru_cache(maxsize=512)
def _ideal_space(family: BinomialFamily, degree: int) -> RowSpace:
    # Shared by every caller: read it, or mutate a copy().
    return _macaulay_space(family.n, [family.generator_values(i) for i in range(1, family.n + 1)], degree)


def _fills_degree(space: RowSpace, n: int, degree: int) -> bool:
    """Whether a degree-`degree` row space is all of R_degree: h_degree = 0."""
    return space.rank == math.comb(degree + n - 1, n - 1)


def _check_max_degree(max_degree: int) -> None:
    if max_degree < 0:
        raise ValueError("max degree must be nonnegative")


def hilbert_function(family: BinomialFamily, max_degree: int) -> HilbertFunction:
    """h_j = dim R_j - rank(Macaulay matrix) for j = 0..max_degree."""
    _check_max_degree(max_degree)
    _require_numeric(family)
    return HilbertFunction(
        tuple(
            math.comb(j + family.n - 1, family.n - 1) - _ideal_space(family, j).rank
            for j in range(max_degree + 1)
        )
    )


def ci_reference(degrees: Sequence[int], max_degree: int) -> tuple[int, ...]:
    """Coefficients of prod_i (1 + t + ... + t^(d_i - 1)) through max_degree."""
    _check_max_degree(max_degree)
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
    """Whether f_1..f_n form a regular sequence, by one rank: h_{D+1} = 0.

    Then R/I is Artinian, and n forms generating an m-primary ideal of the
    Cohen-Macaulay ring R are a regular sequence (Bruns & Herzog, 2.1), whose
    Hilbert function is ci_reference, zero past D."""
    _require_numeric(family)
    top = family.socle_degree + 1
    return _fills_degree(_ideal_space(family, top), family.n, top)


def basis_check(family: BinomialFamily) -> bool:
    """Whether the avoided-power monomials are independent in each degree and
    count exactly the Hilbert function (requires a complete intersection)."""
    _require_numeric(family)
    if not is_complete_intersection(family):
        raise NotCompleteIntersectionError(
            "basis_check requires a complete intersection at the given coefficients"
        )
    for j in range(family.socle_degree + 1):
        columns = _columns(family.n, j)
        space = _ideal_space(family, j).copy()
        h = len(columns) - space.rank
        basis = family.basis_monomials(j)
        if len(basis) != h:
            return False
        for m in basis:
            if not space.add({columns[m.exponents]: 1}):
                return False
    return True


def ideal_membership(family: BinomialFamily, m: Monomial) -> bool:
    """Whether m lies in the degree-deg(m) piece of the ideal."""
    _require_numeric(family)
    column = _columns(family.n, m.degree)[m.exponents]
    return _ideal_space(family, m.degree).contains({column: 1})


def polynomial_in_ideal(family: BinomialFamily, terms: Mapping[Monomial, Fraction]) -> bool:
    """Membership for a homogeneous polynomial given as monomial -> rational."""
    _require_numeric(family)
    coeffs = {m: as_fraction(c) for m, c in terms.items()}
    nonzero = {m: c for m, c in coeffs.items() if c}
    if not nonzero:
        return True
    degrees = {m.degree for m in nonzero}
    if len(degrees) != 1:
        raise ValueError("membership test expects a homogeneous polynomial")
    degree = degrees.pop()
    columns = _columns(family.n, degree)
    return _ideal_space(family, degree).contains(
        {columns[m.exponents]: c for m, c in nonzero.items()}
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
    `dual.numeric_form`; integer terms give integer rows."""
    gammas = _columns(n, degree) if monomials is None else [g.exponents for g in monomials]
    if degree > top:
        return [{} for _ in gammas]
    columns = _columns(n, top - degree)
    return [
        {columns[key]: c for key, c in action_image(terms, gamma, differentiate).items()}
        for gamma in gammas
    ]


def _integer_form(F) -> tuple[dict[Exponents, int], int, int]:
    """numeric_form(F) scaled to coprime integers, for rank-only callers."""
    terms, n, top = numeric_form(F)
    return to_int_row(terms), n, top


def _inverse_dims(form: tuple[dict[Exponents, int], int, int], max_degree: int) -> tuple[int, ...]:
    """h_0..h_max_degree of an integer form (terms, n, top): catalecticant
    ranks up to top/2, mirrored above, zero past top."""
    top = form[2]
    half = [rank_of(_catalecticant_rows(*form, j)) for j in range(min(top // 2, max_degree) + 1)]
    return tuple(half[min(j, top - j)] if j <= top else 0 for j in range(max_degree + 1))


def inverse_system_dims(F, max_degree: int) -> HilbertFunction:
    """h_j = rank of the contraction map from degree-j monomials into F.

    Under contraction the entry of Cat_j at (gamma, beta) is the coefficient
    of X^(gamma+beta), so Cat_{D-j} is Cat_j transposed for any form F: only
    j <= D/2 is eliminated, h_j = h_{D-j} above that, and h_j = 0 past D.
    """
    _check_max_degree(max_degree)
    return HilbertFunction(_inverse_dims(_integer_form(F), max_degree))


def m_spans_ann_quotient(family: BinomialFamily, F) -> bool:
    """Whether the avoided-power monomials span each graded piece of R/Ann(F).

    Only the variable count and degrees of the family matter here; F is any
    numeric homogeneous form in the same variables.  The rows m o F of the
    avoided-power monomials m of degree j are among the rows of Cat_j, so
    they span its row space exactly when their rank is h_j = rank Cat_j:
    one rank per degree, checked against the mirrored half-degree ranks.
    """
    form = _integer_form(F)
    n, top = form[1], form[2]
    if n != family.n:
        raise ValueError("form and family have different variable counts")
    h = _inverse_dims(form, top)
    return all(
        rank_of(_catalecticant_rows(*form, j, family.basis_monomials(j))) == h[j]
        for j in range(top + 1)
    )
