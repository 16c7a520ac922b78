"""Hessian matrices of a dual generator and rank-based Lefschetz checks.

The k-th Hessian w.r.t. a basis g_1..g_r of A_k has entries (g_i*g_j) o F;
substituting a linear form's coefficients for the X-variables represents the
multiplication map by that form's (D-2k)-th power from A_k to A_{D-k}, so
Lefschetz properties reduce to exact ranks of substituted Hessians.

`HessianMatrix` keeps the symbolic entries, from `dual.action_image`, as the
oracle.  The rank callers evaluate at a point from one form instead
(`_hessian_at`): with m = D-2k and L = sum ell_t x_t, the form G = L^m o F
has degree 2k, and since (sum ell_t d/dX_t)^m P = m! P(ell) for P of degree
m, m! H_ij(ell) = (g_i+g_j)! G[g_i+g_j], the factorial of an exponent vector
being the product of its entries' factorials.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from operator import add
from typing import Sequence

from .algebra import Monomial, as_fraction
from .dual import DIFFERENTIATION, Exponents, action_image, numeric_form
from .linalg import dense_rank, rank_of
from .oracle import _contraction_basis, _integer_form, catalecticant_rows


def monomial_basis(F, k: int) -> list[Monomial]:
    """A monomial basis of the degree-k part of R/Ann(F) under differentiation,
    chosen greedily in canonical monomial order, read off the contraction
    catalecticant of the alpha!-scaled form (see `oracle._integer_form`)."""
    return [Monomial._raw(g) for g in _contraction_basis(_integer_form(F, differentiate=True), k)]


class HessianMatrix:
    """Symmetric matrix of differentiation values (g_i*g_j) o F.

    Substituting a point for the X-variables gives the matrix of the
    multiplication map by the (D-2k)-th power of the corresponding linear
    form, from the degree-k to the degree-(D-k) part of R/Ann(F).
    """

    def __init__(self, F, k: int, basis: Sequence[Monomial]):
        terms, n, top = numeric_form(F)
        if top - 2 * k < 0:
            raise ValueError("socle degree is too small for this Hessian order")
        for g in basis:
            if g.degree != k:
                raise ValueError("basis elements must have the Hessian's degree")
        if rank_of(catalecticant_rows(F, k, basis, convention=DIFFERENTIATION)) < len(basis):
            raise ValueError("Hessian basis is dependent in the quotient")
        self.k = k
        self.n = n
        self.socle_degree = top
        self.basis = tuple(basis)
        size = len(basis)
        entries: list[list[dict[Exponents, Fraction]]] = [[None] * size for _ in range(size)]  # type: ignore[list-item]
        for i in range(size):
            for j in range(i, size):
                entry = action_image(terms, (basis[i] * basis[j]).exponents, True)
                entries[i][j] = entry
                entries[j][i] = entry
        self.entries = entries

    @property
    def size(self) -> int:
        return len(self.basis)

    def substitute(self, ell: Sequence) -> list[list[Fraction]]:
        """Evaluate every entry at X_i = ell_i."""
        values = _point(ell, self.n)
        out = []
        for row in self.entries:
            line = []
            for entry in row:
                total = Fraction(0)
                for exps, c in entry.items():
                    term = c
                    for v, e in zip(values, exps):
                        if e:
                            term *= v**e
                    total += term
                line.append(total)
            out.append(line)
        return out

    def rank_at(self, ell: Sequence) -> int:
        return dense_rank(self.substitute(ell))


hessian = HessianMatrix


def _point(ell: Sequence, n: int) -> list[Fraction]:
    """ell as n exact rationals; a float raises TypeError."""
    values = [as_fraction(c) for c in ell]
    if len(values) != n:
        raise ValueError("need one value per variable")
    return values


def _hessian_at(
    terms: dict[Exponents, int], top: int, k: int, basis: Sequence[Exponents], ell: Sequence[int]
) -> list[list[int]]:
    """m! times the k-th Hessian of the integer form at the integer point
    ell, m = top - 2k: G = L^m o F by m passes of sum ell_t d/dX_t, then
    entry (i, j) is (g_i+g_j)! G[g_i+g_j]."""
    active = [(t, v) for t, v in enumerate(ell) if v]
    form = terms
    for _ in range(top - 2 * k):
        image: dict[Exponents, int] = {}
        get = image.get
        for alpha, c in form.items():
            for t, v in active:
                e = alpha[t]
                if e:
                    key = (*alpha[:t], e - 1, *alpha[t + 1 :])
                    image[key] = get(key, 0) + c * v * e
        form = {key: c for key, c in image.items() if c}
    facts = [factorial(e) for e in range(2 * k + 1)]
    size = len(basis)
    matrix = [[0] * size for _ in range(size)]
    for i, gi in enumerate(basis):
        for j in range(i, size):
            gamma = tuple(map(add, gi, basis[j]))
            c = form.get(gamma)
            if c:
                for e in gamma:
                    c *= facts[e]
                matrix[i][j] = matrix[j][i] = c
    return matrix


def lefschetz_rank(F, k: int, ell: Sequence) -> int:
    """Exact rank of the k-th Hessian at ell, over the monomial basis."""
    terms, n, top = _integer_form(F)
    values = _point(ell, n)
    if top - 2 * k < 0:
        raise ValueError("socle degree is too small for this Hessian order")
    # H(c*ell) = c^(D-2k) * H(ell): clearing denominators keeps the rank.
    scale = lcm(*(v.denominator for v in values))
    point = [v.numerator * (scale // v.denominator) for v in values]
    basis = _contraction_basis(_integer_form(F, differentiate=True), k)
    return dense_rank(_hessian_at(terms, top, k, basis, point))


@dataclass(frozen=True)
class LefschetzVerdict:
    k: int
    basis_size: int
    target_size: int
    rank: int
    maximal: bool  # certified by some trial
    status: str  # "holds" | "probably fails"
    ell: tuple[Fraction, ...]

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "basis_size": self.basis_size,
            "target_size": self.target_size,
            "rank": self.rank,
            "verdict": self.status,
            "ell": [str(c) for c in self.ell],
        }


def slp_check(F, trials: int = 5, rng: random.Random | None = None) -> list[LefschetzVerdict]:
    """Maximal-rank verdicts for every Hessian order k <= D/2.

    A trial that reaches the maximal rank certifies it for that k; when all
    trials fall short the verdict is only probabilistic.  Random linear forms
    use integer entries in [-100, 100].
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    terms, n, top = _integer_form(F)
    form = _integer_form(F, differentiate=True)
    if rng is None:
        rng = random.Random(0)
    verdicts = []
    for k in range(top // 2 + 1):
        gammas = _contraction_basis(form, k)
        # R/Ann(F) is Gorenstein: Cat_{D-k} is Cat_k transposed up to
        # invertible diagonal scalings (factorials, over Q), so the target
        # A_{D-k} has the dimension of A_k and needs no elimination of its own.
        target = len(gammas)
        best_rank = -1
        best_ell: tuple[Fraction, ...] = ()
        certified = False
        for _ in range(trials):
            point = [rng.randint(-100, 100) for _ in range(n)]
            rank = dense_rank(_hessian_at(terms, top, k, gammas, point))
            if rank > best_rank:
                best_rank, best_ell = rank, tuple(map(Fraction, point))
            if rank == target:
                certified = True
                break
        status = "holds" if certified else "probably fails"
        verdicts.append(LefschetzVerdict(k, target, target, best_rank, certified, status, best_ell))
    return verdicts


def has_slp(F, trials: int = 5, rng: random.Random | None = None) -> bool:
    return all(v.maximal for v in slp_check(F, trials, rng))
