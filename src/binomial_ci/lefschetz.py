"""Hessian ranks of a dual generator and rank-based Lefschetz checks.

The k-th Hessian w.r.t. a basis g_1..g_r of A_k has entries (g_i*g_j) o F;
substituting a linear form's coefficients for the X-variables represents the
multiplication map by that form's (D-2k)-th power from A_k to A_{D-k}, so
Lefschetz properties reduce to exact ranks of substituted Hessians.

The rank callers read one form, Phi(F) = {alpha: alpha! F[alpha]} in
coprime integers (`oracle._integer_form(F, differentiate=True)`): with
m = D-2k and L = sum ell_t x_t, m! H_ij(ell) is the coefficient of
X^(g_i+g_j) in L^m o Phi(F) under contraction (Maeno & Watanabe, Illinois
J. Math. 53, 2009), which `_hessian` reads by m passes of `dual._act`.
The symbolic Hessians they are checked against, `reference.HessianMatrix`,
are built entry by entry from `reference.action_image`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import Exponents, Monomial, _Terms, as_point
from .dual import _act, _scaled
from .keys import _guard, _pack_all
from .linalg import rank_of
from .oracle import _contraction_basis, _integer_form, _packed_form, _pairing


def monomial_basis(F, k: int) -> list[Monomial]:
    """A monomial basis of the degree-k part of R/Ann(F) under differentiation,
    chosen greedily in canonical monomial order, read off the contraction
    catalecticant of the alpha!-scaled form (see `oracle._integer_form`)."""
    return [Monomial._raw(g) for g in _contraction_basis(_integer_form(F, differentiate=True), k)]


def _hessian(
    form: tuple[_Terms, int, int], k: int, basis: Sequence[Exponents], point: Sequence[int]
) -> list[dict[int, int]]:
    """m! times the k-th Hessian at the integer point, m = top - 2k, as
    sparse rows over the basis, for the integer form Phi(F) = (terms, n,
    top): the pairing of G = L^m o Phi(F), L = sum point_t x_t, on the basis:
    entry (i, j) is G[g_i + g_j]."""
    terms, n, top = form
    packed, nb = _packed_form(terms, n, top)
    guard = _guard(n, nb)
    line = [(tuple(int(s == t) for s in range(n)), ((), v)) for t, v in enumerate(point) if v]
    for _ in range(top - 2 * k):
        packed = _act(line, [(p | guard, c) for p, c in packed.items() if c], n, nb, guard)
    keys = _pack_all(basis, n, nb)
    return _pairing(packed, keys, keys)


def lefschetz_rank(F, k: int, ell: Sequence) -> int:
    """Exact rank of the k-th Hessian at ell, over the monomial basis."""
    form = _integer_form(F, differentiate=True)
    _, n, top = form
    values = as_point(ell, n)
    if top - 2 * k < 0:
        raise ValueError("socle degree is too small for this Hessian order")
    # H(c*ell) = c^(D-2k) * H(ell): clearing denominators keeps the rank.
    point, _ = _scaled(values)
    return rank_of(_hessian(form, k, _contraction_basis(form, k), point))


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
    form = _integer_form(F, differentiate=True)
    _, n, top = form
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
            rank = rank_of(_hessian(form, k, gammas, point))
            if rank > best_rank:
                best_rank, best_ell = rank, tuple(map(Fraction, point))
            if rank == target:
                certified = True
                break
        status = "holds" if certified else "probably fails"
        verdicts.append(LefschetzVerdict(k, target, target, best_rank, certified, status, best_ell))
    return verdicts
