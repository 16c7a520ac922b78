"""Hessian matrices of a dual generator and rank-based Lefschetz checks.

The k-th Hessian w.r.t. a basis g_1..g_r of A_k has entries (g_i*g_j) o F;
substituting a linear form's coefficients for the X-variables represents the
multiplication map by that form's (D-2k)-th power from A_k to A_{D-k}, so
Lefschetz properties reduce to exact ranks of substituted Hessians.  Hessian
entries and catalecticant rows both come from `dual.action_image`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import Monomial, monomials_of_degree
from .dual import Exponents, action_image, numeric_form
from .linalg import RowSpace, dense_rank, rank_of
from .oracle import _catalecticant_rows, _integer_form


def monomial_basis(F, k: int) -> list[Monomial]:
    """A monomial basis of the degree-k part of R/Ann(F) under differentiation,
    chosen greedily in canonical monomial order via catalecticant ranks."""
    return _monomial_basis(*_integer_form(F), k)


def _monomial_basis(terms: dict[Exponents, int], n: int, top: int, k: int) -> list[Monomial]:
    candidates = monomials_of_degree(n, k)
    rows = _catalecticant_rows(terms, n, top, k, candidates, differentiate=True)
    space = RowSpace()
    basis = []
    for m, row in zip(candidates, rows):
        if space.add(row):
            basis.append(m)
    return basis


def graded_dimension(F, k: int) -> int:
    """dim of the degree-k part of R/Ann(F) under differentiation."""
    return rank_of(_catalecticant_rows(*_integer_form(F), k, None, differentiate=True))


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
        rows = _catalecticant_rows(terms, n, top, k, list(basis), differentiate=True)
        if rank_of(rows) < len(basis):
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
        values = [Fraction(c) for c in ell]
        if len(values) != self.n:
            raise ValueError("need one value per variable")
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


def hessian(F, k: int, basis: Sequence[Monomial]) -> HessianMatrix:
    return HessianMatrix(F, k, basis)


def lefschetz_rank(F, k: int, ell: Sequence) -> int:
    """Exact rank of the k-th Hessian at ell, over the monomial basis."""
    return HessianMatrix(F, k, monomial_basis(F, k)).rank_at(ell)


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
    terms, n, top = _integer_form(F)
    if rng is None:
        rng = random.Random(0)
    verdicts = []
    for k in range(top // 2 + 1):
        basis = _monomial_basis(terms, n, top, k)
        # R/Ann(F) is Gorenstein: Cat_{D-k} is Cat_k transposed up to
        # invertible diagonal scalings (factorials, over Q), so the target
        # A_{D-k} has the dimension of A_k and needs no elimination of its own.
        target = len(basis)
        matrix = HessianMatrix(F, k, basis)
        best_rank = -1
        best_ell: tuple[Fraction, ...] = ()
        certified = False
        for _ in range(max(1, trials)):
            ell = tuple(Fraction(rng.randint(-100, 100)) for _ in range(n))
            rank = matrix.rank_at(ell)
            if rank > best_rank:
                best_rank, best_ell = rank, ell
            if rank == target:
                certified = True
                break
        status = "holds" if certified else "probably fails"
        verdicts.append(
            LefschetzVerdict(k, len(basis), target, best_rank, certified, status, best_ell)
        )
    return verdicts


def has_slp(F, trials: int = 5, rng: random.Random | None = None) -> bool:
    return all(v.maximal for v in slp_check(F, trials, rng))
