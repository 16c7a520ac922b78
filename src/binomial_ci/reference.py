"""Brute-force references for the fast kernels, each built from its definition.

The fast modules read packed keys, cached pairings and union-find kernels;
the functions here compute the same quantities on exponent tuples, with no
cache and no packing:
- `action_image`, the action x^gamma o F term by term, with the falling
  factorials of differentiation;
- `catalecticant_rows`, one `action_image` per row, under either convention;
- `macaulay_rows` and `polynomial_in_ideal`, the Macaulay matrix and
  membership by exact row reduction (`linalg.RowSpace`);
- `in_tree_match`, f_i o F = 0 for F over an in-tree {alpha: r}, by its
  lead and tail images;
- `HessianMatrix`, the symbolic Hessians, ranked by `dense_rank`.

`selftest` and the tests import this module; the product paths do not.  It
reads only the form layer and arithmetic of `algebra`, the families of
`family` and the row reduction of `linalg`, so it shares no lane layout,
cache or kernel with the code it checks; a test parses its imports.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, ge, sub
from typing import Iterable, Mapping, Sequence

from .algebra import (
    DIFFERENTIATION,
    Exponents,
    Monomial,
    Terms,
    as_fraction,
    as_point,
    check_convention,
    exponents_of_degree,
    normalize_terms,
    numeric_form,
)
from .family import BinomialFamily
from .linalg import RowSpace, rank_of, to_int_row


def falling_product(alpha: Iterable[int], gamma: Iterable[int]) -> int:
    """prod_i alpha_i * (alpha_i - 1) * ... * (alpha_i - gamma_i + 1).

    The factor that differentiating X^alpha by x^gamma puts in front of
    X^(alpha - gamma).
    """
    out = 1
    for a, g in zip(alpha, gamma):
        for j in range(g):
            out *= a - j
    return out


def action_image(terms: Terms, gamma: Exponents, differentiate: bool) -> Terms:
    """x^gamma o F for F given as normalized exponent -> coefficient terms.

    Contraction sends X^alpha to X^(alpha-gamma) when gamma <= alpha and to
    0 otherwise; differentiation also multiplies by the falling factorials
    of alpha over gamma.  `dual.apply_action` computes the same action on
    packed keys.
    """
    image = {}
    support = [(i, g) for i, g in enumerate(gamma) if g]
    for alpha, c in terms.items():
        for i, g in support:
            if alpha[i] < g:
                break
        else:
            key = tuple(map(sub, alpha, gamma))
            image[key] = c * falling_product(alpha, gamma) if differentiate else c
    return image


def _index(n: int, degree: int) -> dict[Exponents, int]:
    """Exponent tuple -> column, in the canonical order of the degree."""
    return {exps: x for x, exps in enumerate(exponents_of_degree(n, degree))}


def _check_monomials(n: int, monomials: Iterable[Monomial], degree: int | None = None) -> None:
    """Each monomial has n variables and, when given, the degree `degree`."""
    for m in monomials:
        if len(m.exponents) != n:
            raise ValueError(f"monomial {m} does not have {n} variables")
        if degree is not None and m.degree != degree:
            raise ValueError(f"monomial {m} does not have degree {degree}")


def catalecticant_rows(F, degree: int, monomials: Sequence[Monomial] | None = None, convention: str = "contraction"):
    """The rows {column of beta: coefficient of X^beta in m o F} for the
    given degree-`degree` monomials m (default: all, in canonical order),
    columns in the canonical order of degree D - `degree`.  A monomial whose
    variable count or degree differs from F's and `degree` raises ValueError.
    """
    check_convention(convention)
    terms, n, top = numeric_form(F)
    if monomials is None:
        gammas = exponents_of_degree(n, degree)
    else:
        _check_monomials(n, monomials, degree)
        gammas = [m.exponents for m in monomials]
    columns = _index(n, top - degree) if degree <= top else {}
    differentiate = convention == DIFFERENTIATION
    return [{columns[key]: c for key, c in action_image(terms, gamma, differentiate).items()} for gamma in gammas]


def in_tree_match(family: BinomialFamily, tree: Mapping[Exponents, Exponents]) -> bool:
    """Whether f_i o F = 0 in Q[a, b][X] for every generator of the family,
    F = sum of a^(s-r) b^r X^alpha over tree {alpha: r} under contraction,
    on exponent tuples: it reads neither the lanes nor the counts of the
    search that built the tree.

    a_i a^(s-r) b^r = b_i a^(s-r') b^r' exactly when r' = r - e_i, so f_i o
    F = 0 exactly when the lead image {alpha - d_i e_i: r}, over alpha_i >=
    d_i, equals the tail image {alpha - tail_i: r + e_i}, over alpha >=
    tail_i: each image is injective in X.  True holds under both conventions
    and at any values; False proves nothing, as values may annihilate what
    the symbols do not.
    """
    for i, (d, tail) in enumerate(zip(family.degrees, family.tails)):
        t = tail.exponents
        unit = tuple(int(j == i) for j in range(family.n))
        lead = {alpha[:i] + (alpha[i] - d,) + alpha[i + 1 :]: r for alpha, r in tree.items() if alpha[i] >= d}
        if lead != {tuple(map(sub, alpha, t)): tuple(map(add, r, unit)) for alpha, r in tree.items() if all(map(ge, alpha, t))}:
            return False
    return True


Generators = Sequence[Mapping[Monomial | Exponents, Fraction | int]]


def macaulay_rows(n: int, generators: Generators, degree: int) -> list[dict[int, int]]:
    """Integer rows x^beta * f_k of the degree-`degree` Macaulay matrix, by
    generator and then by beta in canonical order."""
    columns = _index(n, degree)
    rows = []
    for gen in generators:
        terms = to_int_row(normalize_terms(gen, n)[0])
        if not terms:
            continue
        shift = degree - max(map(sum, terms))
        if shift < 0:
            continue
        for beta in exponents_of_degree(n, shift):
            rows.append({columns[tuple(map(add, beta, exps))]: c for exps, c in terms.items()})
    return rows


def polynomial_in_ideal(family: BinomialFamily, terms: Mapping[Monomial, Fraction]) -> bool:
    """Membership of a homogeneous polynomial, given as monomial -> rational,
    by row reduction of the Macaulay matrix of its degree."""
    if not family.is_numeric:
        raise ValueError("this oracle needs a fully numeric family")
    _check_monomials(family.n, terms)
    nonzero = {m: c for m, c in ((m, as_fraction(c)) for m, c in terms.items()) if c}
    if not nonzero:
        return True
    degrees = {m.degree for m in nonzero}
    if len(degrees) != 1:
        raise ValueError("membership test expects a homogeneous polynomial")
    degree = degrees.pop()
    space = RowSpace()
    for row in macaulay_rows(family.n, [family.generator_values(i) for i in range(1, family.n + 1)], degree):
        space.add(row)
    columns = _index(family.n, degree)
    return space.contains({columns[m.exponents]: c for m, c in nonzero.items()})


def dense_rank(matrix: Iterable[Iterable[Fraction | int]]) -> int:
    return rank_of({j: v for j, v in enumerate(row) if v} for row in matrix)


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
        values = as_point(ell, self.n)
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
