"""Verification by exact linear algebra, independent of the reduction graph.

Every row x^beta * f_k of a Macaulay matrix has at most two terms, so the
ideal's degree-j piece is read off the right kernel of its Macaulay matrix,
built by `macaulay_kernel` as a union-find over the columns.  The columns
are the cached packed degree-j keys of `keys.degree_keys`, and the rows come
generator by generator from `keys.degree_labels`, one table per degrees:
f_k's rows are the columns u whose key passes lane k's guard test under
`keys.rule`, each with u as its x_k^d_k column and u + deltas[k] as its
other, looked up by one C-level map per generator.  Hilbert functions count
the live components, monomial membership and the avoided-power basis test
read the components, and the complete-intersection test is the one rank
h_{D+1} = 0.

A form F of degree D pairs R_j with R_{D-j}: the entry of the catalecticant
Cat_j at (gamma, beta) is F[gamma + beta] under contraction.  F's terms are
packed once per call on the lanes of `keys`, the columns beta are the
packed keys `keys.degree_keys` caches, and `_pairing` reads each entry by
one int add and one dict lookup.  Inverse-system dimensions are the ranks of
these rows up to half the degree of F (the catalecticants of complementary
degrees are transposes), each read off `_contraction_basis`, the one cached
elimination per form and degree that `lefschetz` shares.  The avoided-power
monomials span R/Ann(F) when, in each degree j <= D/2, the block of the
pairing on the avoided-power exponents of degrees j and D-j has that rank
h_j.  Each caller reads F as one coprime integer form, `_integer_form`; an
evaluated dual's comes from its in-tree, once per family, without a
Fraction.  Everything is deterministic and exact; no probabilistic rank.

The brute-force references these kernels are checked against, the Macaulay
and catalecticant rows on exponent tuples and polynomial membership by row
reduction, live in `reference`, which this module does not import.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add
from typing import Mapping, Sequence

from .algebra import (
    DIFFERENTIATION,
    EvaluatedForm,
    Exponents,
    Monomial,
    _Terms,
    check_monomial_budget,
    exponent_factorial,
    exponents_of_degree,
    numeric_form,
)
from .family import BinomialFamily
from .keys import _lane_bytes, _pack_all, degree_keys, degree_labels, rule
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


# One entry per (n, degree) that `basis_check` and `ideal_membership` read:
# 0..D and the members' degrees.  A seed-1 `verify` pass in its interleaved
# schedule order reads 36 entries (10,284 hits); at 32 it missed 691 times.
# A miss enumerates the degree's exponents: up to 0.24 ms, at 792 of them
# (best of 7, Python 3.11, 2 vCPU).
@lru_cache(maxsize=64)
def _columns(n: int, degree: int) -> dict[Exponents, int]:
    """The column index of the degree-`degree` monomials: exponent tuple ->
    position in canonical order.  Shared by every caller: read it only."""
    return {exps: j for j, exps in enumerate(exponents_of_degree(n, degree))}


class MacaulayKernel:
    """Right kernel of the degree-j Macaulay matrix of a binomial system.

    Every row x^beta * f_k has at most two terms: a_k in the column
    u = beta + d_k e_k and -b_k in the column v = beta + tail_k.  A kernel
    vector y therefore satisfies a_k y_u = b_k y_v on every row, and the
    columns fall into components of a union-find over the two-term rows.
    Each column stores its potential r, an exponent vector packed into one
    int, with y_u = c^r y_root for c_k = b_k/a_k.  A component is *dead*
    (y = 0 on it) when it holds a one-term row (a_k = 0 or b_k = 0) or a
    cycle whose vector r has c^r != 1, the lattice criterion of Eisenbud &
    Sturmfels; each live component is one kernel dimension.  So the rank is
    #columns - #live, and a monomial is in the row space exactly when its
    component is dead.

    Built complete and path-compressed: `root[x]` is the component of column
    x and `pot[x]` its potential relative to the root.  Read only.
    """

    __slots__ = ("root", "pot", "dead", "live")

    def __init__(self, root: list[int], pot: list[int], dead: bytearray):
        self.root = root
        self.pot = pot
        self.dead = dead
        self.live = sum(1 for x, r in enumerate(root) if x == r and not dead[x])

    @property
    def rank(self) -> int:
        return len(self.root) - self.live

    def contains_column(self, x: int) -> bool:
        return bool(self.dead[self.root[x]])


def _unpack(packed: int, n: int, width: int) -> list[int]:
    """The exponent vector of a potential packed in balanced base `width`."""
    half = width // 2
    out = []
    for _ in range(n):
        digit = (packed + half) % width - half
        out.append(digit)
        packed = (packed - digit) // width
    return out


def _character(a_values, b_values, r: Sequence[int]) -> Fraction:
    """c^r = prod c_k^r_k for c_k = b_k/a_k; every k with r_k != 0 has a_k
    and b_k nonzero."""
    value = Fraction(1)
    for a, b, e in zip(a_values, b_values, r):
        if e:
            value *= (Fraction(b) / a) ** e
    return value


def macaulay_kernel(
    degrees: Sequence[int],
    tails: Sequence[Exponents],
    a_values: Sequence[Fraction],
    b_values: Sequence[Fraction],
    degree: int,
) -> MacaulayKernel:
    """The MacaulayKernel of f_k = a_k x_k^d_k - b_k x^tails[k] in degree
    `degree`; a_k = 0 is allowed (the radical's probe points).

    The rows come generator by generator: f_k's columns u are lane k's
    positions in `keys.degree_labels`, and their partners v = u + deltas[k]
    one C-level map of `index` each.  The order of the unions sets which
    column becomes a root and so the potentials, but not the result: the
    components are the connected components of the rows' graph, a component
    is dead when one of its columns meets a one-term row (deadness passes to
    the root of every union) or c^r != 1 on some cycle, and the cycles that
    close against the spanning forest, in any order, generate the lattice of
    its cycles, so c^r = 1 on them all exactly when it holds on every cycle.
    """
    n = len(degrees)
    nb, _, _, deltas = rule(degrees, tails, degree)
    keys, index = degree_keys(n, degree, nb)
    rows = degree_labels(tuple(degrees), degree, nb)[3]
    size = len(keys)
    # A potential, or a cycle vector less its closing edge, sums +-e_k along
    # a path of the spanning forest, at most size - 1 edges, so no digit
    # exceeds size in magnitude.  Balanced digits up to 2 * size + 1 leave a
    # margin: every packed value decodes uniquely.
    width = 2 * (2 * size + 1) + 1
    parent = list(range(size))
    pot = [0] * size
    dead = bytearray(size)
    weight = [1] * size
    verdicts: dict[int, bool] = {}

    def find(x: int) -> int:
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        acc = 0
        for y in reversed(path):
            acc += pot[y]
            pot[y] = acc
            parent[y] = x
        return x

    for k, (a, b) in enumerate(zip(a_values, b_values)):
        us = rows[k]  # the rows x^(u - d_k e_k) * f_k, by their columns u
        partners = map(index.__getitem__, map(add, map(keys.__getitem__, us), repeat(deltas[k])))
        # A one-term row kills its column's component: a_k x^u when b_k = 0,
        # -b_k x^v when a_k = 0; f_k = 0 has no rows.
        if not (a and b):
            for x in us if a else partners if b else ():
                dead[find(x)] = 1
            continue
        step = width**k
        for iu, iv in zip(us, partners):
            ru, rv = parent[iu], parent[iv]
            if parent[ru] != ru:
                ru = find(iu)
            if parent[rv] != rv:
                rv = find(iv)
            # c^pot(u) y_ru = c_k c^pot(v) y_rv, so y_ru = c^r y_rv
            r = step + pot[iv] - pot[iu]
            if ru == rv:
                if r and not dead[ru]:
                    holds = verdicts.get(r)
                    if holds is None:
                        holds = verdicts[r] = _character(a_values, b_values, _unpack(r, n, width)) == 1
                    if not holds:
                        dead[ru] = 1
            elif weight[ru] <= weight[rv]:
                parent[ru], pot[ru] = rv, r
                weight[rv] += weight[ru]
                dead[rv] |= dead[ru]
            else:
                parent[rv], pot[rv] = ru, -r
                weight[ru] += weight[rv]
                dead[ru] |= dead[rv]
    for x, p in enumerate(parent):
        if parent[p] != p:
            find(x)
    return MacaulayKernel(parent, pot, dead)


# One request reads at most D + 2 kernels (degrees 0..D+1: `basis_check`
# reads degree D+1 again after `is_complete_intersection`), and every hit
# comes from within one request, since a new family misses.  32 entries keep
# all of them on the benchmark pools without holding the kernels of earlier
# families.
@lru_cache(maxsize=32)
def _ideal_space(family: BinomialFamily, degree: int) -> MacaulayKernel:
    """The degree-`degree` piece of the ideal, as its Macaulay kernel.
    Shared by every caller: read it only."""
    return macaulay_kernel(
        family.degrees, tuple(t.exponents for t in family.tails), family.a_values, family.b_values, degree
    )


def _check_max_degree(max_degree: int) -> None:
    if max_degree < 0:
        raise ValueError("max degree must be nonnegative")


def hilbert_function(family: BinomialFamily, max_degree: int) -> HilbertFunction:
    """h_j = dim R_j - rank(Macaulay matrix), the number of live kernel
    components, for j = 0..max_degree.  The monomials of every degree up to
    max_degree, which the kernels enumerate, are checked against the monomial
    budget before any is enumerated."""
    _check_max_degree(max_degree)
    check_monomial_budget(family.n, max_degree, cumulative=True)
    _require_numeric(family)
    return HilbertFunction(tuple(_ideal_space(family, j).live for j in range(max_degree + 1)))


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
    return not _ideal_space(family, family.socle_degree + 1).live


def basis_check(family: BinomialFamily) -> bool:
    """Whether the avoided-power monomials are independent in each degree and
    count exactly the Hilbert function (requires a complete intersection)."""
    _require_numeric(family)
    if not is_complete_intersection(family):
        raise NotCompleteIntersectionError(
            "basis_check requires a complete intersection at the given coefficients"
        )
    # The quotient R_j / I_j is dual to the kernel, one coordinate per live
    # component, and a monomial's functional y -> y_m is a nonzero multiple
    # of its component's coordinate when that component is live.  So the
    # avoided-power monomials are independent modulo I_j exactly when they
    # lie in distinct live components.
    for j in range(family.socle_degree + 1):
        columns = _columns(family.n, j)
        kernel = _ideal_space(family, j)
        basis = family.basis_exponents(j)
        if len(basis) != kernel.live:
            return False
        roots = {kernel.root[columns[exps]] for exps in basis}
        if len(roots) != len(basis) or any(kernel.dead[r] for r in roots):
            return False
    return True


def ideal_membership(family: BinomialFamily, m: Monomial) -> bool:
    """Whether m lies in the degree-deg(m) piece of the ideal."""
    _require_numeric(family)
    if m.n != family.n:
        raise ValueError(f"monomial {m} does not have {family.n} variables")
    return _ideal_space(family, m.degree).contains_column(_columns(family.n, m.degree)[m.exponents])


def _packed_form(terms: Mapping[Exponents, Fraction | int], n: int, top: int) -> tuple[dict[int, Fraction | int], int]:
    """(F's terms keyed by packed exponents, nb): nb = _lane_bytes(top) has
    room for every exponent of degree top, so the key of gamma + beta is the
    int sum of their keys."""
    nb = _lane_bytes(top)
    return dict(zip(_pack_all(terms, n, nb), terms.values())), nb


def _pairing(
    packed: Mapping[int, Fraction | int], gammas: Sequence[int], betas: Sequence[int]
) -> list[dict[int, Fraction | int]]:
    """The rows {x: F[gamma + betas[x]]} over the packed keys gamma, nonzero
    entries only: one int add and one dict lookup per entry."""
    get = packed.get
    return [{x: c for x, c in enumerate(map(get, map(gamma.__add__, betas))) if c} for gamma in gammas]


def _catalecticant_rows(terms: Mapping[Exponents, Fraction | int], n: int, top: int, degree: int):
    """The contraction catalecticant of F = (terms, n, top), normalized by
    `algebra.numeric_form`: row gamma is {x: F[gamma + beta_x]}, gamma and
    beta_x in the orders of `_columns(n, degree)` and `_columns(n, top -
    degree)`; integer terms give integer rows."""
    if degree > top:
        return [{} for _ in _columns(n, degree)]
    packed, nb = _packed_form(terms, n, top)
    return _pairing(packed, degree_keys(n, degree, nb)[0], degree_keys(n, top - degree, nb)[0])


def _integer_form(F, differentiate: bool = False) -> tuple[_Terms, int, int]:
    """`numeric_form(F)` (terms, n, top) scaled to coprime integers, for
    rank-only callers.  `differentiate` reads the alpha!-scaled form
    Phi(F) = {alpha: alpha! F[alpha]} instead: differentiation by x^gamma is
    Phi^-1(x^gamma o Phi(F)) by contraction, so Cat_j(F) under
    differentiation is the contraction Cat_j(Phi(F)) with column beta divided
    by beta!, and the two share row dependencies (alpha! Fd = D! Fc).

    So an evaluated dual (`algebra.EvaluatedForm`) read with the flag of its
    own convention, Fc or Phi(Fd), is one form, which its dual builds once
    per family straight from its in-tree and keeps beside the search's verdict
    (`dual.DualGenerator._integer_form`): its Fractions are never built.
    The other two convention/flag pairs, and every other mapping, are
    normalized here."""
    if isinstance(F, EvaluatedForm) and differentiate == (F.dual.convention == DIFFERENTIATION):
        return F.dual._integer_form()
    terms, n, top = numeric_form(F)
    if differentiate:
        terms = {alpha: c * exponent_factorial(alpha) for alpha, c in terms.items()}
    return _Terms(to_int_row(terms)), n, top


@lru_cache(maxsize=64)
def _contraction_basis(form: tuple[_Terms, int, int], degree: int) -> tuple[Exponents, ...]:
    """The exponents gamma of degree `degree`, in canonical order, whose
    contraction rows x^gamma o F are independent of the rows before them: a
    basis of length h_degree.  Shared by every caller: read it only."""
    space = RowSpace()
    rows = _catalecticant_rows(*form, degree)
    return tuple(gamma for gamma, row in zip(_columns(form[1], degree), rows) if space.add(row))


def _dim(form: tuple[_Terms, int, int], j: int) -> int:
    """h_j of an integer form (terms, n, top): the rank of Cat_min(j, top-j)."""
    return len(_contraction_basis(form, min(j, form[2] - j))) if j <= form[2] else 0


def inverse_system_dims(F, max_degree: int) -> HilbertFunction:
    """h_j = rank of the contraction map from degree-j monomials into F.

    Under contraction the entry of Cat_j at (gamma, beta) is the coefficient
    of X^(gamma+beta), so Cat_{D-j} is Cat_j transposed for any form F: only
    j <= D/2 is eliminated, h_j = h_{D-j} above that, and h_j = 0 past D.
    """
    _check_max_degree(max_degree)
    form = _integer_form(F)
    return HilbertFunction(tuple(_dim(form, j) for j in range(max_degree + 1)))


def m_spans_ann_quotient(family: BinomialFamily, F) -> bool:
    """Whether the avoided-power monomials span each graded piece of R/Ann(F).

    Only the variable count and degrees of the family matter here; F is any
    nonzero numeric homogeneous form in the same variables, of any degree D.
    With B_j the avoided-power exponents of degree j, the test takes, for
    each j <= D/2 only, the block P_j = [F(gamma+beta)] over gamma in B_j and
    beta in B_{D-j}, and compares its rank with h_j from the shared
    `_contraction_basis`.

    This is exact for every such F, with no complete-intersection
    assumption: rank P_j = h_j exactly when B_j spans A_j and B_{D-j} spans
    A_{D-j}, where A = R/Ann(F).  A is Gorenstein with socle degree D, and
    (g, h) -> (gh) o F is a perfect pairing A_j x A_{D-j} -> Q (Iarrobino &
    Kanev, LNM 1721, 1999), so h_j = h_{D-j}.  P_j is that pairing on the
    classes of B_j and B_{D-j}: its rows factor through A_j and its columns
    through A_{D-j}, so rank P_j is at most the dimension of either span,
    and each is at most h_j.  If both sets span, take a basis from each; the
    Gram block of a perfect pairing on two bases is nonsingular, so rank P_j
    = h_j.  The degrees j and D-j together cover 0..D.
    """
    form = _integer_form(F)
    _, n, top = form
    if n != family.n:
        raise ValueError("form and family have different variable counts")
    packed, nb = _packed_form(*form)
    for j in range(top // 2 + 1):
        rows = _pack_all(family.basis_exponents(j), n, nb)
        columns = _pack_all(family.basis_exponents(top - j), n, nb)
        if rank_of(_pairing(packed, rows, columns)) != _dim(form, j):
            return False
    return True
