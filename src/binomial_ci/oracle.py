"""Verification by exact linear algebra, independent of the reduction graph.

Every row x^beta * f_k of a Macaulay matrix has at most two terms, so the
ideal's degree-j piece is read off the right kernel of its Macaulay matrix,
built by `macaulay_kernel` as a union-find over the columns.  The columns
are the cached packed degree-j keys of `keys.degree_keys`; each set bit of
`keys.rule`'s guard test on a column u is one row, with u as its x_k^d_k
column and u + deltas[k] as its other.  Hilbert functions count the live
components, membership of a monomial or polynomial and the avoided-power
basis test read the components, and the complete-intersection test is the
one rank h_{D+1} = 0.  `macaulay_rows` builds the same matrix as integer
rows (each generator scaled once to coprime integers) for the brute-force
`linalg.RowSpace` reference.  Inverse-system dimensions come from
catalecticant ranks under contraction of rows x^gamma o F from
`dual.action_image`, up to half the degree of F (the catalecticants of
complementary degrees are transposes), each read off `_contraction_basis`,
the one cached elimination per form and degree that `lefschetz` shares.
The avoided-power monomials span R/Ann(F) when, in each degree j, the rank
of their rows is that h_j.  Everything is deterministic and exact; no
probabilistic rank.
"""

from __future__ import annotations

from operator import add
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .algebra import Monomial, as_fraction, check_monomial_budget, exponents_of_degree, falling_product
from .dual import DIFFERENTIATION, Exponents, action_image, check_convention, normalize_terms, numeric_form
from .family import BinomialFamily
from .keys import degree_keys, rule
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


def _check_variables(family: BinomialFamily, monomials) -> None:
    for m in monomials:
        if len(m.exponents) != family.n:
            raise ValueError(f"monomial {m} does not have {family.n} variables")


Generators = Sequence[Mapping[Monomial | Exponents, Fraction | int]]


@lru_cache(maxsize=32)
def _columns(n: int, degree: int) -> dict[Exponents, int]:
    """The column index of the degree-`degree` monomials: exponent tuple ->
    position in canonical order.  Shared by every caller: read it only."""
    return {exps: j for j, exps in enumerate(exponents_of_degree(n, degree))}


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
    #columns - #live, a monomial is in the row space exactly when its
    component is dead, and a polynomial p exactly when
    sum p_u c^pot(u) = 0 over each live component.

    Built complete and path-compressed: `root[x]` is the component of column
    x and `pot[x]` its potential relative to the root.  Read only.
    """

    __slots__ = ("ratios", "width", "root", "pot", "dead", "live")

    def __init__(
        self, ratios: tuple[Fraction | None, ...], width: int, root: list[int], pot: list[int], dead: bytearray
    ):
        self.ratios = ratios  # c_k, or None where a_k or b_k is zero
        self.width = width  # base of the packed potentials, balanced digits
        self.root = root
        self.pot = pot
        self.dead = dead
        self.live = sum(1 for x, r in enumerate(root) if x == r and not dead[x])

    @property
    def rank(self) -> int:
        return len(self.root) - self.live

    def contains_column(self, x: int) -> bool:
        return bool(self.dead[self.root[x]])

    def contains(self, row: Mapping[int, Fraction]) -> bool:
        """Whether the {column: rational} row lies in the row space."""
        sums: dict[int, Fraction] = {}
        for x, value in row.items():
            r = self.root[x]
            if not self.dead[r]:
                factor = _character(self.ratios, _unpack(self.pot[x], len(self.ratios), self.width))
                sums[r] = sums.get(r, 0) + value * factor
        return not any(sums.values())


def _unpack(packed: int, n: int, width: int) -> list[int]:
    """The exponent vector of a potential packed in balanced base `width`."""
    half = width // 2
    out = []
    for _ in range(n):
        digit = (packed + half) % width - half
        out.append(digit)
        packed = (packed - digit) // width
    return out


def _character(ratios, r: Sequence[int]) -> Fraction:
    """c^r = prod c_k^r_k; every k with r_k != 0 has a nonzero ratio."""
    value = Fraction(1)
    for c, e in zip(ratios, r):
        if e:
            value *= c**e
    return value


def macaulay_kernel(
    degrees: Sequence[int],
    tails: Sequence[Exponents],
    a_values: Sequence[Fraction],
    b_values: Sequence[Fraction],
    degree: int,
) -> MacaulayKernel:
    """The MacaulayKernel of f_k = a_k x_k^d_k - b_k x^tails[k] in degree
    `degree`; a_k = 0 is allowed (the radical's probe points)."""
    n = len(degrees)
    nb, guard, bound, deltas = rule(degrees, tails, degree)
    lane = 8 * nb
    keys, index = degree_keys(n, degree, nb)
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
    ratios = tuple(Fraction(b) / a if a and b else None for a, b in zip(a_values, b_values))
    # per k, (kind, width**k): kind 0 links u and v, 1 kills u (b_k = 0), 2 kills v
    # (a_k = 0), and None leaves f_k = 0 without rows
    kinds = [(0 if a and b else 1 if a else 2 if b else None, width**k) for k, (a, b) in enumerate(zip(a_values, b_values))]
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

    for iu, u in enumerate(keys):
        rows = ((u | guard) - bound) & guard  # lane k's guard bit: the row x^(u - d_k e_k) * f_k
        while rows:
            k = (rows & -rows).bit_length() // lane - 1
            rows &= rows - 1
            kind, step = kinds[k]
            if kind is None:
                continue
            if kind == 1:
                dead[find(iu)] = 1
                continue
            iv = index[u + deltas[k]]
            if kind == 2:
                dead[find(iv)] = 1
                continue
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
                        holds = verdicts[r] = _character(ratios, _unpack(r, n, width)) == 1
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
    return MacaulayKernel(ratios, width, parent, pot, dead)


@lru_cache(maxsize=512)
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
    components, for j = 0..max_degree.  The largest degree is checked
    against the monomial budget before any is enumerated."""
    _check_max_degree(max_degree)
    check_monomial_budget(family.n, max_degree)
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
        basis = family.basis_monomials(j)
        if len(basis) != kernel.live:
            return False
        roots = {kernel.root[columns[m.exponents]] for m in basis}
        if len(roots) != len(basis) or any(kernel.dead[r] for r in roots):
            return False
    return True


def ideal_membership(family: BinomialFamily, m: Monomial) -> bool:
    """Whether m lies in the degree-deg(m) piece of the ideal."""
    _require_numeric(family)
    _check_variables(family, [m])
    return _ideal_space(family, m.degree).contains_column(_columns(family.n, m.degree)[m.exponents])


def polynomial_in_ideal(family: BinomialFamily, terms: Mapping[Monomial, Fraction]) -> bool:
    """Membership for a homogeneous polynomial given as monomial -> rational."""
    _require_numeric(family)
    _check_variables(family, terms)
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
    check_convention(convention)
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


class _Terms(dict):
    """Integer {exponents: coefficient} terms hashed by content; never mutated."""

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))


def _integer_form(F, differentiate: bool = False) -> tuple[_Terms, int, int]:
    """numeric_form(F) scaled to coprime integers, for rank-only callers.
    `differentiate` first scales F[alpha] by alpha!: Cat_j(F) under
    differentiation is Cat_j of that form under contraction with column beta
    divided by beta!, so the two share row dependencies (alpha! Fd = D! Fc)."""
    terms, n, top = numeric_form(F)
    if differentiate:
        terms = {alpha: c * falling_product(alpha, alpha) for alpha, c in terms.items()}
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
    numeric homogeneous form in the same variables.  The rows m o F of the
    avoided-power monomials m of degree j are among the rows of Cat_j, so
    they span its row space exactly when their rank is h_j = rank Cat_j:
    one rank per degree, checked against the shared `_contraction_basis`.
    """
    form = _integer_form(F)
    if form[1] != family.n:
        raise ValueError("form and family have different variable counts")
    return all(
        rank_of(_catalecticant_rows(*form, j, family.basis_monomials(j))) == _dim(form, j)
        for j in range(form[2] + 1)
    )
