"""Macaulay dual generators built from the reduction graph at socle degree.

The coefficient of X^alpha is a^(s-r) * b^r (times a multinomial factor under
differentiation) when the vertex x^alpha has a directed path with label counts
r to the target x1^(d1-1)...xn^(dn-1), and zero otherwise; s collects the
per-label maxima over all such paths.

The family's values enter F once, in `DualGenerator._substituted`, from one
table of powers per symbol (no exponent exceeds s_i); sparse_terms, evaluate,
str, dual_to_json and verify_annihilation all read its flat terms.

The action x^gamma o F lives here, on forms normalized by `normalize_terms`,
in two forms that the tests pin together.  `action_image` maps tuple-keyed
terms; the catalecticants of `oracle` and the Hessians of `lefschetz` call
it.  apply_action and verify_annihilation go through the packed kernel
`_act`, after Monagan and Pearce's packed monomials: every coefficient is
expanded once into (symbol exponents, rational) terms, each term of F is
packed once into one int that holds its X and symbol exponents, and each
product is one int add and one rational multiply into a single dict.  No
intermediate polynomial is built; only the nonzero entries are unpacked and
grouped back into SparsePoly (or, for numeric inputs, Fraction) coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import perm
from operator import sub
from typing import Mapping

from .algebra import (
    CoeffMonomial,
    Monomial,
    SparsePoly,
    as_fraction,
    falling_product,
    group_flat_terms,
    multinomial,
)
from .family import BinomialFamily
from .graph import build_graph

CONTRACTION = "contraction"
DIFFERENTIATION = "differentiation"
_CONVENTIONS = (CONTRACTION, DIFFERENTIATION)

Exponents = tuple[int, ...]


def _check_convention(convention: str) -> None:
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention must be one of {_CONVENTIONS}")


def _paths_to_target(family: BinomialFamily):
    """Reverse traversal of the in-tree of the socle-degree target sink.

    Returns (graph, {vertex index: label-count vector}, s) where s holds the
    per-label maxima.  Paths in a functional graph are unique; the traversal
    checks that each vertex is reached once.
    """
    n = family.n
    degree = family.socle_degree
    graph = build_graph(family, degree)
    target_idx = graph.index[tuple(d - 1 for d in family.degrees)]
    if graph.succ[target_idx] is not None:
        raise AssertionError("the socle-degree target must be a sink")
    preds: dict[int, list[int]] = {}
    for v, s in enumerate(graph.succ):
        if s is not None:
            preds.setdefault(s, []).append(v)
    reach: dict[int, tuple[int, ...]] = {target_idx: (0,) * n}
    queue = [target_idx]
    while queue:
        v = queue.pop()
        rv = reach[v]
        for u in preds.get(v, ()):
            if u in reach:
                raise AssertionError("duplicate path to the dual target")
            label = graph.labels[u]
            reach[u] = tuple(
                c + 1 if j == label - 1 else c for j, c in enumerate(rv)
            )
            queue.append(u)
    s = tuple(max(r[j] for r in reach.values()) for j in range(n))
    return graph, reach, s


def s_vector(family: BinomialFamily) -> tuple[int, ...]:
    """Per-label maxima of edge counts over all paths into the target sink."""
    _, _, s = _paths_to_target(family)
    return s


@dataclass(frozen=True)
class DualGenerator:
    """A dual generator with coefficient monomials per exponent vector."""

    family: BinomialFamily
    convention: str
    socle_degree: int
    s: tuple[int, ...]
    coeffs: Mapping[Exponents, CoeffMonomial]

    @property
    def n(self) -> int:
        return self.family.n

    def _substituted(self) -> dict[Exponents, tuple[Exponents, int | Fraction]]:
        """{alpha: (2n symbol exponents, rational)} for the nonzero coefficients:
        fixed values substituted (their exponents drop to 0) in integer numerator
        and denominator products, integral values as int."""
        fam = self.family
        fixed = [
            (i, [(v.numerator**e, v.denominator**e) for e in range(top + 1)])
            for i, (v, top) in enumerate(zip(fam.a_values + fam.b_values, self.s + self.s))
            if v is not None
        ]
        out = {}
        for alpha, cm in self.coeffs.items():
            num, den = cm.scalar.numerator, cm.scalar.denominator
            sym = [*cm.a_exp, *cm.b_exp]
            for i, powers in fixed:
                if sym[i]:
                    pn, pd = powers[sym[i]]
                    num, den = num * pn, den * pd
                    sym[i] = 0
            if num:
                if den != 1:
                    q = Fraction(num, den)
                    num = q.numerator if q.denominator == 1 else q
                out[alpha] = (tuple(sym), num)
        return out

    def sparse_terms(self) -> dict[Exponents, SparsePoly]:
        """Coefficients as polynomials, with the family's values substituted."""
        n = self.n
        return {alpha: SparsePoly._raw(n, {sym: Fraction(q)}) for alpha, (sym, q) in self._substituted().items()}

    def evaluate(self) -> dict[Exponents, Fraction]:
        """Numeric coefficients at the family's values."""
        if not self.family.is_numeric:
            raise ValueError("evaluation needs a value for every symbol")
        return {alpha: Fraction(q) for alpha, (_, q) in self._substituted().items()}

    def __str__(self) -> str:
        terms = self.sparse_terms()
        return " + ".join(f"{terms[key]}*{Monomial(key).render('X')}" for key in sorted(terms, reverse=True)) or "0"


def dual_generator(family: BinomialFamily, convention: str = CONTRACTION) -> DualGenerator:
    """Construct the dual generator of the family from its reduction graph."""
    _check_convention(convention)
    graph, reach, s = _paths_to_target(family)
    degree = family.socle_degree
    one = Fraction(1)
    coeffs: dict[Exponents, CoeffMonomial] = {}
    for v, r in reach.items():
        alpha = graph.vertices[v].exponents
        scalar = Fraction(multinomial(degree, alpha)) if convention == DIFFERENTIATION else one
        a_exp = tuple(x - y for x, y in zip(s, r))
        coeffs[alpha] = CoeffMonomial._raw(scalar, a_exp, r)
    return DualGenerator(family, convention, degree, s, coeffs)


Terms = dict[Exponents, Fraction | SparsePoly]


def normalize_terms(terms, n: int | None = None) -> tuple[Terms, int | None]:
    """(terms, width): {monomial or exponent tuple: coefficient} with
    nonnegative exponent keys all of width n (default: the first key's), zero
    terms dropped, and each coefficient a SparsePoly or, through as_fraction,
    a Fraction."""
    out: Terms = {}
    for key, coeff in terms.items():
        if isinstance(key, Monomial):
            exps = key.exponents
        else:
            exps = tuple(key)
            if not all(type(e) is int and e >= 0 for e in exps):
                raise ValueError(f"exponent vector {exps} must hold nonnegative integers")
        if n is None:
            n = len(exps)
        elif len(exps) != n:
            raise ValueError(f"exponent vector {exps} does not have {n} entries")
        if isinstance(coeff, CoeffMonomial):
            coeff = coeff.to_sparse()
        if isinstance(coeff, SparsePoly):
            if coeff.is_zero():
                continue
        else:
            coeff = as_fraction(coeff)
            if not coeff:
                continue
        out[exps] = coeff
    return out, n


def numeric_form(F) -> tuple[dict[Exponents, Fraction], int, int]:
    """(terms, n, degree) of a nonzero homogeneous form with rational
    coefficients."""
    terms, n = normalize_terms(F)
    if any(isinstance(c, SparsePoly) for c in terms.values()):
        raise TypeError("the form needs rational coefficients")
    if not terms:
        raise ValueError("the zero form has no inverse system")
    degrees = {sum(k) for k in terms}
    if len(degrees) != 1:
        raise ValueError("the form must be homogeneous")
    return terms, n, degrees.pop()


def action_image(terms: Terms, gamma: Exponents, differentiate: bool) -> Terms:
    """x^gamma o F for F given as normalized exponent -> coefficient terms.

    Contraction sends X^alpha to X^(alpha-gamma) when gamma <= alpha and to
    0 otherwise; differentiation also multiplies by the falling factorials
    of alpha over gamma.  `_act` computes the same action under packed keys.
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


Flat = dict[Exponents, list[tuple[Exponents, int | Fraction]]]


def _flat(terms: Terms, m: int) -> Flat:
    """Each coefficient as its (symbol exponents, rational) terms in m symbol
    pairs, integral values as int; a Fraction is one term on the zero key."""
    zero = (0,) * (2 * m)
    out: Flat = {}
    for key, c in terms.items():
        if isinstance(c, SparsePoly):
            if c.n != m:
                raise ValueError("polynomials live in different symbol counts")
            items = c.terms.items()
        else:
            items = ((zero, c),)
        out[key] = [(sym, q.numerator if q.denominator == 1 else q) for sym, q in items]
    return out


Packed = list[tuple[Exponents, list[tuple[int, int | Fraction]]]]


def _lane_top(*flats: Flat) -> int:
    """The largest exponent, X or symbol, in any of the flat forms."""
    exps = chain.from_iterable(chain(flat, (sym for terms in flat.values() for sym, _ in terms)) for flat in flats)
    return max(chain.from_iterable(exps), default=0)


def _lane_bytes(top: int) -> int:
    """Bytes per packed lane: (2*top).bit_length() bits, rounded up to whole
    bytes, so the sum of two exponents up to top never leaves its lane."""
    return max(1, ((2 * top).bit_length() + 7) // 8)


def _pack(exps: Exponents, nb: int) -> int:
    """exps[j] in bytes [j*nb, (j+1)*nb) of one little-endian int."""
    if nb == 1:
        return int.from_bytes(bytes(exps), "little")
    return int.from_bytes(b"".join(e.to_bytes(nb, "little") for e in exps), "little")


def _packed(flat: Flat, top: int) -> Packed:
    """[(alpha, [(pack(alpha + sym), rational)])] in the order of flat."""
    nb = _lane_bytes(top)
    return [(alpha, [(_pack(alpha + sym, nb), c) for sym, c in terms]) for alpha, terms in flat.items()]


def _act(f_flat: Flat, big: Packed, top: int, differentiate: bool) -> dict[int, int | Fraction]:
    """sum over gamma of c_gamma * (x^gamma o F) under packed keys.

    The one exact kernel of apply_action and verify_annihilation, after
    Monagan and Pearce's packed monomials: each key holds the X exponents
    and then the symbol exponents in lanes of _lane_bytes(top) bytes, where
    top bounds every exponent of both sides, so no lane of a product
    overflows.  A term of F whose alpha passes the test alpha >= gamma on
    gamma's support shifts by pack(0, s1) - pack(gamma, 0) with one int add
    and no borrow.  Under differentiation the falling factorial
    alpha_i!/(alpha_i - g)! comes from one table per exponent g of f.
    """
    nb = _lane_bytes(top)
    tables = {g: [perm(a, g) for a in range(top + 1)] for g in set(chain.from_iterable(f_flat))} if differentiate else {}
    acc: dict[int, int | Fraction] = {}
    get = acc.get
    for gamma, f_syms in f_flat.items():
        support = [(i, g) for i, g in enumerate(gamma) if g]
        falls = [(i, tables[g]) for i, g in support] if differentiate else ()
        shift = 8 * nb * len(gamma)
        deltas = [((_pack(s1, nb) << shift) - _pack(gamma, nb), c1) for s1, c1 in f_syms]
        for alpha, big_terms in big:
            for i, g in support:
                if alpha[i] < g:
                    break
            else:
                scale = 1
                for i, table in falls:
                    scale *= table[alpha[i]]
                for d, c1 in deltas:
                    c1 *= scale
                    for p, c2 in big_terms:
                        k = p + d
                        acc[k] = get(k, 0) + c1 * c2
    return acc


def _unpacked(acc: dict[int, int | Fraction], n: int, m: int, top: int) -> dict:
    """{(X exponents, symbol exponents): rational} for the nonzero entries
    of a packed accumulator of _act."""
    nb = _lane_bytes(top)
    size = (n + 2 * m) * nb
    out = {}
    for p, c in acc.items():
        if c:
            raw = p.to_bytes(size, "little")
            lanes = tuple(raw) if nb == 1 else tuple(int.from_bytes(raw[j : j + nb], "little") for j in range(0, size, nb))
            out[lanes[:n], lanes[n:]] = c
    return out


def apply_action(f_terms, big_terms, convention: str = CONTRACTION):
    """Apply a polynomial in x to a polynomial in X by the chosen action.

    Contraction sends x^g o X^a to X^(a-g) when a >= g and to 0 otherwise;
    differentiation additionally multiplies by the falling factorials.  Both
    inputs map monomials (or exponent tuples) to coefficients, which may be
    rationals, coefficient monomials, or sparse polynomials; when either side
    is symbolic, every coefficient of the result is a SparsePoly.
    """
    _check_convention(convention)
    f_norm, n = normalize_terms(f_terms)
    big_norm, n = normalize_terms(big_terms, n)
    m = next((c.n for c in (*f_norm.values(), *big_norm.values()) if isinstance(c, SparsePoly)), None)
    f_flat, big_flat = _flat(f_norm, m or 0), _flat(big_norm, m or 0)
    top = _lane_top(f_flat, big_flat)
    acc = _act(f_flat, _packed(big_flat, top), top, convention == DIFFERENTIATION)
    terms = _unpacked(acc, n or 0, m or 0, top)
    if m is None:
        return {key: Fraction(c) for (key, _), c in terms.items()}
    return group_flat_terms(m, terms)


@dataclass(frozen=True)
class AnnihilationResult:
    ok: bool
    residuals: dict[int, dict]

    def __bool__(self) -> bool:
        return self.ok


def verify_annihilation(family: BinomialFamily, F, convention: str = CONTRACTION) -> AnnihilationResult:
    """Check f_i o F = 0 for every generator, exactly.

    F may be a DualGenerator or a mapping from monomials/exponent tuples to
    coefficients.  Symbol values fixed by the family are substituted into the
    generator coefficients; everything else stays symbolic.
    """
    _check_convention(convention)
    n = family.n
    if isinstance(F, DualGenerator):
        if F.n != n:
            raise ValueError("the dual generator and the family have different variable counts")
        big_flat = {alpha: [term] for alpha, term in F._substituted().items()}
    else:
        big_flat = _flat(normalize_terms(F, n)[0], n)
    f_flats = [_flat(normalize_terms(family.generator(i), n)[0], n) for i in range(1, n + 1)]
    top = _lane_top(big_flat, *f_flats)
    big = _packed(big_flat, top)
    differentiate = convention == DIFFERENTIATION
    residuals: dict[int, dict] = {}
    for i, f_flat in enumerate(f_flats, 1):
        res = group_flat_terms(n, _unpacked(_act(f_flat, big, top, differentiate), n, n, top))
        if res:
            residuals[i] = res
    return AnnihilationResult(not residuals, residuals)


def dual_to_json(dual: DualGenerator) -> dict:
    terms = dual.sparse_terms()
    return {
        "D": dual.socle_degree,
        "convention": dual.convention,
        "s": list(dual.s),
        "terms": [
            {"alpha": list(key), "coeff": str(terms[key])}
            for key in sorted(terms, reverse=True)
        ],
    }
