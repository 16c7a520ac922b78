"""Macaulay dual generators, by reverse search from the socle monomial.

The coefficient of X^alpha is a^(s-r) * b^r (times D!/alpha! under
differentiation) when x^alpha has a reduction path with label counts r to
the target x1^(d1-1)...xn^(dn-1), and zero otherwise; s collects the
per-label maxima over all such paths.  So F lives on the target's in-tree,
which `_in_tree` finds by inverting the rewrite step on exponent tuples,
without building the socle-degree reduction graph; the tree is cached, so
both conventions and `s_vector` share one search.

The family's values enter F once, in `DualGenerator._substituted`, through
`algebra._put_values`; sparse_terms, evaluate, str, dual_to_json and
verify_annihilation all read its flat terms.

The action x^gamma o F lives here, on forms normalized by `normalize_terms`,
in two forms that the tests pin together.  `action_image` maps tuple-keyed
terms; the catalecticants of `oracle` and the Hessians of `lefschetz` call
it.  apply_action and verify_annihilation go through the packed kernel
`_act`, after Monagan and Pearce's packed monomials: each term of F, X and
symbol exponents together, is packed once by `_pack` into one int of 1-, 2-,
4- or 8-byte lanes whose top bits stay free as guards, one subtract and mask
on those bits tests divisibility by x^gamma, and each product is one int add
and one rational multiply into a single dict.  The kernel only contracts:
differentiation contracts the alpha!-scaled form and divides each nonzero
term at X^k by k!, the identity behind `oracle._integer_form`.  Only the
nonzero entries are unpacked and grouped back into SparsePoly (or, for
numeric inputs, Fraction) coefficients.  `rewrite` and `graph` pack with the
same `_pack`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat, starmap
from math import factorial, prod
from operator import add, le, lt, mul, sub
from struct import Struct
from typing import Mapping

from .algebra import (
    CoeffMonomial,
    Monomial,
    SparsePoly,
    _put_values,
    as_fraction,
    check_monomial_budget,
    falling_product,
    group_flat_terms,
)
from .family import BinomialFamily

CONTRACTION = "contraction"
DIFFERENTIATION = "differentiation"
_CONVENTIONS = (CONTRACTION, DIFFERENTIATION)

Exponents = tuple[int, ...]


def _check_convention(convention: str) -> None:
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention must be one of {_CONVENTIONS}")


@lru_cache(maxsize=1)
def _in_tree(family: BinomialFamily) -> tuple[dict[Exponents, Exponents], Exponents]:
    """({alpha: r}, s) over the in-tree of the socle monomial x^target,
    target = (d1-1, .., dn-1): r counts the labels on the path from x^alpha
    to the target, and s holds their per-label maxima.

    A reverse search from the target on exponent tuples that never builds
    the socle-degree graph.  It inverts `BinomialFamily._move`: w has the
    label-i predecessor v = w - tail_i + d_i e_i exactly when w >= tail_i
    componentwise (then v_i = w_i - tail_i,i + d_i >= d_i) and v_j < d_j for
    every j < i (so i is the least index that v can reduce by).  The target
    is a sink, as every entry is below its d_i.  A vertex has at most one
    successor, and a vertex found from w reaches the target through w, so
    it is not on w's own path; hence each vertex is found once, the tree
    has no cycle and the search ends.  Each vertex's predecessors are
    visited in descending lex order, depth first.

    The size of the degree-D monomial space is checked against
    `MONOMIAL_BUDGET` first.  The last tree is cached and shared; callers
    must not mutate it.
    """
    n = family.n
    degrees = family.degrees
    check_monomial_budget(n, family.socle_degree)
    moves = []  # per label i: tail_i, the bounds tail_i,j + d_j (j < i) on w, v - w, and e_i
    for i, (tail, d) in enumerate(zip(family.tails, degrees)):
        t = tail.exponents
        step = [-e for e in t]
        step[i] += d
        unit = (0,) * i + (1,) + (0,) * (n - i - 1)
        moves.append((t, tuple(map(add, t[:i], degrees)), tuple(step), unit))
    target = tuple(d - 1 for d in degrees)
    tree = {target: (0,) * n}
    stack = [target]
    while stack:
        w = stack.pop()
        rw = tree[w]
        preds = [
            (tuple(map(add, w, step)), unit)
            for tail, below, step, unit in moves
            if all(map(le, tail, w)) and all(map(lt, w, below))
        ]
        preds.sort(reverse=True)
        for v, unit in preds:
            tree[v] = tuple(map(add, rw, unit))
            stack.append(v)
    return tree, tuple(map(max, zip(*tree.values())))


def s_vector(family: BinomialFamily) -> tuple[int, ...]:
    """Per-label maxima of the label counts over all paths into the socle
    monomial x1^(d1-1)...xn^(dn-1), read from its cached in-tree."""
    return _in_tree(family)[1]


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

    # Set by dual_generator, whose exponents alpha, s - r and r are never
    # negative (its coeffs are read-only); the check costs more than a symbolic
    # family's substitution.  Others, dataclasses.replace's too, are checked.
    _checked = False

    def _substituted(self) -> dict[Exponents, tuple[Exponents, int | Fraction]]:
        """{alpha: (2n symbol exponents, rational)} for the nonzero coefficients,
        with the family's values put in by `_put_values`, integral values as
        int, in one pass when no value is fixed.  A negative exponent raises
        ValueError naming its term, so that every view of F fails alike."""
        coeffs, fam = self.coeffs, self.family
        if not self._checked:
            for alpha, cm in coeffs.items():
                if min(alpha + cm.a_exp + cm.b_exp) < 0:
                    raise ValueError(f"Laurent exponents cannot be converted to a polynomial: ({cm})*X^{list(alpha)}")
        terms = ((cm.a_exp + cm.b_exp, cm.scalar) for cm in coeffs.values())
        terms = _put_values(terms, self.n, fam.a_values, fam.b_values)
        return {
            alpha: (sym, ratio[0] if ratio[1] == 1 else q)
            for alpha, (sym, q) in zip(coeffs, terms)
            if (ratio := q.as_integer_ratio())[0]
        }

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
    """The dual generator F: X^alpha gets a^(s-r) * b^r for every vertex
    alpha of the in-tree of the socle monomial, r its path's label counts,
    times D!/alpha! under differentiation."""
    _check_convention(convention)
    tree, s = _in_tree(family)
    degree = family.socle_degree
    fact = list(accumulate(range(1, degree + 1), mul, initial=1)) if convention == DIFFERENTIATION else None
    scalar = Fraction(1)
    coeffs: dict[Exponents, CoeffMonomial] = {}
    for alpha, r in tree.items():
        if fact:
            den = 1
            for a in alpha:
                den *= fact[a]
            scalar = Fraction(fact[degree] // den)
        coeffs[alpha] = CoeffMonomial._raw(scalar, tuple(map(sub, s, r)), r)
    dual = DualGenerator(family, convention, degree, s, coeffs)
    object.__setattr__(dual, "_checked", True)
    return dual


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
    of alpha over gamma.  `_apply` computes the same action under packed keys.
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


Flat = list[tuple[Exponents, tuple[Exponents, int | Fraction]]]


def _flat(terms: Terms, m: int) -> Flat:
    """[(alpha, (symbol exponents, rational))], the shape of
    `DualGenerator._substituted().items()`: each coefficient as its terms in
    m symbol pairs, integral values as int; a Fraction is one term on the
    zero symbol key."""
    zero = (0,) * (2 * m)
    out: Flat = []
    for key, c in terms.items():
        if isinstance(c, SparsePoly):
            if c.n != m:
                raise ValueError("polynomials live in different symbol counts")
            items = c.terms.items()
        else:
            items = ((zero, c),)
        out += [(key, (sym, q.numerator if q.denominator == 1 else q)) for sym, q in items]
    return out


def _lane_bytes(top: int) -> int:
    """Bytes per packed lane, 1, 2, 4 or 8: room for the sum of two exponents
    up to top with the lane's top bit still free as a guard."""
    bits = (2 * top).bit_length() + 1
    for nb in (1, 2, 4, 8):
        if bits <= 8 * nb:
            return nb
    raise ValueError(f"exponent {top} is too large for a packed key")


@lru_cache(maxsize=64)
def _layout(size: int, nb: int) -> Struct:
    """size unsigned little-endian lanes of nb bytes (struct codes B, H, I,
    Q): the same widths and lane order on every host."""
    return Struct(f"<{size}{'BHIQ'[nb.bit_length() - 1]}")


def _pack(exps: Exponents, nb: int) -> int:
    """exps[j] in bytes [j*nb, (j+1)*nb) of one int; every entry must fit an
    unsigned lane of nb bytes."""
    return int.from_bytes(_layout(len(exps), nb).pack(*exps), "little")


def _pack_all(vectors, size: int, nb: int) -> list[int]:
    """[_pack(v, nb) for v in vectors], for vectors of size entries, in C."""
    return list(map(int.from_bytes, starmap(_layout(size, nb).pack, vectors), repeat("little")))


def _unpacked(key: int, size: int, nb: int) -> Exponents:
    """The size lanes of a packed key: the inverse of _pack."""
    return _layout(size, nb).unpack(key.to_bytes(size * nb, "little"))


def _nonzero(acc: dict[int, int | Fraction], n: int, m: int, nb: int) -> dict:
    """{(X exponents, symbol exponents): rational} for the nonzero entries of
    a packed accumulator with n X lanes and 2m symbol lanes."""
    out = {}
    for key, c in acc.items():
        if c:
            lanes = _unpacked(key, n + 2 * m, nb)
            out[lanes[:n], lanes[n:]] = c
    return out


def _act(f_flat: Flat, big: list[tuple[int, int | Fraction]], n: int, nb: int, guard: int) -> dict[int, int | Fraction]:
    """sum over gamma of c_gamma * (x^gamma o F) under contraction, on packed
    keys: the one exact kernel of apply_action and verify_annihilation.

    After Monagan and Pearce's packed monomials: big holds F's terms as
    (p | G, rational), p one int with the X and then the symbol exponents in
    lanes of nb bytes and G = guard, the top bits of the X lanes.
    `_lane_bytes` keeps each lane's top bit free, so with g = pack(gamma),
    ((p | G) - g) & G == G tests alpha >= gamma in every lane at once: no
    lane borrows from the next, and a lane keeps its guard bit exactly when
    alpha's entry is at least gamma's.  A term that passes moves to
    p - g + pack(0, s1) with one int add.
    """
    shift = 8 * nb * n
    acc: dict[int, int | Fraction] = {}
    for gamma, (s1, c1) in f_flat:
        g = _pack(gamma, nb)
        d = (_pack(s1, nb) << shift) - g - guard
        image = {p + d: c1 * c2 for p, c2 in big if (p - g) & guard == guard}  # distinct p, distinct keys
        if len(image) > len(acc):
            acc, image = image, acc
        get = acc.get
        for k, c in image.items():
            acc[k] = get(k, 0) + c
    return acc


def _apply(f_flats: list[Flat], big_flat, n: int, m: int, differentiate: bool) -> list[dict]:
    """[f o F as {(X exponents, symbol exponents): rational}] for each f,
    with F's terms big_flat in the shape of `_flat`.

    One max over every tuple packed sizes the lanes, so F may hold any
    nonnegative exponents (`normalize_terms` and `DualGenerator._substituted`
    reject negative ones).  Differentiation is contraction of the
    alpha!-scaled form, since x^gamma o X^alpha = alpha!/(alpha - gamma)!
    X^(alpha - gamma) under differentiation: each nonzero term at X^k is
    then divided by k!.
    """
    keys = [alpha + sym for alpha, (sym, _) in big_flat]
    f_keys = [gamma + sym for f_flat in f_flats for gamma, (sym, _) in f_flat]
    nb = _lane_bytes(max(chain.from_iterable(chain(keys, f_keys)), default=0))
    guard = _pack((1 << 8 * nb - 1,) * n, nb)
    packed = _pack_all(keys, n + 2 * m, nb)
    if differentiate:
        big = [(p | guard, q * prod(map(factorial, alpha))) for p, (alpha, (_, q)) in zip(packed, big_flat)]
    else:
        big = [(p | guard, q) for p, (_, (_, q)) in zip(packed, big_flat)]
    images = [_nonzero(_act(f_flat, big, n, nb, guard), n, m, nb) for f_flat in f_flats]
    if differentiate:
        images = [{key: Fraction(c, prod(map(factorial, key[0]))) for key, c in image.items()} for image in images]
    return images


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
    (terms,) = _apply([_flat(f_norm, m or 0)], _flat(big_norm, m or 0), n or 0, m or 0, convention == DIFFERENTIATION)
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
        big_flat = F._substituted().items()
    else:
        big_flat = _flat(normalize_terms(F, n)[0], n)
    f_flats = [_flat(normalize_terms(family.generator(i), n)[0], n) for i in range(1, n + 1)]
    images = _apply(f_flats, big_flat, n, n, convention == DIFFERENTIATION)
    residuals = {i: res for i, res in enumerate((group_flat_terms(n, image) for image in images), 1) if res}
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
