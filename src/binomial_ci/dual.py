"""Macaulay dual generators, by reverse search from the socle monomial.

The coefficient of X^alpha is a^(s-r) * b^r (times D!/alpha! under
differentiation) when x^alpha has a reduction path with label counts r to
the target x1^(d1-1)...xn^(dn-1), and zero otherwise; s collects the
per-label maxima over all such paths.  So F lives on the target's in-tree,
which `_in_tree` finds by inverting the packed rewrite step of `keys.rule`,
without building the socle-degree reduction graph.  The search touches only
ints: packed vertex keys, each r as one int of count lanes, and one order of
the labels fixed up front in place of a sort at each vertex; the vertices
and counts are unpacked once, when the tree is done.  The tree is cached, so
both conventions and `s_vector` share one search.

So F is a function of the family and the convention alone, and a
`DualGenerator` holds just those two and the tree.  Its terms come from
`DualGenerator._terms`, and the family's values enter through
`algebra._put_values`: sparse_terms, evaluate, str and dual_to_json read the
flat terms of `DualGenerator._substituted`.  verify_annihilation of a
DualGenerator under its own convention packs the contraction terms straight
from the tree (`_packed_dual`): two C passes pack the vertices alpha and
their label counts r, each key is one int expression in them, and each
coefficient is 1, or the values the family fixes.  The kernel's pass over
them is the same under both conventions, so one pass per (checked family,
dual's family) serves both (`_dual_pass`), and each check only divides; the
tree is shared and read-only.  Any other form is a mapping, checked by
`normalize_terms`.

The action x^gamma o F lives here on packed keys, on forms normalized by
`algebra.normalize_terms` (the form layer, re-exported here); `selftest` and
the tests pin it against its tuple reference, `reference.action_image`.
apply_action, verify_annihilation and the Hessians at a point go through the
packed kernel `_act`, on the lane layout of `keys`: each term of F, X and
symbol exponents together, is packed once into one int of guarded lanes, one
subtract and mask on the guard bits tests divisibility by x^gamma, and each
product is one int add and one int multiply into a single dict: each side's
rationals are scaled to integers by the lcm of their denominators first, and
each nonzero entry of the image is divided back once.  The kernel only
contracts: with Phi(F) the alpha!-scaled form, differentiation is
Phi^-1(x^gamma o Phi(F)), so it divides each nonzero term at X^k by k!
(`oracle._integer_form` reads the same identity).  A DualGenerator has
Phi(F) = D! times its contraction dual.  Only the nonzero entries are
unpacked and grouped back into SparsePoly (or, for numeric inputs, Fraction)
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import factorial, lcm
from operator import sub

from .algebra import (  # the form layer is re-exported here: binomial_ci.dual.CONTRACTION etc.
    CONTRACTION,
    DIFFERENTIATION,
    MONOMIAL_BUDGET,
    CoeffMonomial,
    Exponents,
    Monomial,
    SparsePoly,
    Terms,
    _put_values,
    check_convention,
    check_monomial_budget,
    exponent_factorial,
    group_flat_terms,
    normalize_terms,
    numeric_form,
)
from .family import BinomialFamily
from .keys import _guard, _lane_bytes, _nonzero, _pack, _pack_all, _unpack_all, _unpacked, rule


@lru_cache(maxsize=1)
def _in_tree(family: BinomialFamily) -> tuple[dict[Exponents, Exponents], Exponents]:
    """({alpha: r}, s) over the in-tree of the socle monomial x^target,
    target = (d1-1, .., dn-1): r counts the labels on the path from x^alpha
    to the target, and s holds their per-label maxima.

    A reverse search from the target on packed keys that never builds the
    socle-degree graph.  It inverts the step of `keys.rule`: w has the
    label-i predecessor v = w - deltas[i-1] exactly when w >= tail_i
    componentwise and v's own label is i.  One guard test on (w | G) -
    deltas[i-1] checks w >= tail_i off lane i, and lane i cannot borrow, as
    tail_i,i <= d_i; the label test then asks v_i >= d_i, which is w_i >=
    tail_i,i, and v_j < d_j for every j < i: one mask of the guard bits of
    lanes 1..i on (v | G) - pack(d) must leave lane i's bit alone.  The
    target is a sink, as every entry is below its d_i.  A vertex has at most
    one successor, and a vertex found from w reaches the target through w,
    so it is not on w's own path; hence each vertex is found once, the tree
    has no cycle and the search ends; a vertex found twice (a wrong rule)
    raises AssertionError.

    Each vertex's predecessors are visited in descending lex order of their
    exponent tuples, depth first.  That order is one order of the labels:
    the label-i predecessor is v_i = w + u_i with u_i = d_i e_i - tail_i,
    so the v_i of any w compare as the u_i do, and the u_i are distinct
    (entry i of u_i is positive, entry i of every other u_j at most 0).
    The labels are sorted by u_i once, not the predecessors at each vertex.

    The search touches only ints.  Each vertex's r is one int of
    `_lane_bytes(MONOMIAL_BUDGET)`-byte lanes, and its predecessors add
    their label's unit: each r_i is below the tree size, which is at most
    the size of the degree-D monomial space, checked against
    `MONOMIAL_BUDGET` first, so no lane overflows.  The keys and counts are
    unpacked once, at the end, by two `_unpack_all` calls.  The last tree
    is cached and shared; callers must not mutate it.
    """
    n = family.n
    check_monomial_budget(n, family.socle_degree)
    degrees, tails = family.degrees, [t.exponents for t in family.tails]
    nb, guard, bound, deltas = rule(degrees, tails, family.socle_degree)
    rb = _lane_bytes(MONOMIAL_BUDGET)  # count lanes: every r_i < tree size <= MONOMIAL_BUDGET
    ends = [8 * nb * i for i in range(1, n + 1)]  # lane i ends below bit ends[i-1]
    u = [tuple(d * (j == i) - e for j, e in enumerate(t)) for i, (d, t) in enumerate(zip(degrees, tails))]
    labels = [  # (deltas[i-1], guard bits of lanes 1..i, lane i's guard bit, label i's count unit)
        (deltas[i], guard & ((1 << ends[i]) - 1), 1 << ends[i] - 1, 1 << 8 * rb * i)
        for i in sorted(range(n), key=u.__getitem__, reverse=True)
    ]
    root = _pack(tuple(d - 1 for d in degrees), nb) | guard
    keys, counts, seen = [root], [0], {root}  # vertex keys | G, and their packed r
    stack = [(root, 0)]
    while stack:
        key, r = stack.pop()
        for delta, mask, bit, unit in labels:
            v = key - delta  # v | G when w >= tail_i
            if v & guard == guard and (v - bound) & mask == bit:  # v's label is i
                if v in seen:
                    raise AssertionError(f"the reverse search reached {_unpacked(v ^ guard, n, nb)} twice")
                seen.add(v)
                keys.append(v)
                counts.append(rv := r + unit)
                stack.append((v, rv))
    rs = _unpack_all(counts, n, rb)
    return dict(zip(_unpack_all(map(guard.__xor__, keys), n, nb), rs)), tuple(map(max, zip(*rs)))


def s_vector(family: BinomialFamily) -> tuple[int, ...]:
    """Per-label maxima of the label counts over all paths into the socle
    monomial x1^(d1-1)...xn^(dn-1), read from its cached in-tree."""
    return _in_tree(family)[1]


@dataclass(frozen=True)
class DualGenerator:
    """The dual generator F of a family under a convention: the in-tree and s
    are read once, at construction, and every term comes from them."""

    family: BinomialFamily
    convention: str
    _tree: dict[Exponents, Exponents] = field(init=False, repr=False, compare=False)
    s: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        check_convention(self.convention)
        tree, s = _in_tree(self.family)
        object.__setattr__(self, "_tree", tree)
        object.__setattr__(self, "s", s)

    @property
    def n(self) -> int:
        return self.family.n

    @property
    def socle_degree(self) -> int:
        return self.family.socle_degree

    def _terms(self):
        """(s - r, r, scalar) per in-tree vertex, in the tree's order: the
        scalar is D!/alpha! under differentiation and 1 under contraction."""
        s = self.s
        if self.convention == DIFFERENTIATION:
            top = factorial(self.socle_degree)
            return ((tuple(map(sub, s, r)), r, top // exponent_factorial(alpha)) for alpha, r in self._tree.items())
        return ((tuple(map(sub, s, r)), r, 1) for r in self._tree.values())

    @property
    def coeffs(self) -> dict[Exponents, CoeffMonomial]:
        """{alpha: coefficient monomial}, built afresh on each read."""
        return {alpha: CoeffMonomial._raw(Fraction(c), a, r) for alpha, (a, r, c) in zip(self._tree, self._terms())}

    def _substituted(self) -> dict[Exponents, tuple[Exponents, int | Fraction]]:
        """{alpha: (2n symbol exponents, rational)} for the nonzero coefficients,
        with the family's values put in by `_put_values`, integral values as
        int.  Every exponent is nonnegative, as r <= s."""
        fam = self.family
        terms = _put_values(((a + r, c) for a, r, c in self._terms()), self.n, fam.a_values, fam.b_values)
        return {
            alpha: (sym, ratio[0] if ratio[1] == 1 else q)
            for alpha, (sym, q) in zip(self._tree, terms)
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
    """The dual generator of the family under the convention."""
    return DualGenerator(family, convention)


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


def _act(f_flat: Flat, big: list[tuple[int, int]], n: int, nb: int, guard: int) -> dict[int, int]:
    """sum over gamma of c_gamma * (x^gamma o F) under contraction, on packed
    keys and integer coefficients: the one exact kernel of apply_action and
    verify_annihilation.

    After Monagan and Pearce's packed monomials: big holds F's terms as
    (p | G, int), p one int with the X and then the symbol exponents in
    lanes of nb bytes and G = guard, the top bits of the X lanes.
    `_lane_bytes` keeps each lane's top bit free, so with g = pack(gamma),
    ((p | G) - g) & G == G tests alpha >= gamma in every lane at once: no
    lane borrows from the next, and a lane keeps its guard bit exactly when
    alpha's entry is at least gamma's.  A term that passes moves to
    p - g + pack(0, s1) with one int add.
    """
    shift = 8 * nb * n
    acc: dict[int, int] = {}
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


def _scaled(qs) -> tuple[list[int], int]:
    """([q * L for q in qs], L), L the lcm of the rationals' denominators, so
    every entry is an int."""
    qs = list(qs)
    scale = lcm(*(q.denominator for q in qs))
    return [q.numerator * (scale // q.denominator) for q in qs], scale


def _pass(f_flats: list[Flat], big: list[tuple[int, int]], n: int, m: int, nb: int, guard: int) -> list[tuple[dict, int]]:
    """[({(X exponents, symbol exponents): int}, f_scale)] for each f: the
    nonzero entries of `_act` on F's terms packed in big as (p | G, int),
    before any division.  Each f's rationals are scaled to integers by
    f_scale, the lcm of their own denominators, so `_act` multiplies ints
    only.  The pass knows no convention: `_divided` applies it.
    """
    passes = []
    for f_flat in f_flats:
        ints, f_scale = _scaled(q for _, (_, q) in f_flat)
        acc = _act([(gamma, (sym, c)) for (gamma, (sym, _)), c in zip(f_flat, ints)], big, n, nb, guard)
        passes.append((_nonzero(acc, n, m, nb), f_scale))
    return passes


def _divided(passes: list[tuple[dict, int]], scale, differentiate: bool) -> list[dict]:
    """[f o F as {(X exponents, symbol exponents): Fraction}] from `_pass`,
    big's terms being q * scale (scale an int or a Fraction): each entry is
    divided once, by scale * f_scale and, under differentiation (big then
    holds the alpha!-scaled form), by k! at X^k."""
    images = []
    for entries, f_scale in passes:
        den = scale * f_scale
        images.append(
            {key: Fraction(c, den * exponent_factorial(key[0]) if differentiate else den) for key, c in entries.items()}
        )
    return images


def _apply(f_flats: list[Flat], big_flat: Flat, n: int, m: int, differentiate: bool) -> list[dict]:
    """[f o F] for F's terms big_flat in the shape of `_flat`: `_pass`, then
    `_divided`.

    One max over every tuple packed sizes the lanes, so F may hold any
    nonnegative exponents (`normalize_terms` rejects negative ones).
    Differentiation is contraction of the alpha!-scaled form, since
    x^gamma o X^alpha = alpha!/(alpha - gamma)! X^(alpha - gamma) under
    differentiation.
    """
    keys = [alpha + sym for alpha, (sym, _) in big_flat]
    f_keys = [gamma + sym for f_flat in f_flats for gamma, (sym, _) in f_flat]
    nb = _lane_bytes(max(chain.from_iterable(chain(keys, f_keys)), default=0))
    guard = _guard(n, nb)
    qs = (q for _, (_, q) in big_flat)
    if differentiate:
        qs = (q * exponent_factorial(alpha) for alpha, (_, q) in big_flat)
    ints, scale = _scaled(qs)
    big = [(p | guard, c) for p, c in zip(_pack_all(keys, n + 2 * m, nb), ints)]
    return _divided(_pass(f_flats, big, n, m, nb, guard), scale, differentiate)


def _packed_dual(fam: BinomialFamily, degrees) -> tuple[list[tuple[int, int]], int, int, int]:
    """(big, scale, nb, G): the terms of fam's dual generator under
    contraction for `_pass`, packed straight from its cached in-tree, to act
    on by forms of the given degrees.

    Two `_pack_all` calls pack the tree's keys alpha (the X lanes) and its
    label counts r; with S = pack(s), a vertex's key is A | G | (S - R) << w
    | R << 2w, w the width of the n X lanes, and no lane of S - R borrows, as
    r <= s.  The lanes hold twice max(D, max(s) + 1, d_i): s may exceed D.
    Each coefficient is 1; a family with fixed values puts them in by
    `_put_values`, and one AND masks the fixed symbols' lanes out of every
    key.
    """
    (tree, s), n = _in_tree(fam), fam.n
    nb = _lane_bytes(max(fam.socle_degree, max(s) + 1, *degrees))
    guard = _guard(n, nb)
    w = 8 * nb * n
    top = _pack(s, nb)
    keys = [a | guard | (top - r) << w | r << 2 * w for a, r in zip(_pack_all(tree, n, nb), _pack_all(tree.values(), n, nb))]
    if fam.coeff_mode == "symbolic":
        return [(key, 1) for key in keys], 1, nb, guard
    terms = _put_values(((tuple(map(sub, s, r)) + r, 1) for r in tree.values()), n, fam.a_values, fam.b_values)
    ints, scale = _scaled(q for _, q in terms)
    lane = (1 << 8 * nb) - 1
    mask = _pack((lane,) * n + tuple(lane if v is None else 0 for v in fam.a_values + fam.b_values), nb)
    return [(key & mask, c) for key, c in zip(keys, ints) if c], scale, nb, guard


def apply_action(f_terms, big_terms, convention: str = CONTRACTION):
    """Apply a polynomial in x to a polynomial in X by the chosen action.

    Contraction sends x^g o X^a to X^(a-g) when a >= g and to 0 otherwise;
    differentiation additionally multiplies by the falling factorials.  Both
    inputs map monomials (or exponent tuples) to coefficients, which may be
    rationals, coefficient monomials, or sparse polynomials; when either side
    is symbolic, every coefficient of the result is a SparsePoly.
    """
    check_convention(convention)
    f_norm, n = normalize_terms(f_terms)
    big_norm, n = normalize_terms(big_terms, n)
    m = next((c.n for c in (*f_norm.values(), *big_norm.values()) if isinstance(c, SparsePoly)), None)
    (terms,) = _apply([_flat(f_norm, m or 0)], _flat(big_norm, m or 0), n or 0, m or 0, convention == DIFFERENTIATION)
    if m is None:
        return {key: c for (key, _), c in terms.items()}
    return group_flat_terms(m, terms)


@dataclass(frozen=True)
class AnnihilationResult:
    ok: bool
    residuals: dict[int, dict]

    def __bool__(self) -> bool:
        return self.ok


@lru_cache(maxsize=1)
def _dual_pass(family: BinomialFamily, dual_family: BinomialFamily) -> tuple[list[tuple[dict, int]], int]:
    """(passes, scale): `_pass` of the family's generators on the contraction
    terms of dual_family's dual generator packed by `_packed_dual`, which
    hold q * scale.

    The in-tree is a function of the dual's family alone (`_in_tree`), and
    the pass is the same under both conventions, so the last one is kept:
    checking the same family against a dual of the same family again, under
    either convention, only divides."""
    big, scale, nb, guard = _packed_dual(dual_family, family.degrees)
    return _pass(_generator_flats(family), big, family.n, family.n, nb, guard), scale


def _generator_flats(family: BinomialFamily) -> list[Flat]:
    """f_1, .., f_n in the shape of `_flat`."""
    n = family.n
    return [_flat(normalize_terms(family.generator(i), n)[0], n) for i in range(1, n + 1)]


def verify_annihilation(family: BinomialFamily, F, convention: str = CONTRACTION) -> AnnihilationResult:
    """Check f_i o F = 0 for every generator, exactly.

    F may be a DualGenerator or a mapping from monomials/exponent tuples to
    coefficients.  Symbol values fixed by the family are substituted into the
    generator coefficients; everything else stays symbolic.  A DualGenerator
    of another convention than the check's is read as its terms, a mapping.

    A DualGenerator of the check's convention is contracted once per
    (checked family, dual's family) by `_dual_pass`, on the shared, read-only
    in-tree: Phi(F) is D! times the contraction dual, so both conventions
    read the same packed pass and differ only in its division.  That pass
    reads the family's in-tree from `_in_tree`, so F takes it only when it
    holds that very tree.  Any other DualGenerator is read as its terms: one
    whose tree was replaced, or one built before another family's search
    took `_in_tree`'s one entry (its tree is then searched again).
    """
    check_convention(convention)
    n = family.n
    differentiate = convention == DIFFERENTIATION
    if isinstance(F, DualGenerator) and F.n != n:
        raise ValueError("the dual generator and the family have different variable counts")
    if isinstance(F, DualGenerator) and F.convention == convention and F._tree is _in_tree(F.family)[0]:
        passes, scale = _dual_pass(family, F.family)
        if differentiate:
            # Phi(F) = D! times the contraction terms of the pass
            scale = Fraction(scale, factorial(F.socle_degree))
        images = _divided(passes, scale, differentiate)
    else:
        flat = list(F._substituted().items()) if isinstance(F, DualGenerator) else _flat(normalize_terms(F, n)[0], n)
        images = _apply(_generator_flats(family), flat, n, n, differentiate)
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
