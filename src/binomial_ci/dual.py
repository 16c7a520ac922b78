"""Macaulay dual generators, by reverse search from the socle monomial.

The coefficient of X^alpha is a^(s-r) * b^r (times D!/alpha! under
differentiation) when x^alpha has a reduction path with label counts r to
the target x1^(d1-1)...xn^(dn-1), and zero otherwise; s collects the
per-label maxima over all such paths.  So F lives on the target's in-tree,
which `_in_tree` finds by inverting the packed rewrite step of `keys.rule`,
without building the socle-degree reduction graph.  The search touches only
ints: packed vertex keys, each r as one int of count lanes, and one order of
the labels fixed up front in place of a sort at each vertex; the vertices
and counts are unpacked once, when the tree is done.

So F is a function of the family and the convention alone, and a
`DualGenerator` holds just those two and the family's in-tree value: the
tree, s, the search's verdict on f_i o F = 0 and the integer form at the
family's values.  Its terms come from
`DualGenerator._terms`, and the family's values enter through
`algebra._put_values`: sparse_terms and `DualGenerator._rendered`, the one
renderer of str and dual_to_json, read the flat terms of
`DualGenerator._substituted`; the renderer prints each through
`algebra._render_symbols` and `algebra._term`, with no SparsePoly.
evaluate is a view: an `algebra.EvaluatedForm`, read-only, that keeps its
dual and builds its Fractions from the same terms on first read.  The rank
oracles read it through `DualGenerator._integer_form` instead, one coprime
integer form per family built straight from the tree, since Fc and Phi(Fd)
are positive multiples of sum a^(s-r) b^r X^alpha; so in a numeric check no
Fraction of F is built.

Since F = sum of a^(s-r) b^r X^alpha over the tree, f_i o F = 0 is a
pairing: each term of the lead image must meet a term of the tail image
whose label counts differ by e_i.  The search decides that as it goes
(`_in_tree`): every label edge it builds is such a meeting, and it keeps
the image and count that each other pair must meet, so one comparison and
one count prove the pairing.  The verdict trusts the search's own label
edges; `reference.in_tree_match` checks the pairing from {alpha: r} alone.
The identity holds under both conventions, so verify_annihilation of a
DualGenerator, or of its evaluation, of the checked family under the
check's convention reads the verdict kept beside the tree.  A verdict that
holds proves annihilation at any values; one that fails proves nothing,
and the exact mapping path below decides.  The tree is shared and
read-only.  Any other form is a mapping, checked by `normalize_terms`.

The action x^gamma o F lives here on packed keys, on forms normalized by
`algebra.normalize_terms` (the form layer, re-exported here); `selftest` and
the tests pin it against its tuple reference, `reference.action_image`.
apply_action, verify_annihilation's mapping path and the Hessians at a point
go through the packed kernel `_act`, on the lane layout of `keys`: each term
of F, X and symbol exponents together, is packed once into one int of
guarded lanes, one subtract and mask on the guard bits tests divisibility by
x^gamma, and each product is one int add and one int multiply into a single
dict: each side's rationals are scaled to integers by the lcm of their
denominators first, and each nonzero entry of the image is divided back
once.  The kernel only contracts: with Phi(F) the alpha!-scaled form,
differentiation is Phi^-1(x^gamma o Phi(F)), so it divides each nonzero term
at X^k by k! (`oracle._integer_form` reads the same identity).  Only the
nonzero entries are unpacked and grouped back into SparsePoly (or, for
numeric inputs, Fraction) coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from math import factorial, gcd, lcm, prod
from operator import sub
from struct import Struct

from .algebra import (  # the form layer is re-exported here: binomial_ci.dual.CONTRACTION etc.
    CONTRACTION,
    DIFFERENTIATION,
    MONOMIAL_BUDGET,
    CoeffMonomial,
    EvaluatedForm,
    Exponents,
    Monomial,
    SparsePoly,
    Terms,
    _put_values,
    _render_symbols,
    _term,
    _Terms,
    check_convention,
    check_monomial_budget,
    exponent_factorial,
    group_flat_terms,
    normalize_terms,
    numeric_form,
)
from .family import BinomialFamily
from .keys import _guard, _lane_bytes, _nonzero, _pack, _pack_all, _unpack_all, rule


# ({alpha: r}, s, whether the search proved f_i o F = 0, [integer form at the
# family's values] once read): `_in_tree`'s value
InTree = tuple[dict[Exponents, Exponents], Exponents, bool, list[_Terms]]


# One entry serves the second convention's dual_generator, and s_vector, after
# the first convention's search, with the annihilation verdict kept beside the
# tree; the `structure` job builds both conventions of each family in turn.  A
# miss costs 0.96-1.00 s per pass over its 600-family pool, verdict included
# (best of 5, Python 3.11, 2 vCPU).
@lru_cache(maxsize=1)
def _in_tree(family: BinomialFamily) -> InTree:
    """({alpha: r}, s, annihilated, integer) over the in-tree of the socle
    monomial x^target, target = (d1-1, .., dn-1): r counts the labels on the
    path from x^alpha to the target and s holds their per-label maxima.
    annihilated is True when the search proved f_i o F = 0 for every
    generator (below).  integer starts empty: `DualGenerator._integer_form`
    keeps there the coprime integer form at the family's values.

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

    The same loop decides annihilation.  Under contraction a_i a^(s-r) b^r =
    b_i a^(s-r') b^r' exactly when r' = r - e_i, so f_i o F = 0 in Q[a, b][X]
    exactly when, for each i, every vertex alpha with alpha_i >= d_i steps
    to a vertex alpha + deltas[i-1] whose count is r_alpha - e_i, and every
    vertex w >= tail_i has the vertex w - deltas[i-1], with count r_w + e_i:
    the lead and tail images are then one dict.  Every label edge meets both
    by construction.  What is left are the non-label pairs (v, i): v_i >=
    d_i, but i is not v's label.  Each is found exactly when the search pops
    w = v + deltas[i-1] and tries i: the guard test passes and lane i holds
    d_i, but a lower lane does too.  The search keeps each such v and the
    count r_w + e_i it must have, and `_annihilates` asks that (a) each kept
    v is a vertex with that count and (b) there are as many kept pairs as
    non-label pairs in the tree.  (a) makes the pairs an injection into the
    non-label pairs and (b) a bijection, so both images agree on every pair.
    The verdict trusts the label edges the search built; True proves
    annihilation under both conventions and at the family's values, as
    putting values in keeps a zero zero and under differentiation Phi(F) is
    D! times the contraction dual.  False proves nothing, as values may
    annihilate what the symbols do not.

    The search touches only ints.  Each vertex's r is one int of
    `_lane_bytes(MONOMIAL_BUDGET)`-byte lanes, and its predecessors add
    their label's unit: each r_i is below the tree size, which is at most
    the size of the degree-D monomial space, checked against
    `MONOMIAL_BUDGET` first, so no lane overflows, nor does a kept r_w +
    e_i.  The keys and counts are unpacked once, at the end: the keys by
    `_unpack_all`, the counts into one flat tuple by one little-endian
    `Struct`, whose entries i, i + n, ... are the r_i, so s is one max per
    lane and each r a run of n entries.  The tree is shared; callers must
    not mutate it.
    """
    n = family.n
    check_monomial_budget(n, family.socle_degree)
    degrees, tails = family.degrees, tuple(t.exponents for t in family.tails)
    nb, guard, bound, deltas = rule(degrees, tails, family.socle_degree)
    rb = _lane_bytes(MONOMIAL_BUDGET)  # count lanes: every r_i < tree size <= MONOMIAL_BUDGET
    ends = [8 * nb * i for i in range(1, n + 1)]  # lane i ends below bit ends[i-1]
    u = [tuple(d * (j == i) - e for j, e in enumerate(t)) for i, (d, t) in enumerate(zip(degrees, tails))]
    labels = [  # (deltas[i-1], guard bits of lanes 1..i, lane i's guard bit, label i's count unit)
        (deltas[i], guard & ((1 << ends[i]) - 1), 1 << ends[i] - 1, 1 << 8 * rb * i)
        for i in sorted(range(n), key=u.__getitem__, reverse=True)
    ]
    root = _pack(tuple(d - 1 for d in degrees), nb) | guard
    seen = {root: 0}  # vertex key | G: its packed r, in the order found
    pv, pc = [], []  # each non-label pair's v, and the count r_w + e_i it must have
    stack = [(root, 0)]
    while stack:
        key, r = stack.pop()
        for delta, mask, bit, unit in labels:
            v = key - delta  # v | G when w >= tail_i
            if v & guard == guard:
                t = (v - bound) & mask
                if t == bit:  # v's label is i
                    if v in seen:
                        raise AssertionError(f"the reverse search reached {_unpack_all((v ^ guard,), n, nb)[0]} twice")
                    seen[v] = rv = r + unit
                    stack.append((v, rv))
                elif t & bit:  # v_i >= d_i, and a lower label comes first
                    pv.append(v)
                    pc.append(r + unit)
    annihilated = _annihilates(seen, pv, pc, bound, guard)
    del pv, pc  # freed before the unpack, which peaks the memory
    data = b"".join(map(int.to_bytes, seen.values(), repeat(n * rb), repeat("little")))
    flat = Struct(f"<{n * len(seen)}{'BHIQ'[rb.bit_length() - 1]}").unpack(data)
    tree = dict(zip(_unpack_all(map(guard.__xor__, seen), n, nb), zip(*[iter(flat)] * n)))
    return tree, tuple(max(flat[i::n]) for i in range(n)), annihilated, []


def _annihilates(seen: dict[int, int], pv: list[int], pc: list[int], bound: int, guard: int) -> bool:
    """The search's verdict on f_i o F = 0 from its outputs: seen {key | G:
    packed r}, and each non-label pair's v in pv and count in pc.  (a) Each
    pv[k] is a vertex whose count is pc[k], and (b) there are len(pv)
    non-label pairs: vertex alpha has a set guard bit in ((alpha | G) -
    bound) & G for each i with alpha_i >= d_i, one of them its label, and
    the root, whose entries are all below d, has none and no label."""
    return list(map(seen.get, pv)) == pc and sum(map(int.bit_count, [(k - bound) & guard for k in seen])) - len(seen) + 1 == len(pv)


def s_vector(family: BinomialFamily) -> tuple[int, ...]:
    """Per-label maxima of the label counts over all paths into the socle
    monomial x1^(d1-1)...xn^(dn-1), read from its in-tree."""
    return _in_tree(family)[1]


@dataclass(frozen=True)
class DualGenerator:
    """The dual generator F of a family under a convention: the family's
    in-tree value is read once, at construction, and every term comes from
    its tree and s."""

    family: BinomialFamily
    convention: str
    _tree: InTree = field(init=False, repr=False, compare=False)
    s: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        check_convention(self.convention)
        object.__setattr__(self, "_tree", in_tree := _in_tree(self.family))
        object.__setattr__(self, "s", in_tree[1])

    @property
    def n(self) -> int:
        return self.family.n

    @property
    def socle_degree(self) -> int:
        return self.family.socle_degree

    def _terms(self):
        """(s - r, r, scalar) per in-tree vertex, in the tree's order: the
        scalar is D!/alpha! under differentiation and 1 under contraction."""
        tree, s = self._tree[:2]
        if self.convention == DIFFERENTIATION:
            top = factorial(self.socle_degree)
            return ((tuple(map(sub, s, r)), r, top // exponent_factorial(alpha)) for alpha, r in tree.items())
        return ((tuple(map(sub, s, r)), r, 1) for r in tree.values())

    @property
    def coeffs(self) -> dict[Exponents, CoeffMonomial]:
        """{alpha: coefficient monomial}, built afresh on each read."""
        return {alpha: CoeffMonomial._raw(Fraction(c), a, r) for alpha, (a, r, c) in zip(self._tree[0], self._terms())}

    def _substituted(self) -> dict[Exponents, tuple[Exponents, int | Fraction]]:
        """{alpha: (2n symbol exponents, rational)} for the nonzero coefficients,
        with the family's values put in by `_put_values`, integral values as
        int.  Every exponent is nonnegative, as r <= s.  Its readers:
        `_rendered` (str and dual_to_json), sparse_terms, evaluate, and
        verify_annihilation's exact mapping path."""
        fam = self.family
        terms = _put_values(((a + r, c) for a, r, c in self._terms()), self.n, fam.a_values, fam.b_values)
        return {
            alpha: (sym, ratio[0] if ratio[1] == 1 else q)
            for alpha, (sym, q) in zip(self._tree[0], terms)
            if (ratio := q.as_integer_ratio())[0]
        }

    def sparse_terms(self) -> dict[Exponents, SparsePoly]:
        """Coefficients as polynomials, with the family's values substituted:
        public API, which `selftest` and the tests read as a plain mapping
        (the renderer's reference among them); no output path reads it."""
        n = self.n
        return {alpha: SparsePoly._raw(n, {sym: Fraction(q)}) for alpha, (sym, q) in self._substituted().items()}

    def evaluate(self) -> EvaluatedForm:
        """Numeric coefficients at the family's values, {alpha: Fraction} of
        the nonzero terms: a read-only mapping, built on first read, that
        keeps this dual."""
        if not self.family.is_numeric:
            raise ValueError("evaluation needs a value for every symbol")
        return EvaluatedForm(self, lambda: {alpha: Fraction(q) for alpha, (_, q) in self._substituted().items()})

    def _integer_form(self) -> tuple[_Terms, int, int]:
        """(terms, n, D): F under contraction, or Phi(F) = {alpha: alpha!
        F[alpha]} under differentiation, at the family's numeric values,
        scaled to coprime integers: `oracle._integer_form` of this dual's
        evaluation under its own convention.

        Both are positive multiples of sum a^(s-r) b^r X^alpha over the tree,
        as alpha! Fd = D! Fc, so one form serves both conventions: it is built
        on first read and kept beside the verdict on the in-tree value.
        With a_i = p_i/q_i and b_i = u_i/v_i, a^(s-r) b^r times prod (q_i
        v_i)^(s_i) is prod (p_i v_i)^(s_i-r_i) (q_i u_i)^(r_i): one power table
        per lane, one product per vertex, and one gcd to make them coprime.
        Each a_i is nonzero, so the target's term a^s is, and the gcd is
        positive; the zero terms of a zero b_i are dropped."""
        tree, s, *_, kept = self._tree
        if not kept:
            tables = []
            for a, b, top in zip(self.family.a_values, self.family.b_values, s):
                (p, q), (u, v) = a.as_integer_ratio(), b.as_integer_ratio()
                tables.append([(p * v) ** (top - r) * (q * u) ** r for r in range(top + 1)])
            values = [prod(map(list.__getitem__, tables, r)) for r in tree.values()]
            g = gcd(*values)
            kept.append(_Terms({alpha: c // g for alpha, c in zip(tree, values) if c}))
        return kept[0], self.n, self.socle_degree

    def _rendered(self) -> list[tuple[Exponents, str]]:
        """(alpha, coefficient text) per nonzero term, in descending order of
        alpha: the one renderer of str and dual_to_json.  Each text is what
        str prints for the term's `sparse_terms` polynomial, read straight
        from `_substituted` through `_render_symbols` and `_term`."""
        n = self.n
        terms = self._substituted()
        out = []
        for alpha in sorted(terms, reverse=True):
            sym, q = terms[alpha]
            names = _render_symbols(sym, n)
            out.append((alpha, _term(q, names) if q > 0 else "-" + _term(-q, names)))
        return out

    def __str__(self) -> str:
        return " + ".join(f"{text}*{Monomial._raw(alpha).render('X')}" for alpha, text in self._rendered()) or "0"


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


def _apply(f_flats: list[Flat], big_flat: Flat, n: int, m: int, differentiate: bool) -> list[dict]:
    """[f o F as {(X exponents, symbol exponents): Fraction}] for F's terms
    big_flat in the shape of `_flat`.

    One max over every tuple packed sizes the lanes, so F may hold any
    nonnegative exponents (`normalize_terms` rejects negative ones).
    Differentiation is contraction of the alpha!-scaled form, since
    x^gamma o X^alpha = alpha!/(alpha - gamma)! X^(alpha - gamma) under
    differentiation.  F's rationals are scaled to integers by scale, and each
    f's by f_scale, the lcm of their own denominators, so `_act` multiplies
    ints only; each nonzero entry is divided once, by scale * f_scale and,
    under differentiation, by k! at X^k.
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
    images = []
    for f_flat in f_flats:
        f_ints, f_scale = _scaled(q for _, (_, q) in f_flat)
        acc = _act([(gamma, (sym, c)) for (gamma, (sym, _)), c in zip(f_flat, f_ints)], big, n, nb, guard)
        den = scale * f_scale
        images.append(
            {key: Fraction(c, den * exponent_factorial(key[0]) if differentiate else den) for key, c in _nonzero(acc, n, m, nb).items()}
        )
    return images


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


def _generator_flats(family: BinomialFamily) -> list[Flat]:
    """f_1, .., f_n in the shape of `_flat`."""
    n = family.n
    return [_flat(normalize_terms(family.generator(i), n)[0], n) for i in range(1, n + 1)]


def _residuals(family: BinomialFamily, flat: Flat, convention: str) -> AnnihilationResult:
    """The exact mapping path: the generators act on the terms flat, in the
    shape of `_flat`, by `_apply`, and every nonzero image is a residual."""
    n = family.n
    images = _apply(_generator_flats(family), flat, n, n, convention == DIFFERENTIATION)
    residuals = {i: res for i, res in enumerate((group_flat_terms(n, image) for image in images), 1) if res}
    return AnnihilationResult(not residuals, residuals)


def _annihilated(F: DualGenerator) -> AnnihilationResult:
    """verify_annihilation of F against its own family under its own
    convention: the search's verdict, kept beside the tree, and where it
    fails the exact mapping path on F's `_substituted` terms."""
    if F._tree[2]:
        return AnnihilationResult(True, {})
    return _residuals(F.family, list(F._substituted().items()), F.convention)


def verify_annihilation(family: BinomialFamily, F, convention: str = CONTRACTION) -> AnnihilationResult:
    """Check f_i o F = 0 for every generator, exactly.

    F may be a DualGenerator or a mapping from monomials/exponent tuples to
    coefficients.  Symbol values fixed by the family are substituted into the
    generator coefficients; everything else stays symbolic.

    A DualGenerator of the check's convention and of the checked family, or
    its evaluation (`DualGenerator.evaluate`), reads the verdict its in-tree
    search kept beside the tree (`_in_tree`), so neither dual of a family
    checks anything more.  The evaluation's Fractions are the values of its
    dual's `_substituted` terms, so where the verdict fails the mapping path
    on those terms leaves the same residuals.  For any
    other F the generators act on F's terms by `_apply`: a DualGenerator's
    terms are its `_substituted` ones.
    """
    check_convention(convention)
    n = family.n
    dual = F.dual if isinstance(F, EvaluatedForm) else F
    if isinstance(dual, DualGenerator) and dual.convention == convention and dual.family == family:
        return _annihilated(dual)
    if isinstance(F, DualGenerator):
        if F.n != n:
            raise ValueError("the dual generator and the family have different variable counts")
        flat = list(F._substituted().items())
    else:
        flat = _flat(normalize_terms(F, n)[0], n)
    return _residuals(family, flat, convention)


def dual_to_json(dual: DualGenerator) -> dict:
    return {
        "D": dual.socle_degree,
        "convention": dual.convention,
        "s": list(dual.s),
        "terms": [{"alpha": list(alpha), "coeff": text} for alpha, text in dual._rendered()],
    }
