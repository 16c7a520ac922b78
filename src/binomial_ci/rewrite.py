"""Monomial and polynomial reduction modulo a binomial family.

Following the reduction edges with labels <= k rewrites a monomial either to a
basis monomial (no exponent reaches its d_i for i <= k) with an exact
coefficient b^r/a^r, or into a cycle, in which case the monomial lies in the
ideal whenever the family is a regular sequence.  The walk runs on packed keys
(`keys._rule`): one subtract and mask finds each step's label and one int add
takes the step.  Every state has the start's degree, so lanes sized by that
degree hold the whole walk, however large its exponents.  The walk keeps its
labels, not its states, and unpacks only its end; `Monomial`s are built only
for outputs.  reduce_monomial and certificate on the same (monomial, k)
share one walk, and a certificate replays the keys from the start and the
labels and unpacks all its multipliers in one call.  Its steps are a tuple
that also keeps that walk's family and input.

Every reduction, under any cutoff k, can be certified by a relation that
expands to zero symbolically.  certificate_residual checks a certificate of
`certificate`, against its own family and input, by replaying its steps'
labels on constants packed from the family's degrees and tails: a guard test
before each step, the end state, a^r and b^r prove the identity, and no
multiplier or scale is read.  Any other certificate, or one whose replay
fails, is expanded on packed int keys: each key holds the x exponents and
the 2n symbol exponents, and each step costs two int adds.  That expansion
reads only the certificate, never the walk, so it checks an arbitrary
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import and_, attrgetter, or_, sub

from . import algebra
from .algebra import CoeffMonomial, Monomial, SparsePoly, group_flat_terms
from .family import BinomialFamily
from .keys import _guard, _nonzero, _rule, _shifted, _unpack_all, _wide_lane_bytes

TO_BASIS = "basis"
TO_CYCLE = "cycle"


@dataclass(frozen=True)
class ReductionOutcome:
    kind: str
    path_labels: tuple[int, ...]
    r_vector: tuple[int, ...]
    basis_monomial: Monomial | None = None
    coeff: CoeffMonomial | None = None  # b^r / a^r, only for basis outcomes
    cycle_entry: Monomial | None = None


# One entry serves certificate after reduce_monomial on the same (monomial,
# k), as in the `structure` job and `reduce --certificate`.  A miss costs
# 0.13 s per pass over the job's 4800 walks (best of 5, Python 3.11, 2 vCPU).
@lru_cache(maxsize=1)
def _walk(family: BinomialFamily, exps: tuple[int, ...], k: int, budget: int):
    """Follow edges with labels <= k from exps until a basis monomial or a
    repeat, one int add per step on packed keys.

    Returns (start, labels, stop_kind, end, nb, deltas): the packed start,
    each step's label and the exponents of the last state; the keys have
    lanes of nb bytes and the label-i step adds deltas[i - 1], so the start
    and the labels give every state.  For a cycle stop the last state is the
    second visit of the cycle entry.  A walk longer than budget steps
    (callers pass `algebra.MONOMIAL_BUDGET`) raises ValueError.  Its lists
    are shared and must not be mutated.  The cache keeps at most one walk
    alive, its labels but not its states, and MONOMIAL_BUDGET bounds its
    length.
    """
    n = family.n
    if not 1 <= k <= n:
        raise ValueError(f"cutoff must lie in 1..{n}")
    if len(exps) != n:
        raise ValueError(f"monomial {Monomial._raw(exps)} does not have {n} variables")
    degrees, tails = family.degrees, tuple(t.exponents for t in family.tails)
    # every state has the start's degree, so no lane of the walk exceeds it
    nb, guard, bound, deltas = _rule(degrees, tails, _wide_lane_bytes(max(sum(exps), *degrees)))
    w = 8 * nb
    below = guard & (1 << w * k) - 1  # the guard bits of lanes 1..k
    start = key = _shifted(exps, nb)
    labels: list[int] = []
    seen = {key}
    while True:
        rows = ((key | guard) - bound) & below  # lane i's guard bit: x_i^{d_i} divides, i <= k
        if not rows:
            return start, labels, TO_BASIS, _unpack_all((key,), n, nb)[0], nb, deltas
        if len(labels) == budget:
            raise ValueError(f"the rewriting walk from {Monomial._raw(exps)} exceeds the budget of {budget} steps")
        label = (rows & -rows).bit_length() // w  # the lowest guard bit left
        key += deltas[label - 1]
        labels.append(label)
        if key in seen:
            return start, labels, TO_CYCLE, _unpack_all((key,), n, nb)[0], nb, deltas
        seen.add(key)


def reduce_monomial(family: BinomialFamily, m: Monomial, k: int | None = None) -> ReductionOutcome:
    """Reduce m along the reduction edges with labels <= k (default n)."""
    k = family.n if k is None else k
    _, labels, kind, end, _, _ = _walk(family, m.exponents, k, algebra.MONOMIAL_BUDGET)
    r = tuple(map(labels.count, range(1, family.n + 1)))
    end = Monomial._raw(end)
    if kind == TO_BASIS:
        coeff = CoeffMonomial(Fraction(1), tuple(-e for e in r), r)
        return ReductionOutcome(TO_BASIS, tuple(labels), r, basis_monomial=end, coeff=coeff)
    return ReductionOutcome(TO_CYCLE, tuple(labels), r, cycle_entry=end)


@dataclass(frozen=True)
class PolyReduction:
    """A reduced polynomial plus whether any cycle monomial was dropped.

    Cycle monomials are mapped to zero, which is only valid when the family is
    a regular sequence; used_conditional_zero records whether that hypothesis
    was needed.
    """

    terms: dict[Monomial, Fraction]
    used_conditional_zero: bool


def reduce_polynomial(family: BinomialFamily, poly: dict[Monomial, Fraction]) -> PolyReduction:
    """Reduce each monomial of a rational polynomial; requires numeric family."""
    if not family.is_numeric:
        raise ValueError("polynomial reduction needs a fully numeric family")
    acc: dict[Monomial, Fraction] = {}
    conditional = False
    for m, c in poly.items():
        if c == 0:
            continue
        outcome = reduce_monomial(family, m)
        if outcome.kind == TO_CYCLE:
            conditional = True
            continue
        key = outcome.basis_monomial
        acc[key] = acc.get(key, 0) + c * outcome.coeff.evaluate(family.a_values, family.b_values)
    return PolyReduction({key: c for key, c in acc.items() if c}, conditional)


@dataclass(frozen=True)
class CertificateStep:
    gen_index: int  # i_s
    multiplier: Monomial  # m^{(s-1)} / x_{i_s}^{d_{i_s}}
    scale: CoeffMonomial  # p_s


@dataclass(frozen=True)
class Certificate:
    """The relation  a_prod * input - sum_s p_s * mult_s * f_{i_s} = rhs.

    For basis outcomes rhs is b^r times the basis monomial; for cycle outcomes
    the walk runs to the first repeated vertex, so rhs lands on the cycle
    entry and an on-cycle input yields the relation p(C)*m = sum h_i f_i.
    steps is a tuple of `CertificateStep`s; `certificate`'s also keeps the
    walk it was built from, which certificate_residual replays.
    """

    kind: str
    input: Monomial
    a_product: CoeffMonomial
    steps: tuple[CertificateStep, ...]
    rhs_coeff: CoeffMonomial
    rhs_monomial: Monomial


class _WalkSteps(tuple):
    """The steps of a certificate of `certificate`: their tuple, which also
    keeps the family and the input monomial of the walk it was built from.
    These two fix every multiplier and scale, given the labels, so
    certificate_residual checks the certificate by replaying the steps'
    labels from that input.  The tuple is immutable, so it stays the one the
    walk built.  A tuple of steps made any other way (a slice, a sum, one
    built by hand) keeps no walk."""

    family = input = None


def certificate(family: BinomialFamily, m: Monomial, k: int | None = None) -> Certificate:
    """The relation of reduce_monomial(family, m, k): the same walk along the
    edges with labels <= k (default n), so kind and rhs match its outcome.

    Step s's multiplier is the walk's key before it, replayed from the
    start and the labels, less pack(d_i e_i): one `_unpack_all` call reads
    them all.  The steps keep the walk, for check_certificate."""
    start, labels, kind, end, nb, deltas = _walk(family, m.exponents, family.n if k is None else k, algebra.MONOMIAL_BUDGET)
    n = family.n
    moves = [0, *deltas]  # the label-i step at index i
    leads = [0] + [d << 8 * nb * i for i, d in enumerate(family.degrees)]  # pack(d_i e_i) at index i
    keys = accumulate(map(moves.__getitem__, labels), initial=start)
    multipliers = _unpack_all(map(sub, keys, map(leads.__getitem__, labels)), n, nb)
    r = tuple(map(labels.count, range(1, n + 1)))
    zero = (0,) * n
    one = Fraction(1)
    raw = CoeffMonomial._raw
    scales = []
    before = [0] * n  # label counts of the steps already taken
    after = list(r)  # label counts of the steps after this one
    for label in labels:
        after[label - 1] -= 1
        scales.append(raw(one, tuple(after), tuple(before)))
        before[label - 1] += 1
    steps = _WalkSteps(map(CertificateStep, labels, map(Monomial._raw, multipliers), scales))
    steps.family, steps.input = family, m
    return Certificate(kind, m, CoeffMonomial(one, r, zero), steps, CoeffMonomial(one, zero, r), Monomial._raw(end))


def _lanes(n: int, mono: Monomial, cm: CoeffMonomial) -> tuple[int, ...]:
    """mono's exponents and then cm's symbol exponents, the lanes of one
    packed key; a symbol count other than n or a negative exponent raises."""
    if len(cm.a_exp) != n:
        raise ValueError("polynomials live in different symbol counts")
    if len(mono.exponents) != n:
        raise ValueError(f"monomial {mono} does not have {n} variables")
    lanes = mono.exponents + cm.a_exp + cm.b_exp
    if min(lanes) < 0:
        raise ValueError("Laurent exponents cannot be converted to a polynomial")
    return lanes


def _rational(q: Fraction) -> int | Fraction:
    return q.numerator if q.denominator == 1 else q


def _replays(family: BinomialFamily, cert: Certificate) -> bool:
    """Whether a certificate of `certificate`, of this family and input,
    holds by its walk alone: on lanes sized from the input's degree, each
    label passes the family's guard test (x_i^{d_i} divides the state before
    the step), the last state is rhs_monomial, and a_product and rhs_coeff
    are a^r and b^r for the label counts r.  Then every state is a monomial
    of the input's degree, and the steps the labels build from the input
    telescope, so the identity holds.  False proves nothing.  The guard,
    bound and moves are packed here from the family's degrees and tails, as
    the expansion packs its leads and tails, not read from the `keys._rule`
    table the walk took its steps by."""
    steps = cert.steps
    if steps.input != cert.input:
        return False
    n, exps = family.n, cert.input.exponents
    labels = list(map(attrgetter("gen_index"), steps))
    r = tuple(map(labels.count, range(1, n + 1)))
    zero = (0,) * n
    a, c = cert.a_product, cert.rhs_coeff
    if (a.scalar, a.a_exp, a.b_exp, c.scalar, c.a_exp, c.b_exp) != (1, r, zero, 1, zero, r):
        return False
    nb = _wide_lane_bytes(max(sum(exps), *family.degrees))
    w = 8 * nb
    guard, bound = _guard(n, nb), _shifted(family.degrees, nb)
    moves = [0] + [_shifted(t.exponents, nb) - (d << w * i) for i, (d, t) in enumerate(zip(family.degrees, family.tails))]
    bits = [0] + [1 << w * i - 1 for i in range(1, n + 1)]  # lane i's guard bit at index i
    states = accumulate(map(moves.__getitem__, labels), initial=_shifted(exps, nb))
    # the labels come first, so the last state is left for next(states)
    if not all(map(and_, map(bits.__getitem__, labels), map(sub, map(or_, states, repeat(guard)), repeat(bound)))):
        return False
    return _unpack_all((next(states),), n, nb)[0] == cert.rhs_monomial.exponents


def certificate_residual(family: BinomialFamily, cert: Certificate) -> dict[Monomial, SparsePoly]:
    """Symbolic expansion of the certificate identity; empty means it holds.

    A certificate of `certificate`, checked against its own family, first
    takes the packed route: `_replays` replays its steps' labels from its
    input and reads no multiplier or scale.  A replay that holds proves the
    identity; one that fails proves nothing, and the steps are expanded, so
    a tampered, hand-built or other-family certificate gets the same
    residual.

    Every coefficient is a coefficient monomial, so each term of the identity
    is one flat term (x exponents, symbol exponents) -> rational: the input
    and rhs terms, and per step -p_s*a_i at mult_s*x_i^{d_i} and +p_s*b_i at
    mult_s*tail_i.  Each step's generator index and lanes are checked first,
    since a negative lane would borrow from its neighbour.  The terms live on
    packed int keys whose lanes are sized by the largest exponent present, of
    any width: each row mult_s, p_s is packed once by shifts (`_shifted`),
    each step is two int adds of the keys of x_i^{d_i}*a_i and tail_i*b_i to
    it, and the nonzero sums are unpacked by `_unpack_all`.
    """
    steps = cert.steps
    if type(steps) is _WalkSteps and steps.family == family and _replays(family, cert):
        return {}
    n = family.n
    first = _lanes(n, cert.input, cert.a_product)
    last = _lanes(n, cert.rhs_monomial, cert.rhs_coeff)
    rows = []
    for step in steps:
        if not 1 <= step.gen_index <= n:
            raise ValueError(f"generator index {step.gen_index} out of range 1..{n}")
        rows.append(_lanes(n, step.multiplier, step.scale))
    # d_i bounds the exponents of tail_i, of degree d_i, and the 1 each step adds to a symbol lane
    nb = _wide_lane_bytes(max(*family.degrees, *first, *last, *map(max, rows)))
    w = 8 * nb
    leads, tails = [0], [0]  # the keys of x_i^{d_i}*a_i and tail_i*b_i at index i
    for i, (d, tail) in enumerate(zip(family.degrees, family.tails)):
        leads.append(d << w * i | 1 << w * (n + i))
        tails.append(_shifted(tail.exponents, nb) | 1 << w * (2 * n + i))
    start, end = _shifted(first, nb), _shifted(last, nb)
    acc = {start: _rational(cert.a_product.scalar)}
    get = acc.get
    for step, row in zip(steps, rows):
        i, key, q = step.gen_index, _shifted(row, nb), _rational(step.scale.scalar)
        neg, pos = key + leads[i], key + tails[i]  # -p_s*a_i at mult_s*x_i^{d_i}, +p_s*b_i at mult_s*tail_i
        acc[neg] = get(neg, 0) - q
        acc[pos] = get(pos, 0) + q
    acc[end] = get(end, 0) - _rational(cert.rhs_coeff.scalar)
    return {Monomial._raw(x): poly for x, poly in group_flat_terms(n, _nonzero(acc, n, n, nb)).items()}


def check_certificate(family: BinomialFamily, cert: Certificate) -> bool:
    return not certificate_residual(family, cert)


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "kind": cert.kind,
        "input": str(cert.input),
        "a_product": str(cert.a_product),
        "steps": [
            {"i": s.gen_index, "multiplier": str(s.multiplier), "p": str(s.scale)}
            for s in cert.steps
        ],
        "rhs": {"coeff": str(cert.rhs_coeff), "monomial": str(cert.rhs_monomial)},
    }


def render_certificate(cert: Certificate) -> str:
    """Human-readable equation form of the certificate."""
    lhs = f"({cert.a_product})*{cert.input}"
    pieces = [f"({s.scale})*{s.multiplier}*f{s.gen_index}" for s in cert.steps]
    rhs = f"({cert.rhs_coeff})*{cert.rhs_monomial}"
    if pieces:
        return f"{lhs} = " + " + ".join(pieces) + f" + {rhs}"
    return f"{lhs} = {rhs}"
