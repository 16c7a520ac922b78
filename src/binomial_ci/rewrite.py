"""Monomial and polynomial reduction modulo a binomial family.

Following the reduction edges with labels <= k rewrites a monomial either to a
basis monomial (no exponent reaches its d_i for i <= k) with an exact
coefficient b^r/a^r, or into a cycle, in which case the monomial lies in the
ideal whenever the family is a regular sequence.  The walk runs on exponent
tuples through `BinomialFamily._move`, not on packed keys, since a single
monomial's exponents are unbounded, and `Monomial`s are built only for
outputs.  The last walk is cached, so reduce_monomial and certificate on the
same (monomial, k) share one walk.

Every reduction, under any cutoff k, can be certified by a relation that
expands to zero symbolically.  certificate_residual expands a given
certificate on the packed int keys of `keys`: each key holds the x exponents
and the 2n symbol exponents, and each step costs one pack and two int adds.
It reads only the certificate, never the walk, so it checks an arbitrary
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import algebra
from .algebra import CoeffMonomial, Monomial, SparsePoly, group_flat_terms
from .family import BinomialFamily
from .keys import _lane_bytes, _nonzero, _pack, _pack_all

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


@lru_cache(maxsize=1)
def _walk(family: BinomialFamily, exps: tuple[int, ...], k: int, budget: int):
    """Follow edges with labels <= k from exps until a basis monomial or a
    repeat, one `family._move` per step on exponent tuples.

    Returns (exponent tuples, labels, stop_kind); for a cycle stop the last
    tuple is the second visit of the cycle entry.  A walk longer than budget
    steps (callers pass `algebra.MONOMIAL_BUDGET`) raises ValueError.  The
    last walk is cached, so reduce_monomial and certificate on the same
    request walk once; the returned lists are shared and must not be
    mutated.  The one entry keeps at most one walk alive, and
    MONOMIAL_BUDGET bounds its length.
    """
    n = family.n
    if not 1 <= k <= n:
        raise ValueError(f"cutoff must lie in 1..{n}")
    if len(exps) != n:
        raise ValueError(f"monomial {Monomial._raw(exps)} does not have {n} variables")
    move = family._move
    states = [exps]
    labels: list[int] = []
    seen = {exps}
    while True:
        step = move(exps, k)
        if step is None:
            return states, labels, TO_BASIS
        if len(labels) == budget:
            raise ValueError(f"the rewriting walk from {Monomial._raw(states[0])} exceeds the budget of {budget} steps")
        label, exps = step
        labels.append(label)
        states.append(exps)
        if exps in seen:
            return states, labels, TO_CYCLE
        seen.add(exps)


def _label_counts(n: int, labels: list[int]) -> tuple[int, ...]:
    counts = [0] * n
    for lab in labels:
        counts[lab - 1] += 1
    return tuple(counts)


def reduce_monomial(family: BinomialFamily, m: Monomial, k: int | None = None) -> ReductionOutcome:
    """Reduce m along the reduction edges with labels <= k (default n)."""
    k = family.n if k is None else k
    states, labels, kind = _walk(family, m.exponents, k, algebra.MONOMIAL_BUDGET)
    r = _label_counts(family.n, labels)
    end = Monomial._raw(states[-1])
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
        value = c * outcome.coeff.evaluate(family.a_values, family.b_values)
        key = outcome.basis_monomial
        total = acc.get(key, Fraction(0)) + value
        if total:
            acc[key] = total
        elif key in acc:
            del acc[key]
    return PolyReduction(acc, conditional)


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
    """

    kind: str
    input: Monomial
    a_product: CoeffMonomial
    steps: tuple[CertificateStep, ...]
    rhs_coeff: CoeffMonomial
    rhs_monomial: Monomial


def certificate(family: BinomialFamily, m: Monomial, k: int | None = None) -> Certificate:
    """The relation of reduce_monomial(family, m, k): the same walk along the
    edges with labels <= k (default n), so kind and rhs match its outcome."""
    states, labels, kind = _walk(family, m.exponents, family.n if k is None else k, algebra.MONOMIAL_BUDGET)
    n = family.n
    r = _label_counts(n, labels)
    zero = (0,) * n
    one = Fraction(1)
    a_product = CoeffMonomial(one, r, zero)
    rhs_coeff = CoeffMonomial(one, zero, r)
    degrees = family.degrees
    steps = []
    before = [0] * n  # label counts of the steps already taken
    after = list(r)  # label counts of the steps after this one
    for exps, label in zip(states, labels):
        after[label - 1] -= 1
        scale = CoeffMonomial._raw(one, tuple(after), tuple(before))
        multiplier = list(exps)  # the previous vertex over x_i^{d_i}
        multiplier[label - 1] -= degrees[label - 1]
        steps.append(CertificateStep(label, Monomial._raw(tuple(multiplier)), scale))
        before[label - 1] += 1
    return Certificate(kind, m, a_product, tuple(steps), rhs_coeff, Monomial._raw(states[-1]))


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


def certificate_residual(family: BinomialFamily, cert: Certificate) -> dict[Monomial, SparsePoly]:
    """Symbolic expansion of the certificate identity; empty means it holds.

    Every coefficient is a coefficient monomial, so each term of the identity
    is one flat term (x exponents, symbol exponents) -> rational: the input
    and rhs terms, and per step -p_s*a_i at mult_s*x_i^{d_i} and +p_s*b_i at
    mult_s*tail_i.  The terms live on packed int keys (`keys._pack`) in
    `keys._lane_bytes` lanes for the largest exponent present, so each step is
    one pack of mult_s and p_s plus two int adds of the precomputed keys of
    x_i^{d_i}*a_i and tail_i*b_i.  Every exponent is checked before any key is
    built, since a negative lane would borrow from its neighbour.
    """
    n = family.n
    first = _lanes(n, cert.input, cert.a_product)
    last = _lanes(n, cert.rhs_monomial, cert.rhs_coeff)
    top = max(*family.degrees, *first, *last)  # d_i >= 1 bounds tail_i's exponents
    rows = []
    for step in cert.steps:
        i = step.gen_index
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range 1..{n}")
        lanes = _lanes(n, step.multiplier, step.scale)
        top = max(top, max(lanes))
        rows.append((i - 1, lanes, _rational(step.scale.scalar)))
    nb = _lane_bytes(top)
    zero = (0,) * n
    leads, tails = [], []
    for i, (d, tail) in enumerate(zip(family.degrees, family.tails)):
        unit = zero[:i] + (1,) + zero[i + 1 :]
        leads.append(_pack(tuple(d * u for u in unit) + unit + zero, nb))  # x_i^{d_i} * a_i
        tails.append(_pack(tail.exponents + zero + unit, nb))
    acc = {_pack(first, nb): _rational(cert.a_product.scalar)}
    get = acc.get
    for (i, _, q), p in zip(rows, _pack_all([lanes for _, lanes, _ in rows], 3 * n, nb)):
        key = p + leads[i]
        acc[key] = get(key, 0) - q
        key = p + tails[i]
        acc[key] = get(key, 0) + q
    key = _pack(last, nb)
    acc[key] = get(key, 0) - _rational(cert.rhs_coeff.scalar)
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
