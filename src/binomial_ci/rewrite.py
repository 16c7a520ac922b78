"""Monomial and polynomial reduction modulo a binomial family.

Following the reduction edges with labels <= k rewrites a monomial either to a
basis monomial (no exponent reaches its d_i for i <= k) with an exact
coefficient b^r/a^r, or into a cycle, in which case the monomial lies in the
ideal whenever the family is a regular sequence.  Every reduction, under any
cutoff k, can be certified by a relation that expands to zero symbolically;
certificate_residual expands it into one flat dict of (x exponents, symbol
exponents) -> rational terms, with no polynomial arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import CoeffMonomial, Monomial, SparsePoly, group_flat_terms
from .family import BinomialFamily

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


def _walk(family: BinomialFamily, m: Monomial, k: int):
    """Follow edges with labels <= k until a basis monomial or a repeat.

    Returns (monomials, labels, stop_kind); for a cycle stop the last monomial
    is the second visit of the cycle entry.
    """
    if not 1 <= k <= family.n:
        raise ValueError(f"cutoff must lie in 1..{family.n}")
    monomials = [m]
    labels: list[int] = []
    seen = {m}
    current = m
    while True:
        move = family.step(current, k)
        if move is None:
            return monomials, labels, TO_BASIS
        label, nxt = move
        labels.append(label)
        monomials.append(nxt)
        if nxt in seen:
            return monomials, labels, TO_CYCLE
        seen.add(nxt)
        current = nxt


def _label_counts(n: int, labels: list[int]) -> tuple[int, ...]:
    counts = [0] * n
    for lab in labels:
        counts[lab - 1] += 1
    return tuple(counts)


def reduce_monomial(family: BinomialFamily, m: Monomial, k: int | None = None) -> ReductionOutcome:
    """Reduce m along the reduction edges with labels <= k (default n)."""
    k = family.n if k is None else k
    monomials, labels, kind = _walk(family, m, k)
    r = _label_counts(family.n, labels)
    if kind == TO_BASIS:
        coeff = CoeffMonomial(Fraction(1), tuple(-e for e in r), r)
        return ReductionOutcome(
            TO_BASIS, tuple(labels), r, basis_monomial=monomials[-1], coeff=coeff
        )
    return ReductionOutcome(TO_CYCLE, tuple(labels), r, cycle_entry=monomials[-1])


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
    monomials, labels, kind = _walk(family, m, family.n if k is None else k)
    n = family.n
    r = _label_counts(n, labels)
    zero = (0,) * n
    one = Fraction(1)
    a_product = CoeffMonomial(one, r, zero)
    rhs_coeff = CoeffMonomial(one, zero, r)
    leads = [family.lead_monomial(i) for i in range(1, n + 1)]
    steps = []
    before = [0] * n  # label counts of the steps already taken
    for m_prev, label in zip(monomials, labels):
        after = [total - seen for total, seen in zip(r, before)]
        after[label - 1] -= 1
        scale = CoeffMonomial._raw(one, tuple(after), tuple(before))
        steps.append(CertificateStep(label, m_prev / leads[label - 1], scale))
        before[label - 1] += 1
    return Certificate(kind, m, a_product, tuple(steps), rhs_coeff, monomials[-1])


def certificate_residual(family: BinomialFamily, cert: Certificate) -> dict[Monomial, SparsePoly]:
    """Symbolic expansion of the certificate identity; empty means it holds.

    Every coefficient is a coefficient monomial, so each term of the identity
    is one flat term (x exponents, symbol exponents) -> rational: the input
    and rhs terms, and per step -p_s*a_i at mult_s*x_i^{d_i} and +p_s*b_i at
    mult_s*tail_i.
    """
    n = family.n
    acc: dict = {}

    def put(mono: Monomial, cm: CoeffMonomial, sign: int, slot: int | None = None) -> None:
        if cm.n != n:
            raise ValueError("polynomials live in different symbol counts")
        sym = cm.a_exp + cm.b_exp
        if min(sym) < 0:
            raise ValueError("Laurent exponents cannot be converted to a polynomial")
        if slot is not None:
            sym = sym[:slot] + (sym[slot] + 1,) + sym[slot + 1 :]
        q = cm.scalar
        key = (mono.exponents, sym)
        acc[key] = acc.get(key, 0) + sign * (q.numerator if q.denominator == 1 else q)

    leads = [family.lead_monomial(i) for i in range(1, n + 1)]
    put(cert.input, cert.a_product, 1)
    for step in cert.steps:
        i = step.gen_index
        put(step.multiplier * leads[i - 1], step.scale, -1, i - 1)
        put(step.multiplier * family.tails[i - 1], step.scale, 1, n + i - 1)
    put(cert.rhs_monomial, cert.rhs_coeff, -1)
    return {Monomial._raw(x): poly for x, poly in group_flat_terms(n, acc).items()}


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
