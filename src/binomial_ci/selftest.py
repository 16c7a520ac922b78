"""The paper's claims, checked on its worked examples.

Each check recomputes a known exact value on a built-in family (graph
shapes, cycle polynomials, reduction coefficients and certificates, the s
vector, dual generators and their annihilation, determinants, radicals,
Hilbert functions, Hessian ranks, complete-intersection points) and
compares for exact equality.  The checks of each fast path against a
second implementation, most of them `binomial_ci.reference`, are in the
tests.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

from . import catalog
from .algebra import CoeffMonomial, SparsePoly, multinomial, poly_divides
from .dual import CONTRACTION, DIFFERENTIATION, dual_generator, s_vector, verify_annihilation
from .family import CoeffAssignment, parse_monomial, specialize
from .graph import build_graph, graph_cycle_polynomial
from .lefschetz import monomial_basis
from .oracle import basis_check, hilbert_function, inverse_system_dims, is_complete_intersection, m_spans_ann_quotient
from .reference import hessian
from .resultant import det_numeric_oracle, det_structural, radical_of_cycle_product, resultant_radical
from .rewrite import TO_CYCLE, certificate, certificate_residual, check_certificate, reduce_monomial, reduce_polynomial


def _sym_binomial(n: int, i: int, j: int) -> SparsePoly:
    return SparsePoly.symbol_a(n, i) * SparsePoly.symbol_a(n, j) - SparsePoly.symbol_b(
        n, i
    ) * SparsePoly.symbol_b(n, j)


def _check_double_cycle_graph() -> bool:
    fam = catalog.three_var_double_cycle()
    g = build_graph(fam, 4)
    return (
        len(g.vertices) == 15
        and len(g.sinks()) == 0
        and len(g.cycles) == 2
        and all(c.label_counts == (0, 1, 1) for c in g.cycles)
    )


def _check_cycle_polynomial() -> bool:
    fam = catalog.three_var_double_cycle()
    g = build_graph(fam, 4)
    expected = _sym_binomial(3, 2, 3) ** 2
    radical = radical_of_cycle_product(g)
    return graph_cycle_polynomial(g) == expected and radical == [_sym_binomial(3, 2, 3)]


def _check_chain_graph() -> bool:
    fam = catalog.three_var_chain()
    g = build_graph(fam, 3)
    sink = parse_monomial("x1*x2*x3", 3)
    if len(g.vertices) != 10 or g.cycles or g.sinks() != [sink]:
        return False
    for m in g.vertices:
        out = reduce_monomial(fam, m)
        if out.kind == TO_CYCLE or out.basis_monomial != sink:
            return False
    return True


def _check_chain_reduction() -> bool:
    fam = catalog.three_var_chain()
    out = reduce_monomial(fam, parse_monomial("x1^2*x2", 3))
    expected = CoeffMonomial(Fraction(1), (-2, -1, 0), (2, 1, 0))
    if not (
        out.kind == "basis"
        and out.basis_monomial == parse_monomial("x1*x2*x3", 3)
        and out.coeff == expected
        and out.path_labels == (1, 2, 1)
    ):
        return False
    ones = CoeffAssignment((Fraction(1),) * 3, (Fraction(1),) * 3)
    reduced = reduce_polynomial(
        specialize(fam, ones), {parse_monomial("x1^2*x2", 3): Fraction(1)}
    )
    return reduced.terms == {parse_monomial("x1*x2*x3", 3): Fraction(1)}


def _check_certificates() -> bool:
    famA = catalog.three_var_double_cycle()
    famB = catalog.three_var_chain()
    for fam, text in ((famB, "x1^2*x2"), (famA, "x1*x2*x3^2"), (famA, "x2^2*x3^2")):
        cert = certificate(fam, parse_monomial(text, 3))
        # the check replays the walk; steps as a plain tuple keep no walk, so
        # their residual is the identity expanded term by term
        if not check_certificate(fam, cert) or certificate_residual(fam, dataclasses.replace(cert, steps=tuple(cert.steps))):
            return False
    out = reduce_monomial(famA, parse_monomial("x1*x2*x3^2", 3))
    return out.kind == TO_CYCLE


def _check_s_vector() -> bool:
    return s_vector(catalog.three_var_double_cycle()) == (2, 1, 1)


def _expected_dual_terms(differentiation: bool) -> dict[tuple[int, ...], CoeffMonomial]:
    data = {
        (3, 0, 0): ((0, 1, 0), (2, 0, 1)),
        (2, 0, 1): ((1, 1, 0), (1, 0, 1)),
        (2, 1, 0): ((1, 1, 1), (1, 0, 0)),
        (1, 0, 2): ((2, 1, 0), (0, 0, 1)),
        (1, 2, 0): ((2, 0, 1), (0, 1, 0)),
        (1, 1, 1): ((2, 1, 1), (0, 0, 0)),
    }
    out = {}
    for alpha, (a_exp, b_exp) in data.items():
        scalar = multinomial(3, alpha) if differentiation else 1
        out[alpha] = CoeffMonomial(Fraction(scalar), a_exp, b_exp)
    return out


def _check_dual_generators() -> bool:
    fam = catalog.three_var_double_cycle()
    contraction = dual_generator(fam, CONTRACTION)
    differentiation = dual_generator(fam, DIFFERENTIATION)
    return contraction.coeffs == _expected_dual_terms(False) and differentiation.coeffs == _expected_dual_terms(True)


def _check_annihilation() -> bool:
    fam = catalog.three_var_double_cycle()
    for convention in (CONTRACTION, DIFFERENTIATION):
        if not verify_annihilation(fam, dual_generator(fam, convention), convention).ok:
            return False
    return True


def _check_structural_determinant() -> bool:
    fam = catalog.three_var_double_cycle()
    expected = SparsePoly.monomial(3, (6, 3, 2), (0, 0, 0)) * _sym_binomial(3, 2, 3) ** 2
    det = det_structural(fam)
    if det != expected:
        return False
    rng = random.Random(5)
    for _ in range(5):
        a = [Fraction(rng.randint(1, 9)) for _ in range(3)]
        b = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
        fn = specialize(fam, CoeffAssignment(tuple(a), tuple(b)))
        if det_numeric_oracle(fn) != det.evaluate(a, b):
            return False
    return poly_divides(_sym_binomial(3, 2, 3), det)


def _check_resultant_radical() -> bool:
    fam = catalog.three_var_double_cycle()
    result = resultant_radical(fam)
    a = [SparsePoly.symbol_a(3, i) for i in (1, 2, 3)]
    expected = a[0] * a[1] * a[2] * _sym_binomial(3, 2, 3)
    return result.product == expected and result.all_certain


def _check_zero_tail_collapse() -> bool:
    fam = catalog.three_var_double_cycle()
    zeroed = specialize(fam, CoeffAssignment((None,) * 3, (Fraction(0),) * 3))
    dual = dual_generator(zeroed, CONTRACTION)
    terms = dual.sparse_terms()
    if set(terms) != {(1, 1, 1)}:
        return False
    g_sym = build_graph(fam, 4)
    g_zero = build_graph(zeroed, 4)
    if g_sym.succ != g_zero.succ or g_sym.labels != g_zero.labels:
        return False
    expected = SparsePoly.symbol_a(3, 1) * SparsePoly.symbol_a(3, 2) * SparsePoly.symbol_a(3, 3)
    return resultant_radical(zeroed).product == expected


def _check_pentagon() -> bool:
    fam = catalog.five_var_pentagon()
    form = catalog.pentagon_dual_form()
    if not verify_annihilation(fam, form, DIFFERENTIATION).ok:
        return False
    rng = random.Random(23)
    b = [Fraction(rng.randint(2, 9), rng.randint(1, 9)) for _ in range(5)]
    prod = Fraction(1)
    for v in b:
        prod *= v
    if prod == 1:
        b[0] += 1
    numeric = specialize(fam, CoeffAssignment((None,) * 5, tuple(b)))
    if hilbert_function(numeric, 6).values != (1, 5, 10, 10, 5, 1, 0):
        return False
    radical = resultant_radical(fam)
    ones = [Fraction(1)] * 5
    b_sym = [SparsePoly.symbol_b(5, i) for i in range(1, 6)]
    expected = SparsePoly.one(5) - b_sym[0] * b_sym[1] * b_sym[2] * b_sym[3] * b_sym[4]
    if radical.product != expected:
        return False
    F = catalog.pentagon_dual_form_at(b)
    for k in (1, 2):
        basis = monomial_basis(F, k)
        matrix = hessian(F, k, basis)
        ell = [Fraction(rng.randint(-100, 100)) for _ in range(5)]
        if matrix.rank_at(ell) != len(basis):
            return False
    return True


def _check_pentagon_alt_dims() -> bool:
    fam = catalog.five_var_pentagon_alt()
    at_one = specialize(fam, CoeffAssignment((None,) * 5, (Fraction(1),) * 5))
    F = dual_generator(at_one, CONTRACTION).evaluate()
    if inverse_system_dims(F, 5).values != (1, 5, 5, 5, 5, 1):
        return False
    generic = specialize(
        fam, CoeffAssignment((None,) * 5, (Fraction(2), Fraction(1), Fraction(3), Fraction(1), Fraction(1)))
    )
    F_generic = dual_generator(generic, CONTRACTION).evaluate()
    return inverse_system_dims(F_generic, 5).values == (1, 5, 10, 10, 5, 1)


def _check_wlp_failure() -> bool:
    F = catalog.wlp_failure_form()
    if inverse_system_dims(F, 5).values != (1, 5, 10, 10, 5, 1):
        return False
    basis = monomial_basis(F, 2)
    if len(basis) != 10:
        return False
    matrix = hessian(F, 2, basis)
    rng = random.Random(31)
    for _ in range(5):
        ell = [Fraction(rng.randint(-100, 100)) for _ in range(5)]
        if matrix.rank_at(ell) >= 10:
            return False
    return not m_spans_ann_quotient(catalog.five_var_pentagon(), F)


def _check_ci_points() -> bool:
    fam = catalog.three_var_double_cycle()
    good = specialize(fam, CoeffAssignment.of(3, a1=1, a2=1, a3=1, b1=1, b2=1, b3=2))
    bad = specialize(fam, CoeffAssignment.of(3, a1=1, a2=1, a3=1, b1=1, b2=1, b3=1))
    if not is_complete_intersection(good) or is_complete_intersection(bad):
        return False
    if det_numeric_oracle(good) != 1 or det_numeric_oracle(bad) != 0:
        return False
    if not basis_check(good):
        return False
    # the avoided-power monomials span R/Ann(F) at CI and non-CI points alike
    for point in (good, bad):
        F = dual_generator(point, CONTRACTION).evaluate()
        if not m_spans_ann_quotient(point, F):
            return False
    return True


def _check_small_values() -> bool:
    return multinomial(3, (1, 1, 1)) == 6 and multinomial(3, (2, 1, 0)) == 3


CHECKS = [
    ("degree-4 double-cycle graph shape", _check_double_cycle_graph),
    ("cycle polynomial and its radical", _check_cycle_polynomial),
    ("degree-3 chain graph funnels to x1*x2*x3", _check_chain_graph),
    ("reduction of x1^2*x2 with coefficient b1^2*b2/(a1^2*a2)", _check_chain_reduction),
    ("reduction certificates expand to zero", _check_certificates),
    ("s vector of the double-cycle family", _check_s_vector),
    ("dual generators, both conventions, term for term", _check_dual_generators),
    ("symbolic annihilation of constructed duals", _check_annihilation),
    ("structural determinant vs numeric oracle", _check_structural_determinant),
    ("radical of the resultant", _check_resultant_radical),
    ("b = 0 collapse of dual and radical", _check_zero_tail_collapse),
    ("pentagon family: radical, Hilbert, annihilation, Hessians", _check_pentagon),
    ("alternate pentagon: inverse-system dims at the special locus", _check_pentagon_alt_dims),
    ("WLP failure form: deficient Hessian, spanning fails", _check_wlp_failure),
    ("complete-intersection test points", _check_ci_points),
    ("multinomial values", _check_small_values),
]


def run_selftest(write=print) -> int:
    """Run all golden checks; returns the number of failures."""
    failures = 0
    for name, check in CHECKS:
        try:
            ok = check()
        except Exception as exc:  # noqa: BLE001 - report, keep going
            ok = False
            write(f"FAIL {name}: {exc!r}")
            failures += 1
            continue
        if ok:
            write(f"ok   {name}")
        else:
            write(f"FAIL {name}")
            failures += 1
    write(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return failures
