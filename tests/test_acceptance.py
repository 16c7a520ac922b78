"""Acceptance suite: exact golden values plus the property/oracle checks.

Every criterion prints one pass/fail line; all comparisons are exact (no
floating point anywhere), so the stated tolerance is equality.
"""

import math
import random
import time
from fractions import Fraction

from binomial_ci import (
    CONTRACTION,
    DIFFERENTIATION,
    CoeffAssignment,
    CoeffMonomial,
    SparsePoly,
    basis_check,
    build_graph,
    certificate,
    check_certificate,
    ci_reference,
    det_numeric_oracle,
    det_structural,
    dual_generator,
    graph_cycle_polynomial,
    hilbert_function,
    ideal_membership,
    inverse_system_dims,
    is_complete_intersection,
    m_spans_ann_quotient,
    monomials_of_degree,
    multinomial,
    parse_monomial,
    poly_divides,
    radical_of_cycle_product,
    reduce_monomial,
    resultant_radical,
    specialize,
    verify_annihilation,
)
from binomial_ci.catalog import (
    five_var_pentagon,
    five_var_pentagon_alt,
    pentagon_dual_form,
    pentagon_dual_form_at,
    three_var_chain,
    three_var_double_cycle,
    wlp_failure_form,
)
from binomial_ci.lefschetz import monomial_basis
from binomial_ci.reference import hessian
from binomial_ci.rewrite import TO_BASIS, TO_CYCLE

from conftest import random_nonzero


def report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def sym(n, name):
    block, i = name[0], int(name[1:])
    return SparsePoly.symbol_a(n, i) if block == "a" else SparsePoly.symbol_b(n, i)


def cycle_factor():
    return sym(3, "a2") * sym(3, "a3") - sym(3, "b2") * sym(3, "b3")


def test_criterion_01_cycle_polynomial_and_radical():
    fam = three_var_double_cycle()
    graph = build_graph(fam, 4)
    ok = graph_cycle_polynomial(graph) == cycle_factor() ** 2
    ok = ok and radical_of_cycle_product(graph) == [cycle_factor()]
    report(1, "degree-4 cycle polynomial is (a2*a3 - b2*b3)^2 with radical a2*a3 - b2*b3", ok)


def test_criterion_02_structural_determinant_vs_oracle():
    fam = three_var_double_cycle()
    det = det_structural(fam)
    expected = SparsePoly.monomial(3, (6, 3, 2), (0, 0, 0)) * cycle_factor() ** 2
    ok = det == expected
    rng = random.Random(2024)
    for _ in range(20):
        a = [random_nonzero(rng, 50) for _ in range(3)]
        b = [Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(3)]
        numeric = specialize(fam, CoeffAssignment(tuple(a), tuple(b)))
        ok = ok and det_numeric_oracle(numeric) == det.evaluate(a, b)
    report(2, "determinant a1^6*a2^3*a3^2*(a2*a3 - b2*b3)^2 matches the oracle at 20 points", ok)


def test_criterion_03_resultant_radical():
    result = resultant_radical(three_var_double_cycle())
    expected = sym(3, "a1") * sym(3, "a2") * sym(3, "a3") * cycle_factor()
    ok = result.product == expected and result.all_certain
    report(3, "resultant radical is a1*a2*a3*(a2*a3 - b2*b3) with every exponent certain", ok)


def test_criterion_04_reduction_with_certificate():
    fam = three_var_chain()
    m = parse_monomial("x1^2*x2", 3)
    out = reduce_monomial(fam, m)
    ok = (
        out.kind == TO_BASIS
        and out.basis_monomial == parse_monomial("x1*x2*x3", 3)
        and out.coeff == CoeffMonomial(Fraction(1), (-2, -1, 0), (2, 1, 0))
    )
    ok = ok and check_certificate(fam, certificate(fam, m))
    report(4, "x1^2*x2 reduces to (b1^2*b2/(a1^2*a2))*x1*x2*x3 with a zero-expanding certificate", ok)


GOLDEN_DUAL = {
    (3, 0, 0): ((0, 1, 0), (2, 0, 1)),
    (2, 0, 1): ((1, 1, 0), (1, 0, 1)),
    (2, 1, 0): ((1, 1, 1), (1, 0, 0)),
    (1, 0, 2): ((2, 1, 0), (0, 0, 1)),
    (1, 2, 0): ((2, 0, 1), (0, 1, 0)),
    (1, 1, 1): ((2, 1, 1), (0, 0, 0)),
}


def test_criterion_05_dual_generators_term_for_term():
    fam = three_var_double_cycle()
    ok = True
    for convention in (CONTRACTION, DIFFERENTIATION):
        dual = dual_generator(fam, convention)
        expected = {}
        for alpha, (a_exp, b_exp) in GOLDEN_DUAL.items():
            scalar = multinomial(3, alpha) if convention == DIFFERENTIATION else 1
            expected[alpha] = CoeffMonomial(Fraction(scalar), a_exp, b_exp)
        ok = ok and dict(dual.coeffs) == expected
        ok = ok and verify_annihilation(fam, dual, convention).ok
    report(5, "dual generator matches both displayed forms and annihilates symbolically", ok)


def test_criterion_06_zero_tail_collapse():
    fam = three_var_double_cycle()
    zeroed = specialize(fam, CoeffAssignment((None,) * 3, (Fraction(0),) * 3))
    dual_terms = dual_generator(zeroed, CONTRACTION).sparse_terms()
    ok = set(dual_terms) == {(1, 1, 1)}
    ok = ok and dual_terms[(1, 1, 1)] == SparsePoly.monomial(3, (2, 1, 1), (0, 0, 0))
    g_sym, g_zero = build_graph(fam, 4), build_graph(zeroed, 4)
    ok = ok and g_sym.succ == g_zero.succ and g_sym.labels == g_zero.labels
    expected = sym(3, "a1") * sym(3, "a2") * sym(3, "a3")
    ok = ok and resultant_radical(zeroed).product == expected
    report(6, "b = 0 collapses the dual to a^s*X1*X2*X3, keeps the graph, radical a1*a2*a3", ok)


def test_criterion_07_pentagon_families():
    start = time.monotonic()
    fam = five_var_pentagon()
    ok = verify_annihilation(fam, pentagon_dual_form(), DIFFERENTIATION).ok
    rng = random.Random(55)
    for _ in range(5):
        while True:
            b = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(5)]
            if math.prod(b) != 1:
                break
        numeric = specialize(fam, CoeffAssignment((None,) * 5, tuple(b)))
        ok = ok and hilbert_function(numeric, 6).values == (1, 5, 10, 10, 5, 1, 0)
        F = pentagon_dual_form_at(b)
        for k in (1, 2):
            basis = monomial_basis(F, k)
            ell = [Fraction(rng.randint(-100, 100)) for _ in range(5)]
            ok = ok and hessian(F, k, basis).rank_at(ell) == len(basis)
    alt = specialize(
        five_var_pentagon_alt(), CoeffAssignment((None,) * 5, (Fraction(1),) * 5)
    )
    F_alt = dual_generator(alt, CONTRACTION).evaluate()
    ok = ok and inverse_system_dims(F_alt, 5).values == (1, 5, 5, 5, 5, 1)
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 60
    report(7, f"pentagon Hilbert/annihilation/Hessians and special-locus dims ({elapsed:.1f}s)", ok)


def test_criterion_08_wlp_failure():
    F = wlp_failure_form()
    basis = monomial_basis(F, 2)
    matrix = hessian(F, 2, basis)
    rng = random.Random(77)
    ok = len(basis) == 10
    for _ in range(5):
        ell = [Fraction(rng.randint(-100, 100)) for _ in range(5)]
        ok = ok and matrix.rank_at(ell) < 10
    ok = ok and not m_spans_ann_quotient(five_var_pentagon(), F)
    report(8, "three-term quintic form: deficient second Hessian, squarefree set fails to span", ok)


def test_criterion_09_basis_property_suite(ci_corpus):
    start = time.monotonic()
    ok = len(ci_corpus) >= 25
    for fam in ci_corpus:
        ok = ok and basis_check(fam)
        top = fam.socle_degree + 1
        ok = ok and hilbert_function(fam, top).values == ci_reference(fam.degrees, top)
        for j in range(fam.socle_degree + 1):
            for m in monomials_of_degree(fam.n, j):
                out = reduce_monomial(fam, m)
                if out.kind == TO_CYCLE:
                    ok = ok and ideal_membership(fam, m)
        if not ok:
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 300
    report(9, f"25 random CI families: basis, reductions, h-vectors ({elapsed:.1f}s)", ok)


def test_criterion_10_divisibility_property(ci_corpus):
    ok = True
    for fam in ci_corpus:
        graph = build_graph(fam, fam.resultant_degree)
        radical = SparsePoly.one(fam.n)
        for factor in radical_of_cycle_product(graph):
            radical = radical * factor
        ok = ok and poly_divides(radical, det_structural(fam))
    report(10, "cycle-product radical divides the structural determinant on the corpus", ok)


def test_criterion_11_zero_set_agreement():
    fam = three_var_double_cycle()
    rng = random.Random(99)
    ok = True
    confirmed = 0
    while confirmed < 50:
        a = [random_nonzero(rng, 50) for _ in range(3)]
        b = [random_nonzero(rng, 50) for _ in range(3)]
        numeric = specialize(fam, CoeffAssignment(tuple(a), tuple(b)))
        value = resultant_radical(numeric).product
        if value.is_zero():
            continue
        confirmed += 1
        ok = ok and is_complete_intersection(numeric)
    for _ in range(10):
        a = [random_nonzero(rng, 50) for _ in range(3)]
        b1, b2 = random_nonzero(rng, 50), random_nonzero(rng, 50)
        b3 = a[1] * a[2] / b2
        numeric = specialize(fam, CoeffAssignment(tuple(a), (b1, b2, b3)))
        ok = ok and resultant_radical(numeric).product.is_zero()
        ok = ok and not is_complete_intersection(numeric)
    report(11, "radical nonzero at 50 points => CI; 10 points on the cycle variety => non-CI", ok)
