"""Cross-module invariants on randomly generated families (seeded, or drawn
by hypothesis with derandomize=True)."""

import random
from fractions import Fraction

import pytest

from binomial_ci import (
    CONTRACTION,
    CoeffAssignment,
    Monomial,
    SparsePoly,
    build_graph,
    certificate,
    check_certificate,
    det_numeric_oracle,
    det_structural,
    dual_generator,
    format_family,
    graph_cycle_polynomial,
    hilbert_function,
    inverse_system_dims,
    is_complete_intersection,
    m_spans_ann_quotient,
    monomials_of_degree,
    parse_family,
    poly_divides,
    radical_of_cycle_product,
    resultant_radical,
    specialize,
    verify_annihilation,
)

from conftest import family_strategy, greedy_differentiation_basis, random_family, random_nonzero


def test_structural_determinant_equals_oracle_everywhere():
    rng = random.Random(61)
    for _ in range(10):
        fam = random_family(rng, numeric=False, n_range=(2, 3))
        det = det_structural(fam)
        for _ in range(20):
            a = [random_nonzero(rng) for _ in range(fam.n)]
            b = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(fam.n)]
            numeric = specialize(fam, CoeffAssignment(tuple(a), tuple(b)))
            assert det_numeric_oracle(numeric) == det.evaluate(a, b)


def test_cycle_radical_divides_structural_determinant():
    rng = random.Random(62)
    for _ in range(12):
        fam = random_family(rng, numeric=False)
        graph = build_graph(fam, fam.resultant_degree)
        radical = SparsePoly.one(fam.n)
        for factor in radical_of_cycle_product(graph):
            radical = radical * factor
        assert poly_divides(radical, det_structural(fam))


def test_cycle_polynomial_divides_determinant_at_every_degree():
    rng = random.Random(63)
    for _ in range(8):
        fam = random_family(rng, numeric=False, n_range=(2, 3))
        det = det_structural(fam)
        graph = build_graph(fam, fam.resultant_degree)
        p = graph_cycle_polynomial(graph)
        if not p.is_constant():
            assert poly_divides(p, det)


def test_radical_zero_set_matches_oracle_on_random_families():
    rng = random.Random(64)
    checked = 0
    while checked < 12:
        fam = random_family(rng, n_range=(2, 3), max_degree=2)
        result = resultant_radical(fam, probe=True, rng=rng)
        if not all(e.status == "certain" for e in result.t):
            continue
        value = result.product
        assert value.is_constant()
        assert (value.constant_value() != 0) == is_complete_intersection(fam)
        checked += 1


def test_annihilation_holds_for_constructed_duals():
    rng = random.Random(65)
    for _ in range(6):
        fam = random_family(rng, numeric=False)
        dual = dual_generator(fam, CONTRACTION)
        assert verify_annihilation(fam, dual, CONTRACTION).ok


def test_gorenstein_duality_on_ci_families(ci_corpus):
    for fam in ci_corpus[:8]:
        top = fam.socle_degree
        F = dual_generator(fam, CONTRACTION).evaluate()
        assert inverse_system_dims(F, top).values == hilbert_function(fam, top).values


def test_cutoff_reduction_is_congruent_modulo_the_leading_generators():
    # with labels <= k the identity m = coeff*m' holds modulo (f_1, .., f_k)
    from binomial_ci import reduce_monomial
    from binomial_ci.linalg import RowSpace
    from binomial_ci.reference import macaulay_rows
    from binomial_ci.rewrite import TO_BASIS

    rng = random.Random(67)
    for _ in range(6):
        fam = random_family(rng, n_range=(2, 3), max_degree=2)
        for k in range(1, fam.n + 1):
            generators = [fam.generator_values(i) for i in range(1, k + 1)]
            for m in monomials_of_degree(fam.n, rng.randint(1, 3)):
                out = reduce_monomial(fam, m, k)
                if out.kind != TO_BASIS:
                    continue
                assert fam.in_basis(out.basis_monomial, k)
                columns = {
                    mm: c
                    for c, mm in enumerate(monomials_of_degree(fam.n, m.degree))
                }
                space = RowSpace()
                for row in macaulay_rows(fam.n, generators, m.degree):
                    space.add(row)
                value = out.coeff.evaluate(fam.a_values, fam.b_values)
                diff = {columns[m]: Fraction(1)}
                diff[columns[out.basis_monomial]] = (
                    diff.get(columns[out.basis_monomial], Fraction(0)) - value
                )
                assert space.contains(diff)


def test_spanning_is_coefficient_independent():
    # the avoided-power monomials span R/Ann(F) at CI and non-CI points alike
    rng = random.Random(66)
    done = 0
    while done < 6:
        fam = random_family(rng, n_range=(2, 3), max_degree=2)
        F = dual_generator(fam, CONTRACTION).evaluate()
        if not F:
            continue
        assert m_spans_ann_quotient(fam, F)
        done += 1


def test_hessian_kernel_matches_the_symbolic_oracle_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from math import factorial, prod

    from binomial_ci.lefschetz import _hessian, monomial_basis
    from binomial_ci.reference import HessianMatrix
    from binomial_ci.oracle import _integer_form

    @st.composite
    def cases(draw):
        n = draw(st.integers(min_value=1, max_value=4))
        degree = draw(st.integers(min_value=0, max_value=6))
        monomials = monomials_of_degree(n, degree)
        chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=8, unique=True))
        coeffs = st.integers(min_value=-9, max_value=9).filter(bool)
        F = {m: Fraction(draw(coeffs), draw(st.integers(min_value=1, max_value=5))) for m in chosen}
        k = draw(st.integers(min_value=0, max_value=degree // 2))
        ell = draw(st.lists(st.integers(min_value=-5, max_value=5), min_size=n, max_size=n))
        return F, k, ell

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cases())
    def check(case):
        F, k, ell = case
        terms, n, top = _integer_form(F)
        scaled = {alpha: c * prod(map(factorial, alpha)) for alpha, c in terms.items()}
        basis = monomial_basis(F, k)
        scale = factorial(top - 2 * k)
        expected = [[scale * v for v in row] for row in HessianMatrix(terms, k, basis).substitute(ell)]
        rows = _hessian((scaled, n, top), k, [g.exponents for g in basis], ell)
        assert [[row.get(j, 0) for j in range(len(basis))] for row in rows] == expected

    check()


def test_scaled_contraction_basis_matches_the_differentiation_rows_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from binomial_ci.lefschetz import monomial_basis
    from binomial_ci.linalg import rank_of
    from binomial_ci.reference import catalecticant_rows

    from math import prod

    from binomial_ci import multinomial

    @st.composite
    def forms(draw):
        # Sparse forms, and sums of one or two powers of linear forms, whose
        # differentiation ranks fall short of their contraction ranks.
        n = draw(st.integers(min_value=1, max_value=4))
        degree = draw(st.integers(min_value=0, max_value=7))
        monomials = monomials_of_degree(n, degree)
        coeffs = st.integers(min_value=-20, max_value=20).filter(bool)
        if draw(st.booleans()):
            chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=10, unique=True))
            return {m.exponents: draw(coeffs) for m in chosen}, degree
        F = {}
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            ell = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n))
            for m in monomials:
                c = multinomial(degree, m.exponents) * prod(v**e for v, e in zip(ell, m.exponents))
                F[m.exponents] = F.get(m.exponents, 0) + c
        F = {alpha: c for alpha, c in F.items() if c}
        hypothesis.assume(F)
        return F, degree

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(forms())
    def check(case):
        F, top = case
        dims = inverse_system_dims(F, top + 1).values
        for k in range(top + 2):
            assert monomial_basis(F, k) == greedy_differentiation_basis(F, k)
            assert dims[k] == rank_of(catalecticant_rows(F, k))

    check()


def test_drawn_families_round_trip_through_text_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(family_strategy(st))
    def check(fam):
        assert parse_family(format_family(fam)) == fam

    check()


def test_certificates_hold_on_drawn_families_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(family_strategy(st), st.randoms(use_true_random=False))
    def check(fam, rng):
        # seeded monomials of degree D+1 and D+2: each reduces to a basis
        # monomial or enters a cycle, and either way its certificate holds
        for degree in (fam.socle_degree + 1, fam.socle_degree + 2):
            for _ in range(3):
                cuts = sorted(rng.randint(0, degree) for _ in range(fam.n - 1))
                m = Monomial(tuple(hi - lo for lo, hi in zip((0, *cuts), (*cuts, degree))))
                assert check_certificate(fam, certificate(fam, m))

    check()
