import random
from fractions import Fraction
from math import factorial, prod

import pytest

from binomial_ci import (
    CoeffAssignment,
    DIFFERENTIATION,
    Monomial,
    dual_generator,
    hessian,
    inverse_system_dims,
    is_complete_intersection,
    lefschetz_rank,
    monomial_basis,
    monomials_of_degree,
    parse_family,
    slp_check,
    specialize,
)
from binomial_ci.catalog import pentagon_dual_form_at, wlp_failure_form
from binomial_ci.dual import numeric_form
from binomial_ci.lefschetz import _hessian
from binomial_ci.oracle import _integer_form
from binomial_ci.reference import HessianMatrix

from conftest import greedy_differentiation_basis, random_family, random_nonzero


def squarefree_product_form():
    # F = X1*X2*X3: the square of any variable annihilates it
    return {Monomial((1, 1, 1)): Fraction(1)}


class TestHessian:
    def test_squarefree_form_has_zero_diagonal(self):
        F = squarefree_product_form()
        basis = [Monomial((1, 0, 0)), Monomial((0, 1, 0)), Monomial((0, 0, 1))]
        matrix = hessian(F, 1, basis)
        for i in range(3):
            assert matrix.entries[i][i] == {}
            for j in range(3):
                if i != j:
                    assert len(matrix.entries[i][j]) == 1
        assert matrix.rank_at([Fraction(1), Fraction(2), Fraction(3)]) == 3

    def test_entries_symmetric_and_diagonal_is_square_action(self):
        rng = random.Random(51)
        F = pentagon_dual_form_at([Fraction(rng.randint(2, 9)) for _ in range(5)])
        basis = monomial_basis(F, 2)
        matrix = hessian(F, 2, basis)
        for i in range(len(basis)):
            for j in range(len(basis)):
                assert matrix.entries[i][j] == matrix.entries[j][i]

    def test_dependent_basis_rejected(self):
        F = squarefree_product_form()
        with pytest.raises(ValueError, match="dependent"):
            hessian(F, 1, [Monomial((1, 0, 0)), Monomial((1, 0, 0))])

    def test_hessian_order_limited_by_socle_degree(self):
        with pytest.raises(ValueError, match="socle"):
            hessian(squarefree_product_form(), 2, [Monomial((2, 0, 0))])

    def test_wrong_degree_basis_rejected(self):
        F = squarefree_product_form()
        with pytest.raises(ValueError, match="degree"):
            hessian(F, 1, [Monomial((2, 0, 0))])

    def test_rank_never_exceeds_dimensions(self):
        rng = random.Random(52)
        F = pentagon_dual_form_at([Fraction(rng.randint(2, 9)) for _ in range(5)])
        for k in (1, 2):
            basis = monomial_basis(F, k)
            matrix = hessian(F, k, basis)
            ell = [Fraction(rng.randint(-100, 100)) for _ in range(5)]
            assert matrix.rank_at(ell) <= min(len(basis), len(monomial_basis(F, 5 - k)))


class TestLefschetzRank:
    def test_rank_one_at_order_zero(self):
        F = {Monomial((4, 0)): Fraction(1)}
        assert lefschetz_rank(F, 0, [Fraction(1), Fraction(1)]) == 1

    def test_pentagon_full_ranks(self):
        rng = random.Random(53)
        for _ in range(3):
            b = [Fraction(rng.randint(2, 9), rng.randint(1, 3)) for _ in range(5)]
            F = pentagon_dual_form_at(b)
            ell = [Fraction(rng.randint(-100, 100)) for _ in range(5)]
            assert lefschetz_rank(F, 1, ell) == 5
            assert lefschetz_rank(F, 2, ell) == 10

    def test_wlp_failure_is_rank_deficient_for_every_ell(self):
        F = wlp_failure_form()
        rng = random.Random(54)
        assert len(monomial_basis(F, 2)) == 10
        for _ in range(5):
            ell = [Fraction(rng.randint(-100, 100)) for _ in range(5)]
            assert lefschetz_rank(F, 2, ell) < 10


class TestSlpCheck:
    def test_pentagon_has_slp(self):
        rng = random.Random(55)
        b = [Fraction(rng.randint(2, 9)) for _ in range(5)]
        verdicts = slp_check(pentagon_dual_form_at(b), trials=4, rng=random.Random(1))
        assert [v.k for v in verdicts] == [0, 1, 2]
        assert all(v.status == "holds" for v in verdicts)
        assert all(v.maximal for v in slp_check(pentagon_dual_form_at(b), trials=4, rng=random.Random(1)))

    def test_wlp_failure_detected_at_k2(self):
        verdicts = slp_check(wlp_failure_form(), trials=4, rng=random.Random(2))
        by_k = {v.k: v for v in verdicts}
        assert by_k[2].status == "probably fails"
        assert by_k[2].rank < 10

    def test_monomial_ci_dual_has_slp(self):
        # b = 0 collapses the dual to a single monomial; check a 3-variable case
        fam = parse_family(
            "f1 = a1*x1^3 - 0*x1^2*x2 ; f2 = a2*x2^2 - 0*x1*x2 ; f3 = a3*x3^2 - 0*x2*x3"
        )
        numeric = specialize(
            fam, CoeffAssignment.of(3, a1=1, a2=1, a3=1, b1=0, b2=0, b3=0)
        )
        F = dual_generator(numeric, DIFFERENTIATION).evaluate()
        assert list(F) == [(2, 1, 1)]
        assert all(v.maximal for v in slp_check(F, trials=4, rng=random.Random(3)))

    def test_monomial_ci_dual_has_slp_four_variables(self):
        F = {Monomial((2, 1, 1, 1)): Fraction(1)}
        assert all(v.maximal for v in slp_check(F, trials=4, rng=random.Random(5)))

    def test_verdict_json(self):
        verdicts = slp_check(squarefree_product_form(), trials=2, rng=random.Random(4))
        data = verdicts[1].to_json()
        assert data["k"] == 1
        assert data["basis_size"] == 3
        assert data["verdict"] == "holds"
        assert len(data["ell"]) == 3


def gorenstein_cases():
    """wlp_failure_form, sparse random forms, and duals of random families."""
    rng = random.Random(71)
    forms = [wlp_failure_form()]
    for _ in range(8):
        monomials = monomials_of_degree(rng.randint(2, 4), rng.randint(1, 5))
        chosen = rng.sample(monomials, min(len(monomials), rng.randint(1, 6)))
        forms.append({m: random_nonzero(rng) for m in chosen})
    for _ in range(6):
        family = random_family(rng, n_range=(2, 3))
        forms.append(dual_generator(family, DIFFERENTIATION).evaluate())
    return forms


def test_target_size_is_the_high_degree_dimension():
    for F in gorenstein_cases():
        _, _, top = numeric_form(F)
        for v in slp_check(F, trials=1, rng=random.Random(5)):
            basis = monomial_basis(F, v.k)
            assert len(monomial_basis(F, top - v.k)) == len(basis) == v.target_size


def test_basis_matches_a_greedy_pass_over_the_differentiation_rows():
    from binomial_ci.linalg import rank_of
    from binomial_ci.reference import catalecticant_rows

    rng = random.Random(73)
    forms = gorenstein_cases() + [
        squarefree_product_form(),
        pentagon_dual_form_at([Fraction(rng.randint(2, 9), rng.randint(1, 3)) for _ in range(5)]),
    ]
    for F in forms:
        _, n, top = numeric_form(F)
        dims = inverse_system_dims(F, top).values
        for k in range(top + 1):
            assert monomial_basis(F, k) == greedy_differentiation_basis(F, k)
            assert dims[k] == rank_of(catalecticant_rows(F, k))


def test_slp_check_eliminates_only_up_to_half_the_socle_degree(monkeypatch):
    import binomial_ci.oracle as oracle

    degrees = []
    real = oracle._catalecticant_rows

    def counting(terms, n, top, degree):
        degrees.append(degree)
        return real(terms, n, top, degree)

    oracle._contraction_basis.cache_clear()
    monkeypatch.setattr(oracle, "_catalecticant_rows", counting)
    slp_check(wlp_failure_form(), trials=2, rng=random.Random(3))  # socle degree 5
    assert degrees == [0, 1, 2]
    slp_check(wlp_failure_form(), trials=2, rng=random.Random(4))
    assert degrees == [0, 1, 2]  # a repeated call reads the cached bases


def test_lefschetz_oracles_normalize_the_form_once(monkeypatch):
    import binomial_ci.oracle as oracle

    calls = []

    def counting(F):
        calls.append(F)
        return numeric_form(F)

    monkeypatch.setattr(oracle, "numeric_form", counting)
    F = wlp_failure_form()
    slp_check(F, trials=1)
    assert len(calls) == 1
    calls.clear()
    lefschetz_rank(F, 1, [1, 2, 3, 4, 5])
    assert len(calls) == 1


class TestPointValidation:
    def test_float_point_is_rejected(self):
        F = squarefree_product_form()
        with pytest.raises(TypeError):
            lefschetz_rank(F, 1, [0.1, 0.2, 0.3])
        with pytest.raises(TypeError):
            hessian(F, 1, monomial_basis(F, 1)).substitute([1, 2, 0.5])

    def test_wrong_length_point_is_rejected(self):
        F = squarefree_product_form()
        with pytest.raises(ValueError, match="one value per variable"):
            lefschetz_rank(F, 1, [1, 2])
        with pytest.raises(ValueError, match="one value per variable"):
            hessian(F, 1, monomial_basis(F, 1)).rank_at([1, 2, 3, 4])

    def test_exact_non_integer_points_are_accepted(self):
        F = pentagon_dual_form_at([Fraction(2), Fraction(3), Fraction(5), Fraction(7), Fraction(11)])
        ell = [Fraction(1, 2), "-2/3", 3, Fraction(0), Fraction(5, 7)]
        for k in (0, 1, 2):
            oracle = hessian(F, k, monomial_basis(F, k)).rank_at(ell)
            assert lefschetz_rank(F, k, ell) == oracle

    def test_hessian_order_above_half_the_socle_degree_is_rejected(self):
        with pytest.raises(ValueError, match="socle"):
            lefschetz_rank(squarefree_product_form(), 2, [1, 1, 1])


@pytest.mark.parametrize("trials", [0, -5])
def test_nonpositive_trials_are_rejected(trials):
    with pytest.raises(ValueError, match="trials"):
        slp_check(squarefree_product_form(), trials=trials)


def kernel_cases():
    """Catalog forms and seeded duals of random CI families with 3-5 variables."""
    rng = random.Random(91)
    forms = [
        squarefree_product_form(),
        wlp_failure_form(),
        pentagon_dual_form_at([Fraction(rng.randint(2, 9), rng.randint(1, 3)) for _ in range(5)]),
    ]
    while len(forms) < 9:
        family = random_family(rng, n_range=(3, 5), max_degree=3)
        if is_complete_intersection(family) and family.socle_degree <= 7:
            forms.append(dual_generator(family, DIFFERENTIATION).evaluate())
    return forms


def dense(rows, size):
    return [[row.get(j, 0) for j in range(size)] for row in rows]


def test_hessian_kernel_matches_the_symbolic_oracle():
    rng = random.Random(92)
    for F in kernel_cases():
        terms, n, top = _integer_form(F)
        # the alpha!-scaled form, not divided by the gcd of its coefficients
        scaled = {alpha: c * prod(map(factorial, alpha)) for alpha, c in terms.items()}
        for k in range(top // 2 + 1):
            basis = monomial_basis(F, k)
            oracle = HessianMatrix(terms, k, basis)
            scale = factorial(top - 2 * k)
            points = [
                [rng.randint(-9, 9) for _ in range(n)],
                [0] * (n - 1) + [rng.randint(1, 9)],
                [rng.choice((0, rng.randint(-9, 9))) for _ in range(n)],
                [0] * n,
            ]
            for ell in points:
                expected = [[scale * v for v in row] for row in oracle.substitute(ell)]
                got = _hessian((scaled, n, top), k, [g.exponents for g in basis], ell)
                assert dense(got, len(basis)) == expected


def slp_by_oracle(F, trials, rng):
    """slp_check's verdicts from the symbolic Hessians, trial by trial."""
    _, n, top = numeric_form(F)
    out = []
    for k in range(top // 2 + 1):
        basis = monomial_basis(F, k)
        matrix = HessianMatrix(F, k, basis)
        best = (-1, ())
        for _ in range(trials):
            ell = tuple(Fraction(rng.randint(-100, 100)) for _ in range(n))
            rank = matrix.rank_at(ell)
            if rank > best[0]:
                best = (rank, ell)
            if rank == len(basis):
                break
        out.append((k, len(basis), best[0], best[0] == len(basis), best[1]))
    return out


def test_slp_check_matches_a_loop_over_the_symbolic_hessians():
    statuses = set()
    for seed, F in enumerate(kernel_cases()):
        verdicts = slp_check(F, trials=3, rng=random.Random(seed))
        got = [(v.k, v.basis_size, v.rank, v.maximal, v.ell) for v in verdicts]
        assert got == slp_by_oracle(F, 3, random.Random(seed))
        statuses.update(v.status for v in verdicts)
    assert statuses == {"holds", "probably fails"}
