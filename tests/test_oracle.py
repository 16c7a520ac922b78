import random
from fractions import Fraction

import pytest

from binomial_ci import (
    CONTRACTION,
    DIFFERENTIATION,
    BinomialFamily,
    CoeffAssignment,
    Monomial,
    NotCompleteIntersectionError,
    basis_check,
    ci_reference,
    dual_generator,
    hilbert_function,
    ideal_membership,
    inverse_system_dims,
    is_complete_intersection,
    m_spans_ann_quotient,
    monomials_of_degree,
    parse_family,
    parse_monomial,
    reduce_monomial,
    specialize,
)
from binomial_ci.catalog import wlp_failure_form
from binomial_ci.linalg import rank_of
from binomial_ci.oracle import HilbertFunction
from binomial_ci.reference import catalecticant_rows, polynomial_in_ideal
from binomial_ci.rewrite import TO_BASIS

from conftest import random_family, random_nonzero


def unit_point(fam, b3=1):
    n = fam.n
    return specialize(
        fam,
        CoeffAssignment(
            tuple(Fraction(1) for _ in range(n)),
            tuple(Fraction(b3 if i == n - 1 else 1) for i in range(n)),
        ),
    )


class TestHilbertFunction:
    def test_monomial_family_two_squares(self):
        fam = parse_family("f1 = a1*x1^2 - 0*x1*x2 ; f2 = a2*x2^2 - 0*x1*x2")
        numeric = specialize(fam, CoeffAssignment.of(2, a1=1, a2=1, b1=0, b2=0))
        assert hilbert_function(numeric, 3).values == (1, 2, 1, 0)

    def test_pentagon_at_generic_b(self, pentagon):
        rng = random.Random(31)
        b = [Fraction(rng.randint(2, 9)) for _ in range(5)]
        numeric = specialize(pentagon, CoeffAssignment((None,) * 5, tuple(b)))
        assert hilbert_function(numeric, 6).values == (1, 5, 10, 10, 5, 1, 0)

    def test_non_ci_point_deviates(self, double_cycle):
        # a2*a3 - b2*b3 vanishes at the all-ones point, so degree 3 survives
        numeric = unit_point(double_cycle, b3=1)
        values = hilbert_function(numeric, 4).values
        assert values != (1, 3, 3, 1, 0)
        assert values == (1, 3, 3, 2, 2)  # regression fixture from the elimination

    def test_series_rendering(self):
        hf = HilbertFunction((1, 5, 10, 10, 5, 1, 0))
        assert hf.series_str() == "1 + 5t + 10t^2 + 10t^3 + 5t^4 + t^5"

    def test_requires_numeric(self, double_cycle):
        with pytest.raises(ValueError):
            hilbert_function(double_cycle, 2)


class TestCIReference:
    def test_two_quadrics(self):
        assert ci_reference((2, 2), 3) == (1, 2, 1, 0)

    def test_mixed_degrees(self):
        assert ci_reference((2, 3), 4) == (1, 2, 2, 1, 0)
        assert ci_reference((1, 2), 2) == (1, 1, 0)


class TestCompleteIntersection:
    def test_good_and_bad_points(self, double_cycle):
        assert is_complete_intersection(unit_point(double_cycle, b3=2))
        assert not is_complete_intersection(unit_point(double_cycle, b3=1))

    def test_monomial_family_always_ci(self):
        rng = random.Random(32)
        fam = random_family(rng, numeric=False)
        numeric = specialize(
            fam,
            CoeffAssignment(
                tuple(random_nonzero(rng) for _ in range(fam.n)),
                tuple(Fraction(0) for _ in range(fam.n)),
            ),
        )
        assert is_complete_intersection(numeric)

    def test_ci_hilbert_function_is_symmetric(self, ci_corpus):
        for fam in ci_corpus[:10]:
            top = fam.socle_degree
            values = hilbert_function(fam, top).values
            assert values == tuple(reversed(values))


class TestBasisCheck:
    def test_holds_on_ci_points(self, double_cycle, chain):
        assert basis_check(unit_point(double_cycle, b3=2))
        # the all-ones point kills the chain family's cycle factor, so move b3
        assert basis_check(unit_point(chain, b3=2))

    def test_degree_three_basis_of_chain_family(self, chain):
        numeric = unit_point(chain)
        assert numeric.basis_monomials(3) == [parse_monomial("x1*x2*x3", 3)]

    def test_rejects_non_ci_precondition(self, double_cycle):
        with pytest.raises(NotCompleteIntersectionError):
            basis_check(unit_point(double_cycle, b3=1))


class TestIdealMembership:
    def test_cycle_monomial_is_member(self, double_cycle):
        numeric = unit_point(double_cycle, b3=2)
        assert ideal_membership(numeric, parse_monomial("x2^2*x3^2", 3))

    def test_basis_monomials_are_not_members(self, ci_corpus):
        for fam in ci_corpus[:5]:
            for j in range(fam.socle_degree + 1):
                for m in fam.basis_monomials(j):
                    assert not ideal_membership(fam, m)

    def test_generators_are_members(self, ci_corpus):
        for fam in ci_corpus[:5]:
            for i in range(1, fam.n + 1):
                assert polynomial_in_ideal(fam, fam.generator_values(i))

    def test_reduction_agrees_with_elimination_normal_form(self, ci_corpus):
        # m - coeff*basis_monomial must lie in the ideal for basis reductions
        for fam in ci_corpus[:8]:
            for m in monomials_of_degree(fam.n, min(fam.socle_degree, 3)):
                out = reduce_monomial(fam, m)
                if out.kind != TO_BASIS:
                    continue
                value = out.coeff.evaluate(fam.a_values, fam.b_values)
                diff = {m: Fraction(1)}
                diff[out.basis_monomial] = diff.get(out.basis_monomial, Fraction(0)) - value
                assert polynomial_in_ideal(fam, diff)

    def test_string_coefficients_are_converted_at_the_boundary(self, ci_corpus):
        fam = ci_corpus[0]
        gen = fam.generator_values(1)
        as_strings = {m: f"{c.numerator}/{c.denominator}" for m, c in gen.items()}
        assert polynomial_in_ideal(fam, as_strings)
        halved = {m: c / 2 for m, c in gen.items()}
        assert polynomial_in_ideal(fam, {m: str(c) for m, c in halved.items()})
        with pytest.raises(TypeError):
            polynomial_in_ideal(fam, {m: float(c) for m, c in gen.items()})

    @pytest.mark.parametrize("exps", [(1, 1, 1), (3,), (0, 0, 0)])
    def test_wrong_variable_count_raises_value_error(self, loop2, exps):
        numeric = unit_point(loop2)
        m = Monomial(exps)
        with pytest.raises(ValueError, match="does not have 2 variables"):
            ideal_membership(numeric, m)
        with pytest.raises(ValueError, match="does not have 2 variables"):
            polynomial_in_ideal(numeric, {m: Fraction(1)})
        # one stray monomial among good ones, even with a zero coefficient
        with pytest.raises(ValueError, match="does not have 2 variables"):
            polynomial_in_ideal(numeric, {Monomial((1, 0)): Fraction(1), m: Fraction(0)})


class TestInverseSystem:
    def test_single_variable_powers(self):
        F = {Monomial((4, 0)): Fraction(1)}
        assert inverse_system_dims(F, 4).values == (1, 1, 1, 1, 1)

    def test_wlp_form_hilbert_function(self):
        assert inverse_system_dims(wlp_failure_form(), 5).values == (1, 5, 10, 10, 5, 1)

    def test_gorenstein_duality_with_family_hilbert_function(self, ci_corpus):
        for fam in ci_corpus[:6]:
            top = fam.socle_degree
            F = dual_generator(fam, CONTRACTION).evaluate()
            assert inverse_system_dims(F, top).values == hilbert_function(fam, top).values

    def test_beyond_socle_degree_is_zero(self):
        F = {Monomial((1, 1)): Fraction(1)}
        assert inverse_system_dims(F, 4).values == (1, 2, 1, 0, 0)


class TestSpanning:
    def test_spans_at_ci_point(self, double_cycle):
        numeric = unit_point(double_cycle, b3=2)
        F = dual_generator(numeric, CONTRACTION).evaluate()
        assert m_spans_ann_quotient(numeric, F)

    def test_spans_even_at_non_ci_point(self, double_cycle):
        numeric = unit_point(double_cycle, b3=1)
        F = dual_generator(numeric, CONTRACTION).evaluate()
        assert m_spans_ann_quotient(numeric, F)

    def test_arbitrary_form_can_fail(self, pentagon):
        assert not m_spans_ann_quotient(pentagon, wlp_failure_form())


def test_catalecticant_rows_rejects_unknown_convention():
    with pytest.raises(ValueError, match="convention"):
        catalecticant_rows(wlp_failure_form(), 1, convention="differentation")


def spans_by_two_ranks(family, F, top):
    """m_spans_ann_quotient by its definition: in every degree the
    avoided-power rows reach the rank of the whole catalecticant."""
    return all(
        rank_of(catalecticant_rows(F, j)) == rank_of(catalecticant_rows(F, j, family.basis_monomials(j)))
        for j in range(top + 1)
    )


def test_one_pass_spanning_matches_the_two_rank_definition(pentagon):
    rng = random.Random(83)
    # X1*..*X5 + X1^5 fails only in the middle pair of degrees (2, 3)
    cases = [(pentagon, wlp_failure_form(), 5), (pentagon, {(1, 1, 1, 1, 1): 1, (5, 0, 0, 0, 0): 1}, 5)]
    # degree 200 does not fit these cubics' one-byte lanes; B_2 lacks x2^2, so it spans A_2 only when x1^2 o F != 0
    wide = BinomialFamily.symbolic([200, 2], [Monomial((0, 200)), Monomial((2, 0))])
    cases += [(wide, {(1, 2): 1, (3, 0): 1}, 3), (wide, {(1, 2): 1}, 3)]
    for _ in range(10):
        family = random_family(rng, n_range=(2, 3))
        top = family.socle_degree
        cases.append((family, dual_generator(family, CONTRACTION).evaluate(), top))
        monomials = monomials_of_degree(family.n, top)
        chosen = rng.sample(monomials, min(len(monomials), rng.randint(1, 4)))
        cases.append((family, {m: random_nonzero(rng) for m in chosen}, top))
    outcomes = set()
    for family, F, top in cases:
        expected = spans_by_two_ranks(family, F, top)
        assert m_spans_ann_quotient(family, F) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "monomial, degree, message",
    [
        (Monomial((1, 0)), 1, "does not have 5 variables"),
        (Monomial((1, 0, 0, 0, 0, 0)), 1, "does not have 5 variables"),
        (Monomial((2, 0, 0, 0, 0)), 1, "does not have degree 1"),
    ],
    ids=["too-few-variables", "too-many-variables", "wrong-degree"],
)
def test_catalecticant_rows_checks_its_monomials(monomial, degree, message):
    with pytest.raises(ValueError, match=message) as info:
        catalecticant_rows(wlp_failure_form(), degree, [Monomial((0, 1, 0, 0, 0)), monomial])
    assert str(monomial) in str(info.value)


def random_exponents(rng, n, degree):
    """A random exponent vector of n entries summing to degree."""
    cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))


@pytest.mark.parametrize("n, top, nb", [(3, 70, 2), (2, 130, 2), (2, 16390, 4), (2, 20000, 4)])
def test_packed_rows_match_action_image_in_wide_lanes(n, top, nb):
    # The packed pairing on hand-picked gammas against the reference rows,
    # each built from the tuple-keyed action_image.
    from binomial_ci.keys import _lane_bytes, _pack_all, degree_keys
    from binomial_ci.oracle import _packed_form, _pairing

    assert _lane_bytes(top) == nb
    rng = random.Random(top)
    F = {random_exponents(rng, n, top): random_nonzero(rng) for _ in range(6)}
    packed, lanes = _packed_form(F, n, top)
    assert lanes == nb
    for degree in (0, 1, 2, rng.randint(3, top - 3), top - 1, top):
        # gammas below some term of F give nonzero rows; random ones mostly zero rows
        gammas = {random_exponents(rng, n, degree) for _ in range(4)}
        for alpha in F:
            rest = random_exponents(rng, n, top - degree)
            if all(a >= r for a, r in zip(alpha, rest)):
                gammas.add(tuple(a - r for a, r in zip(alpha, rest)))
        gammas = sorted(gammas)
        expected = catalecticant_rows(F, degree, [Monomial(g) for g in gammas])
        assert _pairing(packed, _pack_all(gammas, n, nb), degree_keys(n, top - degree, nb)[0]) == expected
        assert any(expected)


def test_half_degree_spanning_matches_the_two_rank_definition_off_the_socle_degree():
    # Forms of a degree other than the family's socle degree, so that the
    # avoided-power exponents of a degree can outnumber h_j or fall short.
    rng = random.Random(101)
    outcomes, more, fewer = set(), False, False
    for _ in range(40):
        family = random_family(rng, n_range=(2, 3))
        top = rng.choice([t for t in range(family.socle_degree + 4) if t != family.socle_degree])
        monomials = monomials_of_degree(family.n, top)
        chosen = rng.sample(monomials, min(len(monomials), rng.randint(1, 6)))
        F = {m: random_nonzero(rng) for m in chosen}
        expected = spans_by_two_ranks(family, F, top)
        assert m_spans_ann_quotient(family, F) == expected
        outcomes.add(expected)
        sizes = [len(family.basis_exponents(j)) for j in range(top + 1)]
        dims = inverse_system_dims(F, top).values
        more |= any(s > h for s, h in zip(sizes, dims))
        fewer |= any(s < h for s, h in zip(sizes, dims))
    assert outcomes == {True, False}
    assert more and fewer


def test_spanning_ranks_one_pairing_block_per_degree_up_to_half(monkeypatch, ci_corpus):
    import binomial_ci.oracle as oracle

    blocks = []
    real = oracle.rank_of

    def counting(rows):
        blocks.append(rows)
        return real(rows)

    monkeypatch.setattr(oracle, "rank_of", counting)
    for fam in ci_corpus[:6]:
        F = dual_generator(fam, CONTRACTION).evaluate()
        blocks.clear()
        assert m_spans_ann_quotient(fam, F)
        assert len(blocks) == fam.socle_degree // 2 + 1


class TestFormValidation:
    def test_float_coefficient_is_rejected(self):
        with pytest.raises(TypeError):
            inverse_system_dims({(2, 0): 0.1, (1, 1): 1}, 2)

    def test_mixed_width_keys_are_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            inverse_system_dims({(2, 0): 1, (1, 1, 0): 1}, 2)
        with pytest.raises(ValueError, match="entries"):
            inverse_system_dims({Monomial((2, 0)): 1, Monomial((1, 1, 0)): 1}, 2)

    def test_symbolic_coefficient_is_rejected(self):
        from binomial_ci import SparsePoly

        with pytest.raises(TypeError):
            inverse_system_dims({(2, 0): SparsePoly.symbol_a(2, 1)}, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: hilbert_function(unit_point(parse_family("f1 = a1*x1^2 - b1*x2^2 ; f2 = a2*x2^2 - b2*x1*x2")), -2),
        lambda: ci_reference((2, 2), -2),
        lambda: inverse_system_dims({(2, 0): 1}, -1),
    ],
    ids=["hilbert_function", "ci_reference", "inverse_system_dims"],
)
def test_negative_max_degree_is_rejected(call):
    with pytest.raises(ValueError, match="max degree must be nonnegative"):
        call()


def degenerate(family):
    """The family at b_i = a_i, where many cycle polynomials vanish."""
    return specialize(family, CoeffAssignment(family.a_values, family.a_values))


def test_one_rank_ci_test_matches_the_full_hilbert_function(ci_corpus):
    # is_complete_intersection reads h_{D+1} alone; the full-degree oracle
    # compares every degree through D+1 with the product series.
    rng = random.Random(61)
    randoms = [random_family(rng) for _ in range(30)]
    families = list(ci_corpus) + [degenerate(f) for f in ci_corpus + randoms] + randoms
    verdicts = set()
    for fam in families:
        top = fam.socle_degree + 1
        expected = hilbert_function(fam, top).values == ci_reference(fam.degrees, top)
        assert is_complete_intersection(fam) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_macaulay_rows_are_integer_and_span_the_fraction_rows():
    from binomial_ci.linalg import RowSpace
    from binomial_ci.reference import macaulay_rows

    rng = random.Random(71)
    for _ in range(8):
        fam = random_family(rng, n_range=(2, 3))
        generators = [fam.generator_values(i) for i in range(1, fam.n + 1)]
        for degree in range(fam.socle_degree + 2):
            columns = {m: c for c, m in enumerate(monomials_of_degree(fam.n, degree))}
            expected = []
            for gen in generators:
                shift = degree - max(m.degree for m in gen)
                if shift >= 0:
                    for beta in monomials_of_degree(fam.n, shift):
                        expected.append({columns[beta * m]: c for m, c in gen.items() if c})
            rows = macaulay_rows(fam.n, generators, degree)
            assert all(type(c) is int for row in rows for c in row.values())
            built, reference = RowSpace(), RowSpace()
            for row in rows:
                built.add(row)
            for row in expected:
                reference.add(row)
            assert built.rank == reference.rank
            assert all(built.contains(row) for row in expected)


@pytest.mark.parametrize("c", [Fraction(7, 3), Fraction(-5)])
def test_rank_callers_ignore_a_scalar_on_the_form(c, ci_corpus, pentagon):
    cases = [(fam, dual_generator(fam, CONTRACTION).evaluate(), fam.socle_degree) for fam in ci_corpus[:6]]
    cases.append((pentagon, wlp_failure_form(), 5))
    for fam, F, top in cases:
        scaled = {key: c * v for key, v in F.items()}
        assert inverse_system_dims(scaled, top) == inverse_system_dims(F, top)
        assert m_spans_ann_quotient(fam, scaled) == m_spans_ann_quotient(fam, F)


def random_forms(rng, count):
    """Seeded random homogeneous forms, dense and sparse, not built as duals."""
    forms = []
    for _ in range(count):
        n, degree = rng.randint(2, 4), rng.randint(0, 7)
        monomials = monomials_of_degree(n, degree)
        chosen = rng.sample(monomials, min(len(monomials), rng.randint(1, 12)))
        forms.append({m: random_nonzero(rng) for m in chosen})
    return forms


def test_mirrored_dims_match_the_rank_at_every_degree():
    from binomial_ci.oracle import _catalecticant_rows, _integer_form

    rng = random.Random(97)
    nonconstant = 0
    for F in random_forms(rng, 40) + [wlp_failure_form()]:
        form = _integer_form(F)
        top = form[2]
        expected = [rank_of(_catalecticant_rows(*form, j)) for j in range(top + 4)]
        for max_degree in {max(0, top // 2 - 1), max(0, top - 1), top, top + 3}:
            assert inverse_system_dims(F, max_degree).values == tuple(expected[: max_degree + 1])
        nonconstant += expected[1] != expected[top // 2]
    assert nonconstant  # not every case has a constant Hilbert function


def test_inverse_system_dims_eliminates_only_up_to_half_the_degree(monkeypatch):
    import binomial_ci.oracle as oracle

    degrees = []
    real = oracle._catalecticant_rows

    def counting(terms, n, top, degree):
        degrees.append(degree)
        return real(terms, n, top, degree)

    oracle._contraction_basis.cache_clear()
    monkeypatch.setattr(oracle, "_catalecticant_rows", counting)
    assert inverse_system_dims(wlp_failure_form(), 8).values == (1, 5, 10, 10, 5, 1, 0, 0, 0)
    assert degrees == [0, 1, 2]
    assert inverse_system_dims(wlp_failure_form(), 1).values == (1, 5)
    assert degrees == [0, 1, 2]  # a repeated call reads the cached bases


def test_one_catalecticant_elimination_per_degree_for_a_whole_verify_job(monkeypatch, ci_corpus):
    import binomial_ci.oracle as oracle
    from binomial_ci import slp_check

    full = []
    real = oracle._catalecticant_rows

    def counting(terms, n, top, degree):
        full.append(degree)
        return real(terms, n, top, degree)

    monkeypatch.setattr(oracle, "_catalecticant_rows", counting)
    families = [fam for fam in ci_corpus if fam.socle_degree >= 2][:4]
    assert families
    for fam in families:
        D = fam.socle_degree
        Fc = dual_generator(fam, CONTRACTION).evaluate()
        Fd = dual_generator(fam, DIFFERENTIATION).evaluate()
        oracle._contraction_basis.cache_clear()
        full.clear()
        inverse_system_dims(Fc, D)
        m_spans_ann_quotient(fam, Fc)
        slp_check(Fd, trials=1, rng=random.Random(0))
        assert full == list(range(D // 2 + 1))
        assert oracle._contraction_basis.cache_info().misses == D // 2 + 1


def spans_by_row_space(family, F):
    """The earlier one-elimination-per-degree routine: every catalecticant row
    of a monomial outside the avoided-power set lies in the span of the
    avoided-power rows."""
    from binomial_ci.linalg import RowSpace
    from binomial_ci.oracle import _catalecticant_rows, _integer_form

    terms, n, top = _integer_form(F)
    for j in range(top + 1):
        monomials = monomials_of_degree(n, j)
        space = RowSpace()
        others = []
        for m, row in zip(monomials, _catalecticant_rows(terms, n, top, j)):
            if family.in_basis(m):
                space.add(row)
            else:
                others.append(row)
        if not all(space.contains(row) for row in others):
            return False
    return True


def perturbed_form(rng, F, n):
    """A numeric copy of F with one coefficient rescaled, another term
    dropped and a new term of the same degree added."""
    out = dict(F)
    keys = sorted(out)
    out[rng.choice(keys)] *= random_nonzero(rng)
    if len(keys) > 1:
        del out[rng.choice(keys[1:])]
    missing = [m.exponents for m in monomials_of_degree(n, sum(keys[0])) if m.exponents not in out]
    if missing:
        out[rng.choice(missing)] = random_nonzero(rng)
    return out


def test_rank_per_degree_spanning_matches_the_row_space_routine(ci_corpus, pentagon):
    rng = random.Random(89)
    families = list(ci_corpus) + [degenerate(f) for f in ci_corpus]
    cases = [(pentagon, wlp_failure_form())]
    for fam in families:
        for convention in (CONTRACTION, DIFFERENTIATION):
            F = dual_generator(fam, convention).evaluate()
            if F:
                cases += [(fam, F), (fam, perturbed_form(rng, F, fam.n)), (fam, perturbed_form(rng, F, fam.n))]
    outcomes = []
    for fam, F in cases:
        expected = spans_by_row_space(fam, F)
        assert m_spans_ann_quotient(fam, F) == expected
        outcomes.append(expected)
    assert True in outcomes and False in outcomes


# ---------------------------------------------------------------------------
# The union-find Macaulay kernel against the brute-force rows: macaulay_rows
# eliminated by RowSpace.


def rows_space(degrees, tails, a, b, degree):
    """The degree-`degree` Macaulay row space by exact row reduction."""
    from binomial_ci.linalg import RowSpace
    from binomial_ci.reference import macaulay_rows

    n = len(degrees)
    generators = [
        {Monomial.variable(n, k + 1, d): a[k], tails[k]: -b[k]} for k, d in enumerate(degrees)
    ]
    space = RowSpace()
    rows = macaulay_rows(n, generators, degree)
    for row in rows:
        space.add(row)
    return space, rows


def basis_check_by_rows(family):
    """The copy-and-add basis test: in each degree the avoided-power
    monomials count h_j and each one enlarges the Macaulay row space."""
    for j in range(family.socle_degree + 1):
        space, _ = rows_space(family.degrees, family.tails, family.a_values, family.b_values, j)
        columns = {m: x for x, m in enumerate(monomials_of_degree(family.n, j))}
        basis = family.basis_monomials(j)
        if len(basis) != len(columns) - space.rank:
            return False
        if not all(space.add({columns[m]: 1}) for m in basis):
            return False
    return True


def with_b(family, b_values):
    return specialize(family, CoeffAssignment(family.a_values, tuple(b_values)))


def tied(family, rng):
    """The family with every ratio c_k = b_k/a_k drawn from {c, 1/c}, so that
    cycles whose vector r is nonzero can still have c^r = 1."""
    c = rng.choice([Fraction(2), Fraction(-1), Fraction(-1, 3), Fraction(3, 2)])
    return with_b(family, [a * rng.choice([c, 1 / c]) for a in family.a_values])


def kernel_points(ci_corpus):
    """(family or None, degrees, tails, a, b): the corpus, its b = a, b = -a
    and b = 0 variants, a_i = 0 probe points, ratio ties and seeded random
    families.  Probe points are not families, since a family has a_i != 0."""
    rng = random.Random(131)
    families = list(ci_corpus)
    for fam in ci_corpus:
        families.append(with_b(fam, fam.a_values))
        families.append(with_b(fam, [-a for a in fam.a_values]))
    for fam in ci_corpus[:8]:
        families.append(with_b(fam, [0] * fam.n))
    for fam in [random_family(rng, n_range=(2, 3)) for _ in range(12)]:
        families.append(tied(fam, rng))
    # Long live paths: from degree 8 on, the rows join every column
    # x1^i*x2^(j-i) into one component, which c_1 * c_2 = 1 keeps live, with
    # potentials of up to about j/2 in one digit.
    chain = parse_family("f1 = 1*x1^5 - 2*x1^4*x2 ; f2 = 3*x2^5 - 3/2*x1*x2^4")
    families += [chain, with_b(chain, [Fraction(-1), Fraction(-3)])]
    # a = b, and f1 and f3 share a tail: columns that meet several rows
    families.append(parse_family("f1 = -1/3*x1^4 - -1/3*x1^2*x2^2 ; f2 = x2^4 - x1^4 ; f3 = 2*x3^4 - 2*x1^2*x2^2"))
    randoms = [random_family(rng) for _ in range(12)]
    families += randoms
    points = [(f, f.degrees, f.tails, f.a_values, f.b_values) for f in families]
    for fam in ci_corpus[:8] + randoms[:4]:
        for i in range(fam.n):
            a = list(fam.a_values)
            a[i] = Fraction(0)
            points.append((None, fam.degrees, fam.tails, a, fam.b_values))
    return points


def test_kernel_matches_row_reduction(ci_corpus):
    from binomial_ci.oracle import macaulay_kernel

    rng = random.Random(137)
    outcomes = set()
    for family, degrees, tails, a, b in kernel_points(ci_corpus):
        n = len(degrees)
        exps = tuple(t.exponents for t in tails)
        top = sum(d - 1 for d in degrees) + 2
        values = []
        for j in range(top + 1):
            monomials = monomials_of_degree(n, j)
            space, rows = rows_space(degrees, tails, a, b, j)
            kernel = macaulay_kernel(degrees, exps, a, b, j)
            assert kernel.rank == space.rank
            values.append(len(monomials) - space.rank)
            for x, m in enumerate(monomials):
                expected = space.contains({x: 1})
                assert kernel.contains_column(x) == expected
                if family is not None:
                    assert ideal_membership(family, m) == expected
            for _ in range(3 if rows else 0):
                combo: dict[int, Fraction] = {}
                for row in rng.sample(rows, min(len(rows), 4)):
                    scale = random_nonzero(rng)
                    for x, v in row.items():
                        combo[x] = combo.get(x, 0) + scale * v
                extra = dict(combo)
                x = rng.randrange(len(monomials))
                extra[x] = extra.get(x, 0) + random_nonzero(rng)
                for poly in (combo, extra):
                    expected = space.contains(poly)
                    if family is not None:
                        terms = {monomials[x]: v for x, v in poly.items()}
                        assert polynomial_in_ideal(family, terms) == expected
                    outcomes.add(expected)
        if family is not None:
            assert hilbert_function(family, top).values == tuple(values)
            if values[top - 1] == 0:  # h_{D+1} = 0: a complete intersection
                assert basis_check(family) == basis_check_by_rows(family)
            else:
                with pytest.raises(NotCompleteIntersectionError):
                    basis_check(family)
    assert outcomes == {True, False}


# The packed kernel in wide lanes: columns of 2- and 4-byte keys


def _wide_points(rng, degrees, count):
    """count seeded tail choices, each at generic values, b = 0, an a_k = 0
    probe, that probe with b = 0 (f_k = 0) and ratios tied to {c, 1/c}:
    (tails, a, b)."""
    n = len(degrees)
    points = []
    for _ in range(count):
        tails = []
        for i, d in enumerate(degrees):
            tails.append(rng.choice([m for m in monomials_of_degree(n, d) if m.exponents[i] != d]))
        a = [random_nonzero(rng) for _ in range(n)]
        b = [random_nonzero(rng) for _ in range(n)]
        probe = list(a)
        probe[rng.randrange(n)] = Fraction(0)
        c = rng.choice([Fraction(2), Fraction(-1), Fraction(3, 2)])
        tied = [x * rng.choice([c, 1 / c]) for x in a]
        points += [(tails, a, b), (tails, a, [0] * n), (tails, probe, b), (tails, probe, [0] * n), (tails, a, tied)]
    return points


@pytest.mark.parametrize(
    "degrees, js, nb",
    [((40, 30), range(60, 71), 2), ((70, 65), range(126, 136), 2), ((64, 2, 2), range(7), 2), ((16390, 3), range(14), 4)],
)
def test_kernel_matches_row_reduction_in_wide_lanes(degrees, js, nb):
    from binomial_ci.keys import rule
    from binomial_ci.oracle import macaulay_kernel

    rng = random.Random(sum(degrees))
    widths, outcomes = set(), set()
    for tails, a, b in _wide_points(rng, degrees, 2):
        exps = tuple(t.exponents for t in tails)
        for j in js:
            widths.add(rule(degrees, exps, j)[0])
            space, _ = rows_space(degrees, tails, a, b, j)
            kernel = macaulay_kernel(degrees, exps, a, b, j)
            assert kernel.rank == space.rank
            expected = [space.contains({x: 1}) for x in range(len(kernel.root))]
            assert [kernel.contains_column(x) for x in range(len(kernel.root))] == expected
            outcomes.update(expected)
    assert nb in widths and outcomes == {True, False}


def test_kernel_at_a_four_byte_degree_matches_ci_reference_and_the_walks():
    # Row reduction of 16000-column matrices is out of reach: at a complete
    # intersection the live count is h_j, and a monomial lies in the ideal
    # exactly when its rewriting walk ends in a cycle.
    from binomial_ci import BinomialFamily, TO_CYCLE
    from binomial_ci.keys import rule
    from binomial_ci.oracle import macaulay_kernel

    rng = random.Random(16384)
    outcomes = set()
    for d1, d2 in ((16380, 40), (16390, 7)):
        t, u = rng.randrange(d1), rng.randint(1, d2)
        tails = [Monomial((t, d1 - t)), Monomial((u, d2 - u))]
        a = [Fraction(rng.randint(1, 9)) for _ in range(2)]
        b = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2)]
        fam = BinomialFamily.numeric([d1, d2], tails, a, b)
        assert is_complete_intersection(fam)
        top = fam.socle_degree + 1
        reference = ci_reference(fam.degrees, top)
        exps = tuple(m.exponents for m in tails)
        for j in (16384, top - 1, top):
            assert rule(fam.degrees, exps, j)[0] == 4
            kernel = macaulay_kernel(fam.degrees, exps, a, b, j)
            assert kernel.live == reference[j]
            monomials = monomials_of_degree(2, j)
            for x in range(0, len(monomials), 1201):
                in_ideal = reduce_monomial(fam, monomials[x]).kind == TO_CYCLE
                assert kernel.contains_column(x) == in_ideal
                outcomes.add(in_ideal)
    assert outcomes == {True, False}


def _row_components(rows, size):
    """The columns joined by two-term rows, as a set of frozensets."""
    parent = list(range(size))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for row in rows:
        if len(row) == 2:
            u, v = map(root, row)
            parent[u] = v
    parts: dict[int, set[int]] = {}
    for x in range(size):
        parts.setdefault(root(x), set()).add(x)
    return {frozenset(p) for p in parts.values()}


def test_kernel_with_one_zeroed_coefficient_matches_the_rows_on_drawn_families_hypothesis():
    # The kernel walks each generator's rows in turn, with the kind of its
    # one-term rows (a_k = 0 or b_k = 0) settled once per generator; against
    # the rank of `reference.macaulay_rows` in every degree 0..D+1.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from binomial_ci.oracle import macaulay_kernel
    from binomial_ci.reference import dense_rank

    from conftest import family_strategy

    values = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 5)])
    seen = set()

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(family_strategy(st), st.data())
    def check(family, data):
        n = family.n
        pick = st.lists(values, min_size=n, max_size=n)
        a, b = (list(family.a_values), list(family.b_values)) if family.is_numeric else (data.draw(pick), data.draw(pick))
        k, side = data.draw(st.integers(0, n - 1)), data.draw(st.sampled_from("ab"))
        (a if side == "a" else b)[k] = Fraction(0)
        exps = tuple(t.exponents for t in family.tails)
        for j in range(family.socle_degree + 2):
            space, rows = rows_space(family.degrees, family.tails, a, b, j)
            size = len(monomials_of_degree(n, j))
            kernel = macaulay_kernel(family.degrees, exps, a, b, j)
            assert kernel.live == size - dense_rank([row.get(x, 0) for x in range(size)] for row in rows)
            contained = [space.contains({x: 1}) for x in range(size)]
            assert [kernel.contains_column(x) for x in range(size)] == contained
            parts: dict[int, set[int]] = {}
            for x, r in enumerate(kernel.root):
                parts.setdefault(r, set()).add(x)
            assert {frozenset(p) for p in parts.values()} == _row_components(rows, size)
            seen.update((side, c) for c in contained)

    check()
    assert seen == {("a", True), ("a", False), ("b", True), ("b", False)}


VERIFY_SHAPES = [(3, 3), (4, 2), (5, 2), (3, 4), (4, 3), (6, 2)]


def test_degree_tables_keep_every_key_over_interleaved_verify_shapes():
    # Families of the six `verify` shapes, in rounds that take one of each
    # shape in turn as the benchmark's schedule does, through the oracle
    # calls of a `verify` job.  A cache that evicts a key misses it again,
    # so misses == currsize exactly when every key missed once: its
    # distinct keys, with nothing evicted.
    from binomial_ci import resultant_radical, slp_check
    from binomial_ci.keys import degree_keys, degree_labels

    rng = random.Random(35)
    rounds = []
    for _ in range(2):
        batch = []
        for n, d in VERIFY_SHAPES:
            while True:
                fam = random_family(rng, n_range=(n, n), max_degree=d)
                if fam.degrees == (d,) * n and is_complete_intersection(fam):
                    break
            batch.append(fam)
        rounds.append(batch)
    caches = (degree_keys, degree_labels)
    for cache in caches:
        cache.cache_clear()
    for batch in rounds:
        for fam in batch:
            top = fam.socle_degree
            assert is_complete_intersection(fam)
            resultant_radical(fam)
            assert basis_check(fam)
            ideal_membership(fam, Monomial((top + 1,) + (0,) * (fam.n - 1)))
            F = dual_generator(fam, CONTRACTION).evaluate()
            assert inverse_system_dims(F, top) == ci_reference(fam.degrees, top)
            assert m_spans_ann_quotient(fam, F)
            slp_check(dual_generator(fam, DIFFERENTIATION).evaluate(), trials=1, rng=random.Random(0))
    for cache in caches:
        info = cache.cache_info()
        assert info.misses == info.currsize > 32, (cache, info)
