import random
from fractions import Fraction

import pytest

from binomial_ci import (
    CONTRACTION,
    DIFFERENTIATION,
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
from binomial_ci.oracle import HilbertFunction, catalecticant_rows, polynomial_in_ideal
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
    from binomial_ci.oracle import catalecticant_rows

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
    cases = [(pentagon, wlp_failure_form(), 5)]
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
    from binomial_ci.oracle import macaulay_rows

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

    def counting(terms, n, top, degree, *args, **kwargs):
        degrees.append(degree)
        return real(terms, n, top, degree, *args, **kwargs)

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

    def counting(terms, n, top, degree, monomials=None, *args):
        if monomials is None:
            full.append(degree)
        return real(terms, n, top, degree, monomials, *args)

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
        for m, row in zip(monomials, _catalecticant_rows(terms, n, top, j, monomials)):
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
    from binomial_ci.oracle import macaulay_rows

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
                    assert kernel.contains(poly) == expected
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
