import dataclasses
import math
import random
import re
from collections.abc import Mapping
from fractions import Fraction

import pytest

from binomial_ci import (
    BinomialFamily,
    CONTRACTION,
    DIFFERENTIATION,
    CoeffAssignment,
    CoeffMonomial,
    DualGenerator,
    Monomial,
    SparsePoly,
    apply_action,
    build_graph,
    dual_generator,
    inverse_system_dims,
    m_spans_ann_quotient,
    monomial_basis,
    monomials_of_degree,
    multinomial,
    parse_family,
    reduce_monomial,
    s_vector,
    slp_check,
    specialize,
    verify_annihilation,
)
from binomial_ci.catalog import five_var_pentagon, pentagon_dual_form, three_var_chain
from binomial_ci.algebra import MONOMIAL_BUDGET, EvaluatedForm, exponent_factorial, exponents_of_degree, numeric_form
from binomial_ci import dual as dual_module
from binomial_ci.dual import AnnihilationResult, _in_tree, dual_to_json
from binomial_ci.keys import _lane_bytes, _pack, rule
from binomial_ci.linalg import to_int_row
from binomial_ci.oracle import _integer_form
from binomial_ci.reference import in_tree_match
from binomial_ci.rewrite import TO_BASIS

from conftest import assert_as_checked, family_strategy, random_family


class TestSVector:
    def test_double_cycle_family(self, double_cycle):
        assert s_vector(double_cycle) == (2, 1, 1)

    def test_two_variable_family(self, loop2):
        # degree-2 graph: x1^2 -> x1*x2 <- x2^2, so one edge of each label
        assert s_vector(loop2) == (1, 1)

    def test_zero_tail_coefficients_do_not_change_s(self, double_cycle):
        zeroed = specialize(double_cycle, CoeffAssignment((None,) * 3, (Fraction(0),) * 3))
        assert s_vector(zeroed) == s_vector(double_cycle)


EXPECTED_CONTRACTION = {
    (3, 0, 0): ((0, 1, 0), (2, 0, 1)),
    (2, 0, 1): ((1, 1, 0), (1, 0, 1)),
    (2, 1, 0): ((1, 1, 1), (1, 0, 0)),
    (1, 0, 2): ((2, 1, 0), (0, 0, 1)),
    (1, 2, 0): ((2, 0, 1), (0, 1, 0)),
    (1, 1, 1): ((2, 1, 1), (0, 0, 0)),
}


class TestDualGenerator:
    def test_contraction_terms(self, double_cycle):
        dual = dual_generator(double_cycle, CONTRACTION)
        expected = {
            alpha: CoeffMonomial(Fraction(1), a, b)
            for alpha, (a, b) in EXPECTED_CONTRACTION.items()
        }
        assert dict(dual.coeffs) == expected

    def test_differentiation_adds_multinomials(self, double_cycle):
        dual = dual_generator(double_cycle, DIFFERENTIATION)
        expected = {
            alpha: CoeffMonomial(Fraction(multinomial(3, alpha)), a, b)
            for alpha, (a, b) in EXPECTED_CONTRACTION.items()
        }
        assert dict(dual.coeffs) == expected

    def test_unchecked_coefficients_equal_checked_ones(self, ci_corpus):
        rng = random.Random(41)
        families = list(ci_corpus[:8]) + [random_family(rng, numeric=False) for _ in range(8)]
        for fam in families:
            for convention in (CONTRACTION, DIFFERENTIATION):
                dual = dual_generator(fam, convention)
                for cm in dual.coeffs.values():
                    assert_as_checked(cm)
                assert verify_annihilation(fam, dual, convention).ok

    def test_differentiation_is_multinomial_times_contraction(self):
        rng = random.Random(21)
        for _ in range(10):
            fam = random_family(rng, numeric=False)
            d = fam.socle_degree
            contraction = dual_generator(fam, CONTRACTION)
            differentiation = dual_generator(fam, DIFFERENTIATION)
            assert set(contraction.coeffs) == set(differentiation.coeffs)
            for alpha, cm in contraction.coeffs.items():
                assert differentiation.coeffs[alpha] == cm * Fraction(
                    multinomial(d, alpha)
                )

    def test_target_coefficient_is_pure_a_power(self):
        rng = random.Random(22)
        for _ in range(10):
            fam = random_family(rng, numeric=False)
            dual = dual_generator(fam, CONTRACTION)
            target = tuple(d - 1 for d in fam.degrees)
            cm = dual.coeffs[target]
            assert cm.scalar == 1
            assert cm.a_exp == dual.s
            assert cm.b_exp == (0,) * fam.n

    def test_zero_coefficients_exactly_off_the_reach_set(self):
        rng = random.Random(23)
        for _ in range(8):
            fam = random_family(rng, numeric=False)
            dual = dual_generator(fam, CONTRACTION)
            graph = build_graph(fam, fam.socle_degree)
            target = Monomial(tuple(d - 1 for d in fam.degrees))
            for m in graph.vertices:
                out = reduce_monomial(fam, m)
                reaches = out.kind == TO_BASIS and out.basis_monomial == target
                assert (m.exponents in dual.coeffs) == reaches

    def test_b_zero_collapses_to_single_term(self, double_cycle):
        zeroed = specialize(double_cycle, CoeffAssignment((None,) * 3, (Fraction(0),) * 3))
        dual = dual_generator(zeroed, CONTRACTION)
        terms = dual.sparse_terms()
        assert list(terms) == [(1, 1, 1)]
        assert terms[(1, 1, 1)] == SparsePoly.monomial(3, (2, 1, 1), (0, 0, 0))

    def test_rejects_unknown_convention(self, double_cycle):
        with pytest.raises(ValueError):
            dual_generator(double_cycle, "laplace")

    def test_json_dump(self, double_cycle):
        data = dual_to_json(dual_generator(double_cycle, CONTRACTION))
        assert data["D"] == 3
        assert data["convention"] == "contraction"
        assert len(data["terms"]) == 6
        assert data["terms"][0]["alpha"] == [3, 0, 0]
        assert data["terms"][0]["coeff"] == "a2*b1^2*b3"


def _forward_in_tree(family):
    """Oracle for dual._in_tree from the socle-degree reduction graph:
    ({alpha: r}, s) over the vertices whose successor walk ends at the
    target, keyed in the order of a depth-first search over predecessor
    lists in vertex (descending lex) order."""
    graph = build_graph(family, family.socle_degree)
    n = family.n
    target = graph.index[tuple(d - 1 for d in family.degrees)]
    counts = {}
    for start in range(len(graph.vertices)):
        r, v, seen = [0] * n, start, set()
        while graph.succ[v] is not None and v not in seen:
            seen.add(v)
            r[graph.labels[v] - 1] += 1
            v = graph.succ[v]
        if v == target:
            counts[start] = tuple(r)
    preds = {}
    for v in counts:
        if v != target:
            preds.setdefault(graph.succ[v], []).append(v)
    order, stack = [target], [target]
    while stack:
        kids = preds.get(stack.pop(), [])
        order += kids
        stack += kids
    tree = {graph.vertices[v].exponents: counts[v] for v in order}
    return tree, tuple(max(r[j] for r in tree.values()) for j in range(n))


def _pure_power_family(rng, n, max_degree):
    """A random family in which about a third of the tails are pure powers x_j^d_i."""
    degrees = [rng.randint(2, max_degree) for _ in range(n)]
    tails = []
    for i, d in enumerate(degrees):
        if rng.random() < 0.3:
            tails.append(Monomial.variable(n, rng.choice([j for j in range(1, n + 1) if j != i + 1]), d))
        else:
            options = [m for m in monomials_of_degree(n, d) if m != Monomial.variable(n, i + 1, d)]
            tails.append(rng.choice(options))
    return BinomialFamily.symbolic(degrees, tails)


def _tree_families(ci_corpus):
    rng = random.Random(1515)
    zero_b = [
        specialize(fam, CoeffAssignment((None,) * fam.n, (Fraction(0),) * fam.n))
        for fam in (three_var_chain(), five_var_pentagon(), *ci_corpus[:5])
    ]
    seeded = [_pure_power_family(rng, rng.randint(2, 6), rng.choice((2, 3, 3, 4))) for _ in range(40)]
    return [*ci_corpus, *zero_b, *seeded]


class TestInTree:
    def test_reverse_search_matches_the_forward_graph_walk(self, ci_corpus):
        for fam in _tree_families(ci_corpus):
            tree, s = _in_tree(fam)[:2]
            expected_tree, expected_s = _forward_in_tree(fam)
            assert list(tree.items()) == list(expected_tree.items())
            assert s == expected_s == s_vector(fam)
            for convention in (CONTRACTION, DIFFERENTIATION):
                dual = dual_generator(fam, convention)
                assert dual.s == s
                assert list(dual.coeffs) == list(expected_tree)

    def test_every_tree_edge_is_a_rewrite_step(self, ci_corpus):
        for fam in _tree_families(ci_corpus):
            tree = _in_tree(fam)[0]
            target = tuple(d - 1 for d in fam.degrees)
            assert fam._move(target, fam.n) is None
            for v, r in tree.items():
                if v == target:
                    continue
                i, w = fam._move(v, fam.n)
                assert w in tree
                assert r == tuple(c + (j == i - 1) for j, c in enumerate(tree[w]))

    def test_differentiation_scalars_are_multinomials(self, ci_corpus):
        for fam in _tree_families(ci_corpus)[::3]:
            dual = dual_generator(fam, DIFFERENTIATION)
            for alpha, cm in dual.coeffs.items():
                assert cm.scalar == multinomial(fam.socle_degree, alpha)

    def test_a_rule_that_revisits_a_vertex_raises(self, loop2, monkeypatch):
        # With bound = pack(1, 1) in place of pack(d) = pack(2, 2), the label
        # test reads any v with v_1 >= 1 as label 1, so the target x1*x2 comes
        # back as the label-1 predecessor of x2^2: the search must raise, not
        # revisit it without end.
        def ones_bound(degrees, tails, top):
            nb, guard, _, deltas = rule(degrees, tails, top)
            return nb, guard, _pack((1,) * len(degrees), nb), deltas

        _in_tree.cache_clear()
        monkeypatch.setattr(dual_module, "rule", ones_bound)
        with pytest.raises(AssertionError, match=r"reached \(1, 1\) twice"):
            _in_tree(loop2)
        monkeypatch.undo()
        assert _in_tree(loop2)[0] == {(1, 1): (0, 0), (2, 0): (1, 0), (0, 2): (0, 1)}

    def test_over_budget_socle_degree_is_refused(self):
        n, d = 8, 10  # D = 72: C(79, 7) monomials of the socle degree
        tails = [Monomial.variable(n, i % n + 1, d) for i in range(1, n + 1)]
        fam = BinomialFamily.symbolic([d] * n, tails)
        assert math.comb(fam.socle_degree + n - 1, n - 1) > MONOMIAL_BUDGET
        for call in (s_vector, dual_generator):
            with pytest.raises(ValueError, match="budget"):
                call(fam)


def test_reverse_search_matches_the_forward_walk_on_drawn_families_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(family_strategy(st))
    def check(fam):
        tree, s = _in_tree(fam)[:2]
        expected_tree, expected_s = _forward_in_tree(fam)
        assert list(tree.items()) == list(expected_tree.items())
        assert s == expected_s

    check()


def _wide_tree_families():
    """Seeded families whose socle degrees put the in-tree's keys in 1-, 2-
    and 4-byte lanes, with label counts past 255 from the 2-byte ones on."""
    rng = random.Random(61)
    families = []
    for degrees in ((3, 2, 3), (40, 30), (300, 250), (30, 25, 20), (9000, 7500), (12000, 9000)):
        n = len(degrees)
        tails = []
        for i, d in enumerate(degrees):
            while True:
                cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
                exps = tuple(hi - lo for lo, hi in zip((0, *cuts), (*cuts, d)))
                if exps[i] != d:
                    break
            tails.append(Monomial(exps))
        families.append(BinomialFamily.symbolic(list(degrees), tails))
    return families


class TestPackedInTree:
    def test_every_lane_width_gives_rewrite_steps(self):
        widths, counts = set(), 0
        for fam in _wide_tree_families():
            tree, s = _in_tree(fam)[:2]
            target = tuple(d - 1 for d in fam.degrees)
            assert fam._move(target, fam.n) is None and tree[target] == (0,) * fam.n
            for v, r in tree.items():
                if v != target:
                    i, w = fam._move(v, fam.n)
                    assert r == tuple(c + (j == i - 1) for j, c in enumerate(tree[w]))
            assert s == tuple(map(max, zip(*tree.values())))
            widths.add(_lane_bytes(max(fam.socle_degree, *fam.degrees)))
            counts = max(counts, *s)
            if fam.socle_degree < 1000:  # the forward walks take seconds on the 4-byte families
                expected_tree, expected_s = _forward_in_tree(fam)
                assert list(tree.items()) == list(expected_tree.items()) and s == expected_s
        assert widths == {1, 2, 4} and counts > 255


class TestApplyAction:
    def test_contraction_generator_rule(self):
        result = apply_action({Monomial((1, 0)): 1}, {Monomial((2, 1)): 1}, CONTRACTION)
        assert result == {(1, 1): Fraction(1)}

    def test_differentiation_generator_rule(self):
        result = apply_action({Monomial((2,)): 1}, {Monomial((3,)): 1}, DIFFERENTIATION)
        assert result == {(1,): Fraction(6)}

    def test_action_annihilates_when_exponent_too_small(self):
        assert apply_action({Monomial((3, 0)): 1}, {Monomial((2, 1)): 1}, CONTRACTION) == {}

    def test_bilinearity(self):
        # (2*x1 - x2) o (X1^2 + 3*X1*X2) = 2*X1 + 6*X2 - 3*X1 = -X1 + 6*X2
        f = {Monomial((1, 0)): Fraction(2), Monomial((0, 1)): Fraction(-1)}
        F = {Monomial((2, 0)): Fraction(1), Monomial((1, 1)): Fraction(3)}
        out = apply_action(f, F, CONTRACTION)
        assert out == {(1, 0): Fraction(-1), (0, 1): Fraction(6)}


class TestAnnihilation:
    def test_constructed_duals_annihilate_symbolically(self):
        rng = random.Random(24)
        for _ in range(8):
            fam = random_family(rng, numeric=False)
            for convention in (CONTRACTION, DIFFERENTIATION):
                dual = dual_generator(fam, convention)
                assert verify_annihilation(fam, dual, convention).ok

    def test_annihilation_respects_fixed_values(self):
        rng = random.Random(25)
        for _ in range(5):
            fam = random_family(rng, numeric=True)
            dual = dual_generator(fam, CONTRACTION)
            assert verify_annihilation(fam, dual, CONTRACTION).ok

    def test_partial_form_fails_with_residual(self, double_cycle):
        result = verify_annihilation(
            double_cycle, {Monomial((1, 1, 1)): Fraction(1)}, CONTRACTION
        )
        assert not result.ok
        assert result.residuals

    def test_pentagon_form_annihilated_under_differentiation(self, pentagon):
        form = pentagon_dual_form()
        assert verify_annihilation(pentagon, form, DIFFERENTIATION).ok
        assert not verify_annihilation(pentagon, form, CONTRACTION).ok

    def test_pentagon_constructed_dual_is_proportional_to_the_form(self, pentagon):
        dual = dual_generator(pentagon, DIFFERENTIATION)
        constructed = dual.sparse_terms()
        form = pentagon_dual_form()
        assert set(constructed) == set(form)
        # same ratio on every term
        for alpha, poly in constructed.items():
            assert poly == form[alpha] * Fraction(10)


def _reference_action(f_terms, big_terms, differentiate, n):
    """sum over gamma of c_gamma * (x^gamma o F), expanded with public
    SparsePoly arithmetic; every coefficient is lifted to n symbol pairs."""

    def lift(c):
        if isinstance(c, CoeffMonomial):
            return c.to_sparse()
        return c if isinstance(c, SparsePoly) else SparsePoly.constant(n, c)

    acc = {}
    for gamma, cf in f_terms.items():
        gamma = gamma.exponents if isinstance(gamma, Monomial) else tuple(gamma)
        for alpha, c in big_terms.items():
            alpha = alpha.exponents if isinstance(alpha, Monomial) else tuple(alpha)
            if any(a < g for a, g in zip(alpha, gamma)):
                continue
            factor = math.prod(math.perm(a, g) for a, g in zip(alpha, gamma)) if differentiate else 1
            key = tuple(a - g for a, g in zip(alpha, gamma))
            acc[key] = acc.get(key, SparsePoly.zero(n)) + lift(cf) * lift(c) * factor
    return {k: v for k, v in acc.items() if not v.is_zero()}


def _reference_residuals(fam, F, differentiate):
    residuals = {}
    for i in range(1, fam.n + 1):
        res = _reference_action(fam.generator(i), F, differentiate, fam.n)
        if res:
            residuals[i] = res
    return residuals


def _perturbed(rng, terms, n):
    """A copy of the form with one coefficient scaled by a symbol, another
    term dropped and a new term of the same degree added."""
    out = dict(terms)
    keys = sorted(out)
    scaled = rng.choice(keys)
    out[scaled] = out[scaled] * SparsePoly.symbol_b(n, rng.randint(1, n))
    others = [k for k in keys if k != scaled]
    if others:
        del out[rng.choice(others)]
    degree = sum(keys[0])
    missing = [m.exponents for m in monomials_of_degree(n, degree) if m.exponents not in out]
    if missing:
        out[rng.choice(missing)] = Fraction(rng.choice([-3, 2]), rng.choice([1, 5]))
    return out


def _kernel_families():
    rng = random.Random(26)
    families = [random_family(rng, numeric=False) for _ in range(10)]
    families += [random_family(rng, numeric=True) for _ in range(3)]
    mixed = random_family(rng, numeric=False)
    families.append(specialize(mixed, CoeffAssignment((Fraction(2, 3),) + (None,) * (mixed.n - 1), (None,) * mixed.n)))
    families.append(five_var_pentagon())
    return families


class TestFlatKernel:
    """verify_annihilation and apply_action against a SparsePoly expansion."""

    @pytest.mark.parametrize("convention", [CONTRACTION, DIFFERENTIATION])
    def test_residuals_match_the_reference_expansion(self, convention):
        rng = random.Random(27)
        differentiate = convention == DIFFERENTIATION
        nonzero = 0
        for fam in _kernel_families():
            dual = dual_generator(fam, convention)
            exact = dual.sparse_terms()
            for F in (exact, _perturbed(rng, exact, fam.n)):
                got = verify_annihilation(fam, F, convention)
                assert got.residuals == _reference_residuals(fam, F, differentiate)
                assert got.ok == (not got.residuals)
                nonzero += bool(got.residuals)
            assert verify_annihilation(fam, dual, convention).ok
        assert nonzero >= 10

    def test_pentagon_form_residuals_match_the_reference(self, pentagon):
        form = pentagon_dual_form()
        contraction = verify_annihilation(pentagon, form, CONTRACTION)
        assert contraction.residuals == _reference_residuals(pentagon, form, False)
        assert contraction.residuals

    @pytest.mark.parametrize("convention", [CONTRACTION, DIFFERENTIATION])
    def test_apply_action_matches_the_reference_expansion(self, convention):
        rng = random.Random(28)
        differentiate = convention == DIFFERENTIATION
        for fam in _kernel_families():
            F = _perturbed(rng, dual_generator(fam, convention).sparse_terms(), fam.n)
            for i in range(1, fam.n + 1):
                f = fam.generator(i)
                got = apply_action(f, F, convention)
                assert got == _reference_action(f, F, differentiate, fam.n)
                assert all(isinstance(c, SparsePoly) for c in got.values())

    def test_mixed_coefficient_kinds(self):
        n = 2
        a1, b2 = SparsePoly.symbol_a(n, 1), SparsePoly.symbol_b(n, 2)
        f = {Monomial((1, 0)): Fraction(3, 2), (0, 1): a1 + 1, (1, 1): CoeffMonomial(Fraction(-1), (0, 1), (1, 0))}
        F = {(3, 1): b2, (2, 2): Fraction(-5), (1, 2): 7, Monomial((2, 1)): "1/3"}
        for convention in (CONTRACTION, DIFFERENTIATION):
            got = apply_action(f, F, convention)
            assert got == _reference_action(f, F, convention == DIFFERENTIATION, n)
            assert all(isinstance(c, SparsePoly) for c in got.values())
            flipped = apply_action(F, f, convention)
            assert flipped == _reference_action(F, f, convention == DIFFERENTIATION, n)

    def test_numeric_inputs_give_fractions(self):
        f = {(1, 0): Fraction(1, 2), (0, 1): -2}
        F = {(3, 1): Fraction(4), (2, 2): "3/7", (1, 3): 5}
        for convention in (CONTRACTION, DIFFERENTIATION):
            got = apply_action(f, F, convention)
            expected = _reference_action(f, F, convention == DIFFERENTIATION, 2)
            assert got == {k: v.constant_value() for k, v in expected.items()}
            assert all(type(c) is Fraction for c in got.values())

    def test_terms_cancelling_inside_one_key(self):
        # (x1 - x2) o (X1^2*X2 + X1*X2^2) = X2^2 - X1^2: the X1*X2 terms cancel
        n = 2
        a1, b1 = SparsePoly.symbol_a(n, 1), SparsePoly.symbol_b(n, 1)
        F = {(2, 1): 1, (1, 2): 1}
        got = apply_action({(1, 0): a1, (0, 1): -a1}, F, CONTRACTION)
        assert got == {(0, 2): a1, (2, 0): -a1}
        # only the a1 part cancels at X1*X2; the b1 part stays
        got = apply_action({(1, 0): a1 + b1, (0, 1): -a1}, F, CONTRACTION)
        assert got == {(0, 2): a1 + b1, (1, 1): b1, (2, 0): -a1}
        assert got[(1, 1)].terms == {(0, 0, 1, 0): Fraction(1)}
        assert apply_action({(1, 0): 2, (0, 1): -2}, {(1, 0): 1, (0, 1): 1}, CONTRACTION) == {}

    def test_symbol_counts_must_agree(self):
        with pytest.raises(ValueError):
            apply_action({(1, 0): SparsePoly.symbol_a(2, 1)}, {(1, 1): SparsePoly.symbol_a(3, 1)})
        with pytest.raises(ValueError):
            verify_annihilation(three_var_chain(), {(1, 1, 1): SparsePoly.symbol_a(2, 1)})


def _view_families():
    """Symbolic, mixed and numeric families, plus b = 0 in numeric and mixed form."""
    rng = random.Random(30)
    numeric = random_family(rng, numeric=True)
    symbolic = random_family(rng, numeric=False)
    zero_b = BinomialFamily.numeric(numeric.degrees, numeric.tails, numeric.a_values, [0] * numeric.n)
    one_zero_b = specialize(symbolic, CoeffAssignment((None,) * symbolic.n, (Fraction(0),) + (None,) * (symbolic.n - 1)))
    return _kernel_families() + [zero_b, one_zero_b]


class TestDualViews:
    """Every view of a DualGenerator against per-coefficient substitution."""

    @pytest.mark.parametrize("convention", [CONTRACTION, DIFFERENTIATION])
    def test_views_match_per_coefficient_substitution(self, convention):
        modes = set()
        for fam in _view_families():
            dual = dual_generator(fam, convention)
            a, b = fam.a_values, fam.b_values
            expected = {}
            for alpha, cm in dual.coeffs.items():
                poly = cm.substitute(a, b).to_sparse()
                if not poly.is_zero():
                    expected[alpha] = poly
            assert dual.sparse_terms() == expected
            if fam.is_numeric:
                values = {alpha: cm.evaluate(a, b) for alpha, cm in dual.coeffs.items()}
                assert dual.evaluate() == {alpha: v for alpha, v in values.items() if v}
                assert all(type(v) is Fraction for v in dual.evaluate().values())
            else:
                with pytest.raises(ValueError, match="every symbol"):
                    dual.evaluate()
            modes.add((fam.coeff_mode, any(v == 0 for v in b)))
        assert modes >= {("symbolic", False), ("mixed", False), ("mixed", True), ("numeric", False), ("numeric", True)}

    def test_annihilation_reads_the_same_terms_as_sparse_terms(self):
        nonzero = 0
        for fam in _view_families():
            for built in (CONTRACTION, DIFFERENTIATION):
                dual = dual_generator(fam, built)
                for checked in (CONTRACTION, DIFFERENTIATION):
                    got = verify_annihilation(fam, dual, checked)
                    assert got.residuals == verify_annihilation(fam, dual.sparse_terms(), checked).residuals
                    nonzero += bool(got.residuals)
        assert nonzero  # convention mismatches leave residuals to compare

    def test_dual_of_another_variable_count_is_rejected(self, loop2):
        with pytest.raises(ValueError, match="variable counts"):
            verify_annihilation(three_var_chain(), dual_generator(loop2))


def _lane_edge_families():
    """s past D, and X lanes that end at 127, 128, 255 and 256 (D = 2d - 2),
    each also with one value fixed and with every value fixed."""
    texts = ["f1 = a1*x1^6 - b1*x2*x3^5 ; f2 = a2*x2^6 - b2*x2^3*x3^3 ; f3 = a3*x3^2 - b3*x1*x3"]
    texts += [f"f1 = a1*x1^{d} - b1*x1^{d - 1}*x2 ; f2 = a2*x2^{d} - b2*x1^{d}" for d in (64, 65, 128, 129)]
    families = []
    for text in texts:
        fam = parse_family(text)
        n = fam.n
        families.append(fam)
        families.append(specialize(fam, CoeffAssignment((None,) * n, (Fraction(-3, 2),) + (None,) * (n - 1))))
        families.append(specialize(fam, CoeffAssignment(tuple(range(2, n + 2)), (Fraction(5, 3),) + (1,) * (n - 1))))
    return families


def _tampered(dual, alpha, j):
    """A copy of dual whose in-tree value counts one more label j + 1 at
    alpha in its {alpha: r} dict, holds a failed verdict, so that the
    mapping path decides, and no integer form yet."""
    tree, s, *_ = dual._tree
    tree = dict(tree)
    tree[alpha] = tuple(e + (i == j) for i, e in enumerate(tree[alpha]))
    bad = dataclasses.replace(dual)
    object.__setattr__(bad, "_tree", (tree, s, False, []))
    return bad


def _reference_match(dual):
    """`reference.in_tree_match` on the {alpha: r} of dual's in-tree value."""
    return in_tree_match(dual.family, dual._tree[0])


def _movable(dual):
    """(alpha, j) for each label count r_j at alpha that may grow by one: r_j < s_j."""
    return [(alpha, j) for alpha, r in dual._tree[0].items() for j, (c, top) in enumerate(zip(r, dual.s)) if c < top]


class TestPackedDualFeed:
    """verify_annihilation of a DualGenerator reads the verdict of its
    in-tree search, and takes the mapping path where the verdict fails."""

    def test_s_past_the_socle_degree(self):
        fam = _lane_edge_families()[0]
        assert (fam.socle_degree, s_vector(fam)) == (11, (5, 2, 35))

    def test_lane_edges_read_the_same_terms_as_sparse_terms(self):
        nonzero = 0
        for fam in _lane_edge_families():
            for built in (CONTRACTION, DIFFERENTIATION):
                dual = dual_generator(fam, built)
                assert dual._tree[2] and _reference_match(dual)
                for checked in (CONTRACTION, DIFFERENTIATION):
                    got = verify_annihilation(fam, dual, checked)
                    assert got.residuals == verify_annihilation(fam, dual.sparse_terms(), checked).residuals
                    assert got.ok == (built == checked)
                    nonzero += bool(got.residuals)
        assert nonzero == 2 * len(_lane_edge_families())

    @pytest.mark.parametrize("convention", [CONTRACTION, DIFFERENTIATION])
    def test_label_counts_past_one_byte_with_one_byte_degrees(self, convention):
        # max(s) = 267 needs 2-byte symbol lanes although D = 34 and every
        # d_i fit in one byte; lanes sized by max(D, d_i) alone overflow.
        fam = parse_family(
            "f1 = a1*x1^8 - b1*x1^3*x2^2*x3^2*x4 ; f2 = a2*x2^9 - b2*x1^3*x2^3*x3^2*x4 ; "
            "f3 = a3*x3^11 - b3*x1^3*x2^2*x3^4*x4^2 ; f4 = a4*x4^10 - b4*x1^5*x2*x3^2*x4^2"
        )
        assert (fam.socle_degree, s_vector(fam), len(_in_tree(fam)[0])) == (34, (267, 154, 145, 90), 7770)
        assert verify_annihilation(fam, dual_generator(fam, convention), convention).ok

    def test_a_dual_checked_against_another_family(self):
        # The match is F's own family's: a check against another family takes
        # the mapping path, whose lanes must hold the other family's degrees
        # as well as F's own.  Seeded random pairs, symbolic and numeric, add
        # other shapes.
        small = parse_family("f1 = a1*x1^2 - b1*x1*x2 ; f2 = a2*x2^2 - b2*x1^2")
        wide = parse_family("f1 = a1*x1^300 - b1*x2^300 ; f2 = a2*x2^2 - b2*x1*x2")
        pairs = [(small, wide)] + [(fam, small) for fam in _lane_edge_families()[3:]]
        rng = random.Random(36)
        for numeric in (False, True) * 3:
            fam = random_family(rng, numeric=numeric)
            pairs.append((fam, random_family(rng, numeric=numeric, n_range=(fam.n, fam.n))))
        # Checking (fam, other, fam) in a row: the check against the other
        # family may not read the verdict kept from fam's.
        nonzero = 0
        for fam, other in pairs:
            for convention in (CONTRACTION, DIFFERENTIATION):
                dual = dual_generator(fam, convention)
                for checked in (fam, other, fam):
                    got = verify_annihilation(checked, dual, convention)
                    assert got.residuals == verify_annihilation(checked, dual.sparse_terms(), convention).residuals
                    assert got.ok == (checked is fam)
                    nonzero += bool(got.residuals)
        assert nonzero == 2 * len(pairs)

    @pytest.mark.parametrize("convention", [CONTRACTION, DIFFERENTIATION])
    def test_one_changed_label_count_leaves_a_residual(self, convention):
        rng = random.Random(34)
        families = [random_family(rng, numeric=False) for _ in range(6)] + _lane_edge_families()[::3]
        for fam in families:
            dual = dual_generator(fam, convention)
            assert verify_annihilation(fam, dual, convention).ok  # the good tree's verdict is kept
            bad = _tampered(dual, *rng.choice(_movable(dual)))
            assert not _reference_match(bad)
            got = verify_annihilation(fam, bad, convention)
            assert not got.ok
            assert got.residuals == verify_annihilation(fam, bad.sparse_terms(), convention).residuals
            assert verify_annihilation(fam, dual, convention).ok  # the cached tree is untouched


def _assert_match_agrees(fam):
    """On both duals of fam, the search's verdict and the reference match
    hold, and the verdict of verify_annihilation equals the mapping path's on
    the dual's terms, in ok and in residuals."""
    for convention in (CONTRACTION, DIFFERENTIATION):
        dual = dual_generator(fam, convention)
        assert dual._tree[2] and _reference_match(dual)
        got = verify_annihilation(fam, dual, convention)
        expected = verify_annihilation(fam, dual.sparse_terms(), convention)
        assert (got.ok, got.residuals) == (expected.ok, expected.residuals) == (True, {})


class TestMatch:
    """The search's verdict and the reference match against the mapping
    path, which is exact."""

    def test_seeded_random_families(self):
        rng = random.Random(37)
        for numeric in (False, True) * 10:
            _assert_match_agrees(random_family(rng, numeric=numeric))

    def test_numeric_families_with_a_zero_b(self):
        rng = random.Random(38)
        for _ in range(8):
            fam = random_family(rng, numeric=True)
            b = list(fam.b_values)
            b[rng.randrange(fam.n)] = 0
            _assert_match_agrees(BinomialFamily.numeric(fam.degrees, fam.tails, fam.a_values, b))

    @pytest.mark.parametrize("convention", [CONTRACTION, DIFFERENTIATION])
    def test_a_failed_match_at_unit_values_is_decided_by_the_mapping_path(self, convention):
        # With every a_i = b_i = 1 each coefficient a^(s-r) b^r is 1 whatever
        # r is: one changed label count fails the symbolic match, but F's
        # terms stay the same and the generators still annihilate them.
        rng = random.Random(39)
        tampered = 0
        for _ in range(8):
            shape = random_family(rng, numeric=False, n_range=(2, 3))
            fam = BinomialFamily.numeric(shape.degrees, shape.tails, [1] * shape.n, [1] * shape.n)
            dual = dual_generator(fam, convention)
            if not (movable := _movable(dual)):
                continue
            bad = _tampered(dual, *rng.choice(movable))
            assert not _reference_match(bad)
            assert bad.sparse_terms() == dual.sparse_terms()
            got = verify_annihilation(fam, bad, convention)
            assert (got.ok, got.residuals) == (True, {})
            assert verify_annihilation(fam, bad.sparse_terms(), convention).ok
            tampered += 1
        assert tampered >= 4


def test_match_agrees_with_the_mapping_path_on_drawn_families_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(family_strategy(st))
    def check(fam):
        _assert_match_agrees(fam)

    check()


def _search_outputs(fam):
    """Copies of (seen, pv, pc, bound, guard), the outputs of `_in_tree`'s
    search of fam that it passes to `_annihilates`."""
    got = []
    verdict = dual_module._annihilates
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dual_module, "_annihilates", lambda *args: got.append(args) or verdict(*args))
        _in_tree.cache_clear()
        _in_tree(fam)
    _in_tree.cache_clear()
    seen, pv, pc, bound, guard = got[0]
    return dict(seen), list(pv), list(pc), bound, guard


def test_search_verdict_matches_the_reference_on_drawn_families_hypothesis():
    # On each drawn family the search's verdict is the reference match's, and
    # its tree the forward walk's; one count raised at the vertex of a drawn
    # non-label pair fails both, the verdict by its comparison (a).
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(family_strategy(st), st.integers(0, 10**6), st.integers(0, 10**6))
    def check(fam, k, j):
        seen, pv, pc, bound, guard = _search_outputs(fam)
        tree, s, annihilated, _ = _in_tree(fam)
        expected_tree, expected_s = _forward_in_tree(fam)
        assert (list(tree.items()), s) == (list(expected_tree.items()), expected_s)
        assert dual_module._annihilates(seen, pv, pc, bound, guard) == annihilated == in_tree_match(fam, tree) is True
        if pv:
            v, j = pv[k % len(pv)], j % fam.n
            seen[v] += 1 << 8 * _lane_bytes(MONOMIAL_BUDGET) * j
            alpha = list(tree)[list(seen).index(v)]
            raised = {**tree, alpha: tuple(e + (i == j) for i, e in enumerate(tree[alpha]))}
            assert not dual_module._annihilates(seen, pv, pc, bound, guard)
            assert not in_tree_match(fam, raised)

    check()


class TestSearchVerdict:
    """`_annihilates` on tampered search outputs: each tamper reaches the
    failing branch, which no untampered family reaches."""

    def test_tampered_outputs_fail(self):
        rng = random.Random(42)
        verdict = dual_module._annihilates
        tampered = 0
        for fam in [random_family(rng, numeric=False) for _ in range(30)] + _lane_edge_families()[::3]:
            seen, pv, pc, bound, guard = _search_outputs(fam)
            assert verdict(seen, pv, pc, bound, guard)
            if not pv:
                continue
            k = rng.randrange(len(pv))
            v, unit = pv[k], 1 << 8 * _lane_bytes(MONOMIAL_BUDGET) * rng.randrange(fam.n)
            # a non-label pair's vertex dropped
            assert not verdict({key: r for key, r in seen.items() if key != v}, pv, pc, bound, guard)
            # a count off by one, at the vertex or in the pair
            assert not verdict({**seen, v: seen[v] + unit}, pv, pc, bound, guard)
            assert not verdict(seen, pv, [*pc[:k], pc[k] + unit, *pc[k + 1 :]], bound, guard)
            # a pair missing, or one found twice
            assert not verdict(seen, pv[:k] + pv[k + 1 :], pc[:k] + pc[k + 1 :], bound, guard)
            assert not verdict(seen, [*pv, v], [*pc, pc[k]], bound, guard)
            tampered += 1
        assert tampered >= 10


class TestOnePassPerTree:
    """Both conventions of a DualGenerator read one search per family, whose
    verdict leaves the mapping path and the packed kernel `_act` unused."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The searches (one `_annihilates` call each), mapping paths and
        `_act` calls since the fixture started, with `_in_tree`'s entry, and
        so any verdict kept beside it, cleared."""
        calls = []
        verdict, residuals, act = dual_module._annihilates, dual_module._residuals, dual_module._act
        monkeypatch.setattr(dual_module, "_annihilates", lambda *args: calls.append("search") or verdict(*args))
        monkeypatch.setattr(dual_module, "_residuals", lambda *args: calls.append("mapping") or residuals(*args))
        monkeypatch.setattr(dual_module, "_act", lambda *args: calls.append("act") or act(*args))
        _in_tree.cache_clear()
        return calls

    def test_both_conventions_make_one_pass(self, calls, double_cycle):
        for order in ((CONTRACTION, DIFFERENTIATION), (DIFFERENTIATION, CONTRACTION)):
            _in_tree.cache_clear()
            calls.clear()
            for convention in order:
                assert verify_annihilation(double_cycle, dual_generator(double_cycle, convention), convention).ok
            assert calls == ["search"]  # one search for both conventions, no mapping path and no _act

    def test_duals_built_first_read_their_own_trees(self, calls, double_cycle, loop2):
        # Both conventions of two families are built before any check: each
        # check reads the verdict kept on its dual's own in-tree, so no tree is
        # searched again and nothing else is checked.
        duals = {fam: [dual_generator(fam, c) for c in (CONTRACTION, DIFFERENTIATION)] for fam in (double_cycle, loop2)}
        assert _in_tree.cache_info().misses == 2
        assert calls == ["search", "search"]
        for k in range(2):
            for fam, pair in duals.items():
                assert verify_annihilation(fam, pair[k], pair[k].convention).ok
        assert _in_tree.cache_info().misses == 2  # no search beyond the two builds
        assert calls == ["search", "search"]

    def test_evaluations_read_their_duals_match(self, calls, monkeypatch):
        # An evaluation checked against its dual's family and convention takes
        # the same-dual path: one search for both conventions, and none of its
        # Fractions is built.
        fam = specialize(three_var_chain(), CoeffAssignment((Fraction(2),) * 3, (Fraction(-1, 3),) * 3))
        monkeypatch.setattr(DualGenerator, "_substituted", lambda dual: calls.append("substituted"))
        for convention in (CONTRACTION, DIFFERENTIATION):
            assert verify_annihilation(fam, dual_generator(fam, convention).evaluate(), convention).ok
        assert calls == ["search"]


class TestPackedLanes:
    """The packed kernel at the edges of a lane, against the reference."""

    @pytest.mark.parametrize("convention", [CONTRACTION, DIFFERENTIATION])
    @pytest.mark.parametrize("top", [127, 128, 255, 256])
    def test_x_exponents_at_a_lane_edge(self, convention, top):
        n = 2
        a1, b2 = SparsePoly.symbol_a(n, 1), SparsePoly.symbol_b(n, 2)
        f = {(1, 0): a1, (0, 1): Fraction(-2, 3), (top, 0): 5, (top - 1, 1): b2}
        F = {(top, 1): b2, (top - 1, 2): Fraction(7, 2), (1, top): a1 * a1, (top, top): 1, (0, 0): 3}
        differentiate = convention == DIFFERENTIATION
        assert apply_action(f, F, convention) == _reference_action(f, F, differentiate, n)
        numeric = {key: c for key, c in F.items() if not isinstance(c, SparsePoly)}
        expected = _reference_action({(top, 0): 5, (1, 0): Fraction(1, 3)}, numeric, differentiate, n)
        assert apply_action({(top, 0): 5, (1, 0): Fraction(1, 3)}, numeric, convention) == {
            key: v.constant_value() for key, v in expected.items()
        }

    @pytest.mark.parametrize("convention", [CONTRACTION, DIFFERENTIATION])
    @pytest.mark.parametrize("e1, e2", [(64, 64), (100, 100), (127, 127), (128, 128), (255, 1), (200, 56), (255, 255)])
    def test_symbol_sums_carry_past_a_lane(self, convention, e1, e2):
        # the product's symbol lanes hold e1 + e2, past what either exponent needs
        n = 2
        f = {(1, 0): SparsePoly.monomial(n, (e1, 0), (0, 1)), (0, 1): SparsePoly.monomial(n, (0, e1), (e2, 0), -1)}
        F = {(2, 1): SparsePoly.monomial(n, (e2, 0), (0, e1)), (1, 2): SparsePoly.monomial(n, (0, e2), (e1, 0), 3)}
        got = apply_action(f, F, convention)
        assert got == _reference_action(f, F, convention == DIFFERENTIATION, n)
        assert got[(1, 1)].terms  # X1*X2 collects both products; they do not cancel
        assert max(max(k) for k in got[(1, 1)].terms) == e1 + e2

    @pytest.mark.parametrize(
        "text",
        [
            "f1 = a1*x1^60 - b1*x1*x2^59 ; f2 = a2*x2^60 - b2*x1^59*x2",
            "f1 = a1*x1^130 - b1*x1*x2^129 ; f2 = a2*x2^2 - b2*x1*x2",
        ],
    )
    @pytest.mark.parametrize("convention", [CONTRACTION, DIFFERENTIATION])
    def test_high_degree_families(self, text, convention):
        fam = parse_family(text)
        differentiate = convention == DIFFERENTIATION
        dual = dual_generator(fam, convention)
        assert verify_annihilation(fam, dual, convention).ok
        rng = random.Random(fam.socle_degree)
        exact = dual.sparse_terms()
        for F in (exact, _perturbed(rng, exact, fam.n)):
            got = verify_annihilation(fam, F, convention)
            assert got.residuals == _reference_residuals(fam, F, differentiate)
        assert got.residuals
        values = CoeffAssignment((Fraction(2), Fraction(-3, 5)), (Fraction(7), Fraction(1, 2)))
        point = specialize(fam, values)
        F = _perturbed(rng, dual_generator(point, convention).sparse_terms(), fam.n)
        assert verify_annihilation(point, F, convention).residuals == _reference_residuals(point, F, differentiate)

    def test_empty_inputs(self, double_cycle):
        F = dual_generator(double_cycle).sparse_terms()
        for convention in (CONTRACTION, DIFFERENTIATION):
            assert apply_action({}, F, convention) == {}
            assert apply_action(double_cycle.generator(1), {}, convention) == {}
            assert apply_action({}, {}, convention) == {}
            got = verify_annihilation(double_cycle, {}, convention)
            assert got.ok and got.residuals == {} == _reference_residuals(double_cycle, {}, False)


def test_packed_kernel_matches_the_reference_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    exponents = st.one_of(st.integers(min_value=0, max_value=4), st.sampled_from([63, 64, 127, 128, 129, 255, 256]))
    rationals = st.builds(Fraction, st.integers(min_value=-9, max_value=9).filter(bool), st.integers(min_value=1, max_value=5))

    @st.composite
    def cases(draw):
        n = draw(st.integers(min_value=1, max_value=3))
        m = draw(st.integers(min_value=1, max_value=3))
        symbolic = draw(st.booleans())

        def coefficient():
            if symbolic and draw(st.booleans()):
                syms = draw(st.lists(st.tuples(*[exponents] * (2 * m)), min_size=1, max_size=3))
                return SparsePoly(m, [(sym, draw(rationals)) for sym in syms])
            return draw(rationals)

        def form():
            keys = draw(st.lists(st.tuples(*[exponents] * n), max_size=5, unique=True))
            return {key: coefficient() for key in keys}

        return m, form(), form(), draw(st.sampled_from([CONTRACTION, DIFFERENTIATION]))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cases())
    def check(case):
        m, f, F, convention = case
        got = apply_action(f, F, convention)
        expected = _reference_action(f, F, convention == DIFFERENTIATION, m)
        if any(isinstance(c, SparsePoly) for c in (*f.values(), *F.values())):
            assert got == expected
            assert all(isinstance(c, SparsePoly) for c in got.values())
        else:
            assert got == {key: v.constant_value() for key, v in expected.items()}
            assert all(type(c) is Fraction for c in got.values())

    check()


def _tampered_duals(rng, dual):
    """Tampered copies of a dual generator's coefficient mapping: one scalar
    times 2/3, one unit of some b_i exponent moved onto a_i, one term dropped,
    and a new term with scalar -3/5 at a degree-D monomial outside F."""
    coeffs = dual.coeffs
    keys = sorted(coeffs)
    n = dual.n
    out = []
    alpha = rng.choice(keys)
    cm = coeffs[alpha]
    out.append({**coeffs, alpha: CoeffMonomial(cm.scalar * Fraction(2, 3), cm.a_exp, cm.b_exp)})
    movable = [(key, i) for key in keys for i in range(n) if coeffs[key].b_exp[i]]
    if movable:
        alpha, i = rng.choice(movable)
        cm = coeffs[alpha]
        unit = tuple(int(j == i) for j in range(n))
        moved = CoeffMonomial(cm.scalar, tuple(map(sum, zip(cm.a_exp, unit))), tuple(b - u for b, u in zip(cm.b_exp, unit)))
        out.append({**coeffs, alpha: moved})
    if len(keys) > 1:
        out.append({key: cm for key, cm in coeffs.items() if key != rng.choice(keys)})
    missing = [e for e in exponents_of_degree(n, dual.socle_degree) if e not in coeffs]
    if missing:
        out.append({**coeffs, rng.choice(missing): CoeffMonomial(Fraction(-3, 5), (0,) * n, (0,) * n)})
    return out


def _substituted_reference(fam, coeffs):
    """The family's values put into each coefficient monomial, as in TestDualViews."""
    terms = {alpha: cm.substitute(fam.a_values, fam.b_values).to_sparse() for alpha, cm in coeffs.items()}
    return {alpha: poly for alpha, poly in terms.items() if not poly.is_zero()}


class TestGuardBitKernel:
    """The contraction-only packed kernel: tampered dual generator forms,
    guard-bit edges and lane switch points."""

    @pytest.mark.parametrize("convention", [CONTRACTION, DIFFERENTIATION])
    def test_tampered_dual_generators_match_the_reference(self, convention):
        rng = random.Random(33)
        differentiate = convention == DIFFERENTIATION
        modes, nonzero = set(), 0
        for fam in _view_families():
            for bad in _tampered_duals(rng, dual_generator(fam, convention)):
                F = _substituted_reference(fam, bad)
                got = verify_annihilation(fam, F, convention)
                assert got.residuals == _reference_residuals(fam, F, differentiate)
                nonzero += bool(got.residuals)
            modes.add(fam.coeff_mode)
        assert modes == {"symbolic", "mixed", "numeric"}
        assert nonzero > 20

    @pytest.mark.parametrize("convention", [CONTRACTION, DIFFERENTIATION])
    def test_negative_exponents_raise_naming_the_term(self, convention):
        symbolic = three_var_chain()
        mixed = specialize(symbolic, CoeffAssignment((Fraction(2),) + (None,) * 2, (None,) * 3))
        for fam in (symbolic, mixed):
            coeffs = dual_generator(fam, convention).coeffs
            alpha = max(coeffs)
            cm = coeffs[alpha]
            negative_a1 = CoeffMonomial(cm.scalar, (-1,) + cm.a_exp[1:], cm.b_exp)
            with pytest.raises(ValueError, match="Laurent exponents cannot be converted to a polynomial"):
                verify_annihilation(fam, {**coeffs, alpha: negative_a1}, convention)
            with pytest.raises(ValueError, match=re.escape("exponent vector (-1, 2, 2) must hold nonnegative integers")):
                verify_annihilation(fam, {**coeffs, (-1, 2, 2): cm}, convention)

    @pytest.mark.parametrize(
        "top, nb, conventions",
        [
            (63, 1, (CONTRACTION, DIFFERENTIATION)),
            (64, 2, (CONTRACTION, DIFFERENTIATION)),
            (16383, 2, (CONTRACTION, DIFFERENTIATION)),
            (16384, 4, (CONTRACTION,)),
            (2**30 - 1, 4, (CONTRACTION,)),
            (2**62 - 1, 8, (CONTRACTION,)),
        ],
    )
    def test_divisibility_at_the_lane_edges(self, top, nb, conventions):
        # alpha_i = gamma_i passes and alpha_i = gamma_i - 1 fails, with
        # symbol exponents that sum to 2 * top in the product
        assert _lane_bytes(top) == nb
        n = 2
        sym = SparsePoly.monomial(n, (top, 0), (0, 1))
        f = {(top, 0): sym, (0, top): Fraction(-2, 3), (1, 1): 5}
        F = {(top, 1): sym, (top - 1, 2): 3, (1, top): Fraction(7, 2), (2, top - 1): sym, (top, top): 1}
        for convention in conventions:
            got = apply_action(f, F, convention)
            assert got == _reference_action(f, F, convention == DIFFERENTIATION, n)
            assert list(got[(0, 1)].terms) == [(2 * top, 0, 0, 2)]

    def test_the_widest_lane_is_the_limit(self):
        assert _lane_bytes(2**62 - 1) == 8
        with pytest.raises(ValueError, match="too large"):
            _lane_bytes(2**62)
        with pytest.raises(ValueError, match="too large"):
            apply_action({(1, 0): 1}, {(2**62, 0): 1})


class TestHandBuiltDuals:
    """A DualGenerator holds only its family and convention: every view reads
    the family's in-tree, whatever is done to a `coeffs` dict read from it."""

    @pytest.mark.parametrize("convention", [CONTRACTION, DIFFERENTIATION])
    def test_writing_into_coeffs_changes_no_view(self, convention):
        fam = three_var_chain()
        dual = dual_generator(fam, convention)
        text, data = str(dual), dual_to_json(dual)
        assert verify_annihilation(fam, dual, convention).ok
        cm = dual.coeffs[(3, 0, 0)]
        dual.coeffs[(3, 0, 0)] = CoeffMonomial(cm.scalar, (-1,) + cm.a_exp[1:], cm.b_exp)
        assert dual.coeffs[(3, 0, 0)] == cm
        assert str(dual) == text and "^-1" not in text
        assert dual_to_json(dual) == data
        assert verify_annihilation(fam, dual, convention).ok

    def test_a_replaced_family_reads_its_own_tree(self, double_cycle):
        for convention in (CONTRACTION, DIFFERENTIATION):
            dual = dual_generator(three_var_chain(), convention)
            moved = dataclasses.replace(dual, family=double_cycle)
            assert moved.s == s_vector(double_cycle) != dual.s
            assert str(moved) == str(dual_generator(double_cycle, convention)) != str(dual)
            assert verify_annihilation(double_cycle, moved, convention).ok

    def test_only_the_family_and_the_convention_are_fields(self):
        dual = dual_generator(three_var_chain())
        assert [f.name for f in dataclasses.fields(dual) if f.init] == ["family", "convention"]
        assert dual == DualGenerator(three_var_chain(), CONTRACTION)
        with pytest.raises(TypeError):
            dataclasses.replace(dual, coeffs={})
        with pytest.raises(ValueError, match="convention"):
            dataclasses.replace(dual, convention="laplace")

    def test_no_view_builds_a_coefficient_monomial(self, monkeypatch):
        fams = [three_var_chain(), specialize(three_var_chain(), CoeffAssignment((Fraction(2),) * 3, (Fraction(-1, 3),) * 3))]
        monkeypatch.setattr(CoeffMonomial, "_raw", lambda *args: pytest.fail("a CoeffMonomial was built"))
        monkeypatch.setattr(CoeffMonomial, "__init__", lambda *args: pytest.fail("a CoeffMonomial was built"))
        for fam in fams:
            for convention in (CONTRACTION, DIFFERENTIATION):
                dual = dual_generator(fam, convention)
                dual._substituted()
                str(dual)
                dual_to_json(dual)
                assert verify_annihilation(fam, dual, convention).ok
                if fam.is_numeric:
                    dict(dual.evaluate())

    def test_a_replaced_copy_reads_like_the_generated_dual(self):
        for fam in _view_families():
            for convention in (CONTRACTION, DIFFERENTIATION):
                dual = dual_generator(fam, convention)
                copy = dataclasses.replace(dual)
                assert copy == dual and copy._substituted() == dual._substituted()
                assert str(copy) == str(dual)
                assert verify_annihilation(fam, copy, convention) == verify_annihilation(fam, dual, convention)


def _outcome(check, *args):
    """check(*args), or the type and message of the error it raises."""
    try:
        return check(*args)
    except (ValueError, TypeError) as err:
        return type(err), str(err)


def _assert_integer_forms(fam):
    """Fc and Phi(Fd) at fam's values read one integer form from the in-tree,
    to_int_row of their evaluated values; the other two convention/flag
    pairs read their values."""
    Fc, Fd = (dual_generator(fam, convention).evaluate() for convention in (CONTRACTION, DIFFERENTIATION))
    form = _integer_form(Fc)
    assert _integer_form(Fd, differentiate=True)[0] is form[0]
    assert form[1:] == _integer_form(Fd, differentiate=True)[1:] == (fam.n, fam.socle_degree)
    assert list(form[0].items()) == list(to_int_row(numeric_form(dict(Fc))[0]).items())
    phi = {alpha: c * exponent_factorial(alpha) for alpha, c in numeric_form(dict(Fd))[0].items()}
    assert list(form[0].items()) == list(to_int_row(phi).items())
    assert _integer_form(Fc, differentiate=True) == _integer_form(dict(Fc), differentiate=True)
    assert _integer_form(Fd) == _integer_form(dict(Fd))


def test_in_tree_integer_form_matches_the_scaled_values_on_drawn_families_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        family_strategy(st).filter(lambda fam: fam.is_numeric), st.sampled_from(["drawn", "zero b", "b = a"]), st.integers(0, 3)
    )
    def check(fam, values, j):
        a, b = list(fam.a_values), list(fam.b_values)
        if values == "zero b":
            b[j % fam.n] = 0
        elif values == "b = a":
            b = a
        _assert_integer_forms(BinomialFamily.numeric(fam.degrees, fam.tails, a, b))

    check()


class TestEvaluatedDual:
    """DualGenerator.evaluate() is a read-only mapping that keeps its dual:
    every reader gets what it gets from the plain dict of its values."""

    @pytest.mark.parametrize("convention", [CONTRACTION, DIFFERENTIATION])
    def test_the_view_equals_its_dict(self, convention):
        for fam in [fam for fam in _view_families() if fam.is_numeric]:
            dual = dual_generator(fam, convention)
            F = dual.evaluate()
            expected = {alpha: Fraction(q) for alpha, (_, q) in dual._substituted().items()}
            assert isinstance(F, Mapping) and F.dual is dual
            assert F == expected and expected == F and dict(F) == expected
            assert list(F.items()) == list(expected.items()) and len(F) == len(expected)
            assert all(type(v) is Fraction for v in F.values())

    def test_the_view_is_read_only_and_built_once(self, monkeypatch):
        fam = specialize(three_var_chain(), CoeffAssignment((Fraction(2),) * 3, (Fraction(-1, 3),) * 3))
        calls = []
        substituted = DualGenerator._substituted
        monkeypatch.setattr(DualGenerator, "_substituted", lambda dual: calls.append(dual) or substituted(dual))
        F = dual_generator(fam).evaluate()
        assert isinstance(F, EvaluatedForm) and calls == []
        key = next(iter(F))
        with pytest.raises(TypeError):
            F[key] = Fraction(0)
        with pytest.raises(TypeError):
            del F[key]
        assert F[key] is F[key] and dict(F) == dict(F.items()) and len(F) == len(list(F))
        assert calls == [F.dual]

    def test_annihilation_of_an_evaluation_is_that_of_its_dict(self):
        # Checked against its own family and convention an evaluation reads its
        # dual's match; against another convention, another family of the
        # same n or another n it is read as the mapping it is, with the same
        # result or the same error as its dict.
        rng = random.Random(40)
        families = [fam for fam in _view_families() if fam.is_numeric]
        families += [random_family(rng) for _ in range(6)]
        outcomes = set()
        for fam in families:
            others = [random_family(rng, n_range=(fam.n, fam.n)), random_family(rng, n_range=(fam.n % 3 + 2,) * 2)]
            for built in (CONTRACTION, DIFFERENTIATION):
                F = dual_generator(fam, built).evaluate()
                for checked_family in (fam, *others):
                    for checked in (CONTRACTION, DIFFERENTIATION):
                        got = _outcome(verify_annihilation, checked_family, F, checked)
                        assert got == _outcome(verify_annihilation, checked_family, dict(F), checked)
                        outcomes.add(got.ok if isinstance(got, AnnihilationResult) else got[0])
        assert outcomes == {True, False, ValueError}

    @pytest.mark.parametrize("convention", [CONTRACTION, DIFFERENTIATION])
    def test_a_failed_match_of_an_evaluation_leaves_the_residuals_of_its_dict(self, convention):
        rng = random.Random(41)
        tampered = failed = 0
        while tampered < 6:
            fam = random_family(rng)
            dual = dual_generator(fam, convention)
            if not (movable := _movable(dual)):
                continue
            bad = _tampered(dual, *rng.choice(movable))
            F = bad.evaluate()
            assert not _reference_match(bad)
            got = verify_annihilation(fam, F, convention)
            assert got == verify_annihilation(fam, dict(F), convention)
            tampered += 1
            failed += not got.ok
        assert failed

    def test_rank_oracles_agree_on_the_view_and_its_dict(self, ci_corpus):
        rng = random.Random(42)
        families = ci_corpus[:6] + [random_family(rng) for _ in range(4)]
        for fam in families:
            for convention in (CONTRACTION, DIFFERENTIATION):
                F = dual_generator(fam, convention).evaluate()
                plain = dict(F)
                top = fam.socle_degree
                assert inverse_system_dims(F, top + 1) == inverse_system_dims(plain, top + 1)
                assert m_spans_ann_quotient(fam, F) == m_spans_ann_quotient(fam, plain)
                assert slp_check(F, trials=2, rng=random.Random(1)) == slp_check(plain, trials=2, rng=random.Random(1))
                assert [monomial_basis(F, k) for k in range(top + 1)] == [monomial_basis(plain, k) for k in range(top + 1)]


def _rendered_by_polynomials(F):
    """dual_to_json's terms and str(F) as printed from one SparsePoly per
    term of `sparse_terms`: the reference of the shared renderer."""
    terms = F.sparse_terms()
    keys = sorted(terms, reverse=True)
    json_terms = [{"alpha": list(key), "coeff": str(terms[key])} for key in keys]
    text = " + ".join(f"{terms[key]}*{Monomial(key).render('X')}" for key in keys) or "0"
    return json_terms, text


def test_the_dual_renderer_prints_what_sparse_terms_print_on_drawn_families_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        family_strategy(st),
        st.sampled_from(["as drawn", "mixed", "zero b", "b = -a"]),
        st.integers(0, 3),
        st.sampled_from([CONTRACTION, DIFFERENTIATION]),
    )
    def check(fam, values, j, convention):
        a, b = list(fam.a_values), list(fam.b_values)
        j %= fam.n
        if values == "mixed":  # one free symbol in each block, values elsewhere
            a = [Fraction(-3, 2) if v is None else v for v in a]
            b = [Fraction(5) if v is None else v for v in b]
            a[j], b[(j + 1) % fam.n] = None, None
        elif values == "zero b":
            b[j] = Fraction(0)
        elif values == "b = -a":
            b = [None if v is None else -v for v in a]
        F = dual_generator(BinomialFamily(fam.n, fam.degrees, fam.tails, tuple(a), tuple(b)), convention)
        json_terms, text = _rendered_by_polynomials(F)
        assert dual_to_json(F)["terms"] == json_terms
        assert str(F) == text

    check()


def test_dual_to_json_builds_no_sparse_poly(double_cycle, monkeypatch):
    duals = [dual_generator(fam) for fam in (double_cycle, specialize(double_cycle, CoeffAssignment.of(3, a1=2, b2="-1/3")))]
    expected = [(dual_to_json(F), str(F)) for F in duals]

    def refuse(*args, **kwargs):
        raise AssertionError("a SparsePoly was built")

    monkeypatch.setattr(SparsePoly, "_raw", classmethod(refuse))
    monkeypatch.setattr(SparsePoly, "__init__", refuse)
    assert [(dual_to_json(F), str(F)) for F in duals] == expected
