import dataclasses
import math
import random
import re
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
    monomials_of_degree,
    multinomial,
    parse_family,
    reduce_monomial,
    s_vector,
    specialize,
    verify_annihilation,
)
from binomial_ci.catalog import five_var_pentagon, pentagon_dual_form, three_var_chain
from binomial_ci.algebra import MONOMIAL_BUDGET, exponents_of_degree
from binomial_ci import dual as dual_module
from binomial_ci.dual import _in_tree, dual_to_json
from binomial_ci.keys import _lane_bytes, _pack, rule
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
            tree, s = _in_tree(fam)
            expected_tree, expected_s = _forward_in_tree(fam)
            assert list(tree.items()) == list(expected_tree.items())
            assert s == expected_s == s_vector(fam)
            for convention in (CONTRACTION, DIFFERENTIATION):
                dual = dual_generator(fam, convention)
                assert dual.s == s
                assert list(dual.coeffs) == list(expected_tree)

    def test_every_tree_edge_is_a_rewrite_step(self, ci_corpus):
        for fam in _tree_families(ci_corpus):
            tree, _ = _in_tree(fam)
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
        tree, s = _in_tree(fam)
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
            tree, s = _in_tree(fam)
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


class TestPackedDualFeed:
    """verify_annihilation packs a DualGenerator straight from its in-tree."""

    def test_s_past_the_socle_degree(self):
        fam = _lane_edge_families()[0]
        assert (fam.socle_degree, s_vector(fam)) == (11, (5, 2, 35))

    def test_lane_edges_read_the_same_terms_as_sparse_terms(self):
        nonzero = 0
        for fam in _lane_edge_families():
            for built in (CONTRACTION, DIFFERENTIATION):
                dual = dual_generator(fam, built)
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
        # The lanes must hold the other family's degrees as well as F's own.
        # Under differentiation the packed path contracts F's contraction
        # terms and scales the entry at X^k by D!/k!, while the mapping path
        # contracts the alpha!-scaled terms and divides by k!; seeded random
        # pairs, symbolic and numeric, add other shapes.
        small = parse_family("f1 = a1*x1^2 - b1*x1*x2 ; f2 = a2*x2^2 - b2*x1^2")
        wide = parse_family("f1 = a1*x1^300 - b1*x2^300 ; f2 = a2*x2^2 - b2*x1*x2")
        pairs = [(small, wide)] + [(fam, small) for fam in _lane_edge_families()[3:]]
        rng = random.Random(36)
        for numeric in (False, True) * 3:
            fam = random_family(rng, numeric=numeric)
            pairs.append((fam, random_family(rng, numeric=numeric, n_range=(fam.n, fam.n))))
        # Checking (fam, other, fam) in a row: no check may read the pass
        # that `verify_annihilation` kept from the other family's.
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
            tree = dict(dual._tree)
            movable = [(alpha, j) for alpha, r in tree.items() for j in range(fam.n) if r[j] < dual.s[j]]
            alpha, j = rng.choice(movable)
            tree[alpha] = tuple(e + (k == j) for k, e in enumerate(tree[alpha]))
            bad = dataclasses.replace(dual)
            object.__setattr__(bad, "_tree", tree)
            got = verify_annihilation(fam, bad, convention)
            assert not got.ok
            assert got.residuals == verify_annihilation(fam, bad.sparse_terms(), convention).residuals
            assert verify_annihilation(fam, dual, convention).ok  # the cached tree is untouched


class TestOnePassPerTree:
    """Both conventions of a DualGenerator read one packed contraction pass
    per (checked family, tree)."""

    def test_both_conventions_make_one_pass(self, monkeypatch, double_cycle, loop2):
        calls = []
        act = dual_module._act
        monkeypatch.setattr(dual_module, "_act", lambda *args: calls.append(1) or act(*args))
        n = double_cycle.n
        for order in ((CONTRACTION, DIFFERENTIATION), (DIFFERENTIATION, CONTRACTION)):
            dual_module._dual_pass.cache_clear()
            calls.clear()
            for convention in order:
                assert verify_annihilation(double_cycle, dual_generator(double_cycle, convention), convention).ok
            assert len(calls) == n  # one _act per generator, not 2n
        # two families in turn, each with both conventions on one tree: every check recomputes
        duals = {fam: [dual_generator(fam, c) for c in (CONTRACTION, DIFFERENTIATION)] for fam in (double_cycle, loop2)}
        dual_module._dual_pass.cache_clear()
        calls.clear()
        for k in range(2):
            for fam, pair in duals.items():
                assert verify_annihilation(fam, pair[k], pair[k].convention).ok
        assert len(calls) == 2 * (double_cycle.n + loop2.n)


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
                    dual.evaluate()

    def test_a_replaced_copy_reads_like_the_generated_dual(self):
        for fam in _view_families():
            for convention in (CONTRACTION, DIFFERENTIATION):
                dual = dual_generator(fam, convention)
                copy = dataclasses.replace(dual)
                assert copy == dual and copy._substituted() == dual._substituted()
                assert str(copy) == str(dual)
                assert verify_annihilation(fam, copy, convention) == verify_annihilation(fam, dual, convention)
