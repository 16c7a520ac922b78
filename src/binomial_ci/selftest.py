"""Golden self-test suite over the built-in example families.

Each check recomputes a known exact value (graph shapes, cycle polynomials,
reduction coefficients, dual generators, determinants, radicals, Hilbert
functions, Hessian ranks) and compares for exact equality.
"""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

from . import catalog
from .algebra import (
    CoeffMonomial,
    Monomial,
    SparsePoly,
    exponent_factorial,
    monomials_of_degree,
    multinomial,
    numeric_form,
    poly_divides,
)
from .dual import CONTRACTION, DIFFERENTIATION, _in_tree, apply_action, dual_generator, s_vector, verify_annihilation
from .family import CoeffAssignment, parse_family, parse_monomial, specialize
from .graph import build_graph, graph_cycle_polynomial
from .keys import _lane_bytes
from .lefschetz import monomial_basis
from .linalg import RowSpace, rank_of, to_int_row
from .oracle import (
    _catalecticant_rows,
    _integer_form,
    basis_check,
    hilbert_function,
    inverse_system_dims,
    is_complete_intersection,
    m_spans_ann_quotient,
    macaulay_kernel,
)
from .reference import action_image, catalecticant_rows, hessian, in_tree_match, macaulay_rows
from .resultant import det_numeric_oracle, det_structural, radical_of_cycle_product, resultant_radical
from .rewrite import TO_BASIS, TO_CYCLE, certificate, certificate_residual, check_certificate, reduce_monomial, reduce_polynomial


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
        # the check replays the walk; the expansion reads the steps it built
        if not check_certificate(fam, cert) or _sparse_residual(fam, cert):
            return False
    out = reduce_monomial(famA, parse_monomial("x1*x2*x3^2", 3))
    return out.kind == TO_CYCLE


def _sparse_residual(fam, cert) -> dict:
    """The certificate identity expanded with SparsePoly arithmetic."""
    n = fam.n
    acc: dict = {}

    def put(mono, poly):
        acc[mono] = acc.get(mono, SparsePoly.zero(n)) + poly

    put(cert.input, cert.a_product.to_sparse())
    for step in cert.steps:
        i = step.gen_index
        scale = step.scale.to_sparse()
        put(step.multiplier * fam.lead_monomial(i), -(scale * SparsePoly.symbol_a(n, i)))
        put(step.multiplier * fam.tails[i - 1], scale * SparsePoly.symbol_b(n, i))
    put(cert.rhs_monomial, -cert.rhs_coeff.to_sparse())
    return {m: p for m, p in acc.items() if not p.is_zero()}


def _check_packed_residual() -> bool:
    # The packed residual of certificate_residual against a SparsePoly
    # expansion, on certificates of the catalog families with one step's
    # scale, multiplier or generator index changed.  A scale exponent of 255
    # on a_i, plus the a_i of f_i, sums past one byte (the packed lanes keep
    # a guard bit, so here they are 2 bytes wide).  A certificate as
    # `certificate` returns it checks by replaying its walk, its steps
    # expand to zero, and with its a_product or rhs_monomial replaced it
    # gets the expansion's residual.
    for fam in (
        catalog.three_var_double_cycle(),
        catalog.three_var_chain(),
        catalog.two_var_loop(),
        catalog.five_var_pentagon(),
    ):
        n = fam.n
        zero = (0,) * n
        for m in monomials_of_degree(fam.n, fam.resultant_degree)[::7]:
            cert = certificate(fam, m)
            if certificate_residual(fam, cert) or _sparse_residual(fam, cert):
                return False
            for bad in (
                dataclasses.replace(cert, a_product=cert.a_product * CoeffMonomial(Fraction(2, 3), zero, zero)),
                dataclasses.replace(cert, rhs_monomial=cert.rhs_monomial * Monomial.variable(n, 1)),
            ):
                residual = certificate_residual(fam, bad)
                if not residual or residual != _sparse_residual(fam, bad):
                    return False
            for s, step in enumerate(cert.steps):
                for new in (
                    dataclasses.replace(step, scale=step.scale * CoeffMonomial(Fraction(2, 3), zero, zero)),
                    dataclasses.replace(step, scale=CoeffMonomial(Fraction(1), Monomial.variable(n, step.gen_index, 255).exponents, zero)),
                    dataclasses.replace(step, multiplier=step.multiplier * Monomial.variable(n, 1 + s % n)),
                    dataclasses.replace(step, gen_index=step.gen_index % n + 1),
                ):
                    bad = dataclasses.replace(cert, steps=cert.steps[:s] + (new,) + cert.steps[s + 1 :])
                    residual = certificate_residual(fam, bad)
                    if not residual or residual != _sparse_residual(fam, bad):
                        return False
    return True


def _check_s_vector() -> bool:
    return s_vector(catalog.three_var_double_cycle()) == (2, 1, 1)


def _tuple_walk(fam, m: Monomial, k: int | None = None) -> tuple[str, tuple[int, ...], Monomial]:
    """(kind, labels, end) of the rewriting walk from m along labels <= k
    (default n) by the tuple step `BinomialFamily.step`, as `reduce_monomial`
    reports them."""
    labels, seen = [], {m}
    while (step := fam.step(m, k)) is not None:
        label, m = step
        labels.append(label)
        if m in seen:
            return TO_CYCLE, tuple(labels), m
        seen.add(m)
    return TO_BASIS, tuple(labels), m


def _catalog_families():
    return (
        catalog.three_var_double_cycle(),
        catalog.three_var_chain(),
        catalog.two_var_loop(),
        catalog.five_var_pentagon(),
        catalog.five_var_pentagon_alt(),
    )


def _steps(g) -> list:
    """The graph's (label, successor) per vertex, None at a sink: the shape
    of `BinomialFamily.step`."""
    return [s if s is None else (label, g.vertices[s]) for s, label in zip(g.succ, g.labels)]


def _check_in_tree() -> bool:
    # The packed graph, the rewriting walk and the reverse search all read
    # `keys.rule`; check them against the tuple rule `BinomialFamily.step`:
    # the graph's labels and successors at the socle and resultant degrees,
    # and the walks from every socle-degree monomial, and the in-tree
    # against those of them that end at the top basis monomial.  Families
    # of equal degrees share one label table (`keys.degree_labels`): each
    # pair is also built back to back from the warm table.
    families = _catalog_families()
    for first, second in ((families[0], families[1]), (families[3], families[4])):
        for d in (first.socle_degree, first.resultant_degree):
            pair = [build_graph(fam, d) for fam in (first, second)]
            if pair[0].labels is not pair[1].labels:
                return False
            if any(_steps(g) != [fam.step(m) for m in g.vertices] for fam, g in zip((first, second), pair)):
                return False
    for fam in families:
        for d in (fam.socle_degree, fam.resultant_degree):
            g = build_graph(fam, d)
            if _steps(g) != [fam.step(m) for m in g.vertices]:
                return False
        target = Monomial(tuple(d - 1 for d in fam.degrees))
        walks = {}
        for m in monomials_of_degree(fam.n, fam.socle_degree):
            kind, labels, end = _tuple_walk(fam, m)
            out = reduce_monomial(fam, m)
            if (out.kind, out.path_labels, out.basis_monomial or out.cycle_entry) != (kind, labels, end):
                return False
            if kind == TO_BASIS and end == target:
                walks[m.exponents] = tuple(map(labels.count, range(1, fam.n + 1)))
        tree, s = _in_tree(fam)[:2]
        if tree != walks or s != tuple(map(max, zip(*walks.values()))):
            return False
    return True


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


def _check_match() -> bool:
    # The search's verdict on a dual's in-tree is the reference match's on
    # its {alpha: r}, and both give the verdict the mapping path gives on its
    # terms: on every catalog family under both conventions, and on the
    # chain's tree with one label count raised, which holds a failed verdict.
    for fam in _catalog_families():
        tree, _, annihilated, _ = _in_tree(fam)
        if annihilated != in_tree_match(fam, tree):
            return False
        for convention in (CONTRACTION, DIFFERENTIATION):
            if annihilated != verify_annihilation(fam, dual_generator(fam, convention).sparse_terms(), convention).ok:
                return False
    fam = catalog.three_var_chain()
    dual = dual_generator(fam)
    tree, s, *_ = dual._tree
    tree = dict(tree)
    alpha = next(alpha for alpha, r in tree.items() if r[0] < s[0])
    tree[alpha] = (tree[alpha][0] + 1, *tree[alpha][1:])
    bad = dataclasses.replace(dual)
    object.__setattr__(bad, "_tree", (tree, s, False, []))
    return not in_tree_match(fam, tree) and not verify_annihilation(fam, bad).ok


def _check_packed_action() -> bool:
    # apply_action's packed kernel against the tuple-keyed action_image, on
    # the chain's dual with one coefficient scaled by b1 and one term dropped,
    # so some generator leaves a nonzero residual.
    fam = catalog.three_var_chain()
    for convention in (CONTRACTION, DIFFERENTIATION):
        F = dual_generator(fam, convention).sparse_terms()
        keys = sorted(F)
        F[keys[-1]] = F[keys[-1]] * SparsePoly.symbol_b(3, 1)
        del F[keys[0]]
        residuals = 0
        for i in range(1, 4):
            expected: dict = {}
            for gamma, c in fam.generator(i).items():
                for key, v in action_image(F, gamma.exponents, convention == DIFFERENTIATION).items():
                    expected[key] = expected.get(key, SparsePoly.zero(3)) + c * v
            expected = {key: v for key, v in expected.items() if not v.is_zero()}
            if apply_action(fam.generator(i), F, convention) != expected:
                return False
            residuals += bool(expected)
        if not residuals:
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


def _ci_points():
    """(good, bad): the double-cycle family at a CI point and at a non-CI one."""
    fam = catalog.three_var_double_cycle()
    good = specialize(fam, CoeffAssignment.of(3, a1=1, a2=1, a3=1, b1=1, b2=1, b3=2))
    bad = specialize(fam, CoeffAssignment.of(3, a1=1, a2=1, a3=1, b1=1, b2=1, b3=1))
    return good, bad


def _check_ci_points() -> bool:
    good, bad = _ci_points()
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


def _check_packed_catalecticant() -> bool:
    # The packed pairing rows of the contraction catalecticant against the
    # reference rows, built from the tuple-keyed action_image, in 1-byte
    # lanes and, with a dual lifted by X1^64, in 2-byte lanes.  (The
    # differentiation rows are the alpha!-scaled form's: _check_scaled_basis.)
    point = specialize(catalog.three_var_double_cycle(), CoeffAssignment.of(3, a1=2, a2=3, a3=1, b1=5, b2=1, b3=7))
    dual = dual_generator(point, CONTRACTION).evaluate()
    forms = [
        catalog.wlp_failure_form(),
        catalog.pentagon_dual_form_at([2, 3, 5, 7, 11]),
        dual,
        {(e[0] + 64, *e[1:]): c for e, c in dual.items()},
    ]
    lanes = set()
    for F in forms:
        form = _integer_form(F)
        top = form[2]
        lanes.add(_lane_bytes(top))
        for j in sorted({0, 1, 2, top - 2, top - 1, top} & set(range(top + 1))):
            if _catalecticant_rows(*form, j) != catalecticant_rows(form[0], j):
                return False
    return lanes == {1, 2}


def _check_pairing_spans() -> bool:
    # m_spans_ann_quotient ranks the pairing blocks for j <= D/2 only; the
    # definition ranks the avoided-power rows against all of Cat_j at every
    # j.  X1*..*X5 + X1^5 fails only in the middle pair (2, 3).
    pentagon = catalog.five_var_pentagon()
    middle = {(1, 1, 1, 1, 1): 1, (5, 0, 0, 0, 0): 1}
    cases = [(pentagon, catalog.wlp_failure_form()), (pentagon, middle)]
    cases += [(point, dual_generator(point, CONTRACTION).evaluate()) for point in _ci_points()]
    outcomes = set()
    for fam, F in cases:
        top = numeric_form(F)[2]
        expected = all(
            rank_of(catalecticant_rows(F, j)) == rank_of(catalecticant_rows(F, j, fam.basis_monomials(j)))
            for j in range(top + 1)
        )
        if m_spans_ann_quotient(fam, F) != expected:
            return False
        outcomes.add(expected)
    return outcomes == {True, False}


def _check_kernel_against_rows() -> bool:
    # The union-find kernel behind every Hilbert function, against exact row
    # reduction of the same Macaulay matrices, through degree D + 2.
    fam = catalog.three_var_double_cycle()
    points = [
        specialize(fam, CoeffAssignment.of(3, a1=2, a2=-3, a3=5, b1=7, b2=1, b3=-4)),
        # a2*a3 = b2*b3, and b1 = 0 leaves one-term rows
        specialize(fam, CoeffAssignment.of(3, a1=1, a2=1, a3=1, b1=0, b2=1, b3=1)),
        # a = b and two generators share a tail: many columns meet several
        # rows, and a kernel that reads only the lowest one goes wrong
        parse_family("f1 = -1/3*x1^4 - -1/3*x1^2*x2^2 ; f2 = x2^4 - x1^4 ; f3 = 2*x3^4 - 2*x1^2*x2^2"),
    ]
    for point in points:
        generators = [point.generator_values(i) for i in range(1, 4)]
        top = point.socle_degree + 2
        expected = tuple(math.comb(j + 2, 2) - rank_of(macaulay_rows(3, generators, j)) for j in range(top + 1))
        if hilbert_function(point, top).values != expected:
            return False
    # A zeroed a_k (the radical's probe points, which no family holds) and a
    # zeroed b_k each leave f_k one term, -b_k x^v or a_k x^u: the kernel
    # itself, its rank and each column's membership, against the rows.
    point = points[0]
    tails = [t.exponents for t in point.tails]
    for k in range(3):
        for zeroed in "ab":
            a, b = list(point.a_values), list(point.b_values)
            (a if zeroed == "a" else b)[k] = 0
            generators = [{point.lead_monomial(i + 1): a[i], point.tails[i]: -b[i]} for i in range(3)]
            for j in range(point.socle_degree + 3):
                kernel = macaulay_kernel(point.degrees, tails, a, b, j)
                space = RowSpace()
                for row in macaulay_rows(3, generators, j):
                    space.add(row)
                if kernel.rank != space.rank:
                    return False
                if any(kernel.contains_column(x) != space.contains({x: 1}) for x in range(len(kernel.root))):
                    return False
    return True


def _check_scaled_basis() -> bool:
    # monomial_basis reads the contraction catalecticant of the alpha!-scaled
    # form; a greedy pass over the differentiation rows themselves must pick
    # the same monomials in every degree.
    fam = specialize(catalog.three_var_double_cycle(), CoeffAssignment.of(3, a1=2, a2=3, a3=1, b1=5, b2=1, b3=7))
    forms = [
        catalog.wlp_failure_form(),
        catalog.pentagon_dual_form_at([2, 3, 5, 7, 11]),
        dual_generator(fam, DIFFERENTIATION).evaluate(),
    ]
    for F in forms:
        _, n, top = numeric_form(F)
        for k in range(top + 1):
            candidates = monomials_of_degree(n, k)
            space = RowSpace()
            rows = catalecticant_rows(F, k, candidates, convention=DIFFERENTIATION)
            if monomial_basis(F, k) != [m for m, row in zip(candidates, rows) if space.add(row)]:
                return False
    return True


def _check_evaluated_integer_form() -> bool:
    # An evaluated dual's rank oracles read the coprime integer form its dual
    # builds from the in-tree, one per family for Fc and Phi(Fd); it must be
    # to_int_row of the evaluated values, with a negative b and a zero b.
    kept = []
    for b in ((Fraction(-1, 3), 4, Fraction(5, 2), -2, 7), (2, Fraction(-3, 4), 0, 1, 5)):
        point = specialize(catalog.five_var_pentagon(), CoeffAssignment((None,) * 5, tuple(map(Fraction, b))))
        for convention in (CONTRACTION, DIFFERENTIATION):
            F = dual_generator(point, convention).evaluate()
            terms, n, top = numeric_form(dict(F))
            if convention == DIFFERENTIATION:
                terms = {alpha: c * exponent_factorial(alpha) for alpha, c in terms.items()}
            form = _integer_form(F, convention == DIFFERENTIATION)
            if list(form[0].items()) != list(to_int_row(terms).items()) or form[1:] != (n, top):
                return False
            kept.append(form[0])
    return kept[0] is kept[1] and kept[2] is kept[3] and kept[0] != kept[2]


def _check_small_values() -> bool:
    return multinomial(3, (1, 1, 1)) == 6 and multinomial(3, (2, 1, 0)) == 3


CHECKS = [
    ("degree-4 double-cycle graph shape", _check_double_cycle_graph),
    ("cycle polynomial and its radical", _check_cycle_polynomial),
    ("degree-3 chain graph funnels to x1*x2*x3", _check_chain_graph),
    ("reduction of x1^2*x2 with coefficient b1^2*b2/(a1^2*a2)", _check_chain_reduction),
    ("reduction certificates expand to zero", _check_certificates),
    ("packed certificate residual vs SparsePoly on tampered certificates", _check_packed_residual),
    ("s vector of the double-cycle family", _check_s_vector),
    ("dual generators, both conventions, term for term", _check_dual_generators),
    ("packed graph, rewriting walk and socle in-tree vs the tuple rewrite step", _check_in_tree),
    ("symbolic annihilation of constructed duals", _check_annihilation),
    ("in-tree verdict and reference match vs the mapping path, catalog and tampered trees", _check_match),
    ("packed action kernel vs action_image on a perturbed dual", _check_packed_action),
    ("structural determinant vs numeric oracle", _check_structural_determinant),
    ("radical of the resultant", _check_resultant_radical),
    ("b = 0 collapse of dual and radical", _check_zero_tail_collapse),
    ("pentagon family: radical, Hilbert, annihilation, Hessians", _check_pentagon),
    ("alternate pentagon: inverse-system dims at the special locus", _check_pentagon_alt_dims),
    ("WLP failure form: deficient Hessian, spanning fails", _check_wlp_failure),
    ("complete-intersection test points", _check_ci_points),
    ("packed catalecticant rows vs action_image, 1- and 2-byte lanes", _check_packed_catalecticant),
    ("pairing spanning test over half the degrees vs two ranks", _check_pairing_spans),
    ("Macaulay kernel vs row reduction, generic and degenerate", _check_kernel_against_rows),
    ("differentiation basis from the alpha!-scaled form vs greedy rows", _check_scaled_basis),
    ("evaluated pentagon duals: in-tree integer form vs their scaled values", _check_evaluated_integer_form),
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
