import math
import random
import time
from fractions import Fraction

import pytest

from binomial_ci import (
    CONTRACTION,
    DIFFERENTIATION,
    BinomialFamily,
    CoeffAssignment,
    Monomial,
    SparsePoly,
    build_graph,
    certificate,
    check_certificate,
    cycle_polynomial,
    det_structural,
    dual_generator,
    graph_cycle_polynomial,
    parse_monomial,
    reduce_monomial,
    resultant_radical,
    s_vector,
    specialize,
    to_dot,
    verify_annihilation,
)
from binomial_ci.algebra import exponents_of_degree, monomials_of_degree
from binomial_ci.keys import _lane_bytes
from binomial_ci.graph import CYCLIC, SINK, TRANSIENT, graph_to_json

from conftest import random_family


def sym_binomial(n, i, j):
    return SparsePoly.symbol_a(n, i) * SparsePoly.symbol_a(n, j) - SparsePoly.symbol_b(
        n, i
    ) * SparsePoly.symbol_b(n, j)


class TestDoubleCycleFamily:
    def test_shape(self, double_cycle):
        g = build_graph(double_cycle, 4)
        assert len(g.vertices) == 15
        assert g.edge_count() == 15
        assert g.sinks() == []
        assert len(g.cycles) == 2
        assert all(c.label_counts == (0, 1, 1) for c in g.cycles)
        assert all(len(c) == 2 for c in g.cycles)

    def test_known_edges(self, double_cycle):
        g = build_graph(double_cycle, 4)
        assert g.successor(parse_monomial("x1^4", 3)) == parse_monomial("x1^3*x3", 3)
        assert g.label(parse_monomial("x1^4", 3)) == 1
        assert g.successor(parse_monomial("x1*x2*x3^2", 3)) == parse_monomial("x1*x2^2*x3", 3)
        assert g.label(parse_monomial("x1*x2*x3^2", 3)) == 3
        assert g.successor(parse_monomial("x3^4", 3)) == parse_monomial("x2*x3^3", 3)

    def test_cycle_polynomial_of_graph(self, double_cycle):
        g = build_graph(double_cycle, 4)
        assert graph_cycle_polynomial(g) == sym_binomial(3, 2, 3) ** 2

    def test_degree_three_graph_has_one_sink_and_one_cycle(self, double_cycle):
        g = build_graph(double_cycle, 3)
        assert g.sinks() == [parse_monomial("x1*x2*x3", 3)]
        assert len(g.cycles) == 1
        assert g.cycles[0].label_counts == (0, 1, 1)


class TestChainFamily:
    def test_all_paths_reach_the_sink(self, chain):
        g = build_graph(chain, 3)
        assert len(g.vertices) == 10
        assert g.edge_count() == 9
        assert g.cycles == ()
        assert g.sinks() == [parse_monomial("x1*x2*x3", 3)]
        assert graph_cycle_polynomial(g) == SparsePoly.one(3)

    def test_vertex_classes(self, chain):
        g = build_graph(chain, 3)
        for m in g.vertices:
            expected = SINK if m == parse_monomial("x1*x2*x3", 3) else TRANSIENT
            assert g.class_of(m) == expected


class TestTwoVariableLoop:
    def test_hand_iterated_cycle(self, loop2):
        g = build_graph(loop2, 3)
        assert len(g.vertices) == 4
        assert len(g.cycles) == 1
        cycle = g.cycles[0]
        assert set(cycle.vertices) == {Monomial((2, 1)), Monomial((1, 2))}
        assert cycle.label_counts == (1, 1)
        assert cycle_polynomial(cycle) == sym_binomial(2, 1, 2)
        # rotation starts at the lex-smallest member
        assert cycle.vertices[0] == Monomial((1, 2))


class TestInvariants:
    def test_vertex_count_is_binomial(self):
        rng = random.Random(1)
        for _ in range(10):
            fam = random_family(rng, numeric=False)
            d = rng.randint(1, 5)
            g = build_graph(fam, d)
            assert len(g.vertices) == math.comb(d + fam.n - 1, fam.n - 1)

    def test_sinks_are_exactly_the_basis_monomials(self):
        rng = random.Random(2)
        for _ in range(10):
            fam = random_family(rng, numeric=False)
            d = rng.randint(1, 5)
            g = build_graph(fam, d)
            expected = {m for m in g.vertices if fam.in_basis(m)}
            assert set(g.sinks()) == expected

    def test_no_sinks_at_the_resultant_degree(self):
        rng = random.Random(3)
        for _ in range(10):
            fam = random_family(rng, numeric=False)
            g = build_graph(fam, fam.resultant_degree)
            assert not g.sinks()

    def test_structure_is_coefficient_independent(self, double_cycle):
        rng = random.Random(4)
        numeric = specialize(
            double_cycle,
            CoeffAssignment(
                tuple(Fraction(rng.randint(1, 9)) for _ in range(3)),
                tuple(Fraction(rng.randint(-9, 9)) for _ in range(3)),
            ),
        )
        g1 = build_graph(double_cycle, 4)
        g2 = build_graph(numeric, 4)
        assert g1.succ == g2.succ
        assert g1.labels == g2.labels
        assert [c.label_counts for c in g1.cycles] == [c.label_counts for c in g2.cycles]

    def test_cycle_polynomials_have_unit_coefficients_on_disjoint_blocks(self):
        rng = random.Random(5)
        for _ in range(10):
            fam = random_family(rng, numeric=False)
            g = build_graph(fam, fam.resultant_degree)
            product = SparsePoly.one(fam.n)
            for c in g.cycles:
                p = cycle_polynomial(c)
                assert len(p.terms) == 2
                assert sorted(p.terms.values()) == [Fraction(-1), Fraction(1)]
                keys = sorted(p.terms)
                # one key purely in the a-block, the other purely in the b-block
                assert all(e == 0 for e in keys[0][: fam.n])
                assert all(e == 0 for e in keys[1][fam.n :])
                product = product * p
            assert product == graph_cycle_polynomial(g)

    def test_every_cyclic_vertex_in_exactly_one_cycle(self):
        rng = random.Random(6)
        for _ in range(10):
            fam = random_family(rng, numeric=False)
            g = build_graph(fam, rng.randint(1, 5))
            counted = [m for c in g.cycles for m in c.vertices]
            assert len(counted) == len(set(counted))
            assert set(counted) == {
                m for m, cls in zip(g.vertices, g.vertex_class) if cls == CYCLIC
            }

    def test_cycles_follow_the_successor_map(self):
        rng = random.Random(7)
        for _ in range(10):
            fam = random_family(rng, numeric=False)
            g = build_graph(fam, rng.randint(1, 5))
            for c in g.cycles:
                for j, m in enumerate(c.vertices):
                    assert g.successor(m) == c.vertices[(j + 1) % len(c)]
                    assert g.label(m) == c.labels[j]
                assert sum(c.label_counts) == len(c)


class TestExports:
    def test_dot_output(self, chain):
        g = build_graph(chain, 3)
        dot = to_dot(g)
        assert dot.startswith("digraph")
        assert dot.count("->") == 9
        assert '"x1^2*x2" -> "x1*x2^2" [label="1"];' in dot
        assert "peripheries" not in dot  # acyclic

    def test_dot_marks_cyclic_vertices(self, double_cycle):
        g = build_graph(double_cycle, 4)
        dot = to_dot(g)
        assert dot.count("peripheries=2") == 4
        assert dot.count("->") == 15

    def test_dot_deterministic(self, double_cycle):
        assert to_dot(build_graph(double_cycle, 4)) == to_dot(build_graph(double_cycle, 4))

    def test_json_dump(self, double_cycle):
        g = build_graph(double_cycle, 4)
        data = graph_to_json(g)
        assert data["d"] == 4
        assert len(data["vertices"]) == 15
        assert len(data["edges"]) == 15
        assert data["cycles"] == [
            {"vertices": ["x1*x2*x3^2", "x1*x2^2*x3"], "r": [0, 1, 1]},
            {"vertices": ["x2*x3^3", "x2^2*x3^2"], "r": [0, 1, 1]},
        ]


# ---------------------------------------------------------------------------
# Differential test: build_graph against the checked public Monomial arithmetic


def exponent_vectors(n, d):
    """Every length-n vector of nonnegative ints summing to d, by recursion."""
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in exponent_vectors(n - 1, d - first):
            yield (first,) + rest


def reference_graph(family, d):
    """Vertices in descending lex order, and each vertex's (label, successor)
    or None: the least i with e_i >= d_i, then (m / x_i^{d_i}) * tail_i."""
    vertices = sorted(
        (Monomial(e) for e in exponent_vectors(family.n, d)),
        key=lambda m: m.exponents,
        reverse=True,
    )
    moves = {}
    for m in vertices:
        moves[m] = None
        for i in range(1, family.n + 1):
            lead = Monomial.variable(family.n, i, family.degrees[i - 1])
            if lead.divides(m):
                moves[m] = (i, (m / lead) * family.tails[i - 1])
                break
    return vertices, moves


def reference_cycles(vertices, moves):
    """Each cycle as (vertices from the lex-smallest one, edge labels), in the
    order of its first vertex among `vertices`."""
    position = {m: k for k, m in enumerate(vertices)}
    on_cycle = set()
    for m in vertices:
        seen = []
        v = m
        while v not in seen and moves[v] is not None:
            seen.append(v)
            v = moves[v][1]
        if v in seen:
            on_cycle.update(seen[seen.index(v):])
    cycles = []
    done = set()
    for m in vertices:
        if m not in on_cycle or m in done:
            continue
        members = [m]
        v = moves[m][1]
        while v != m:
            members.append(v)
            v = moves[v][1]
        done.update(members)
        start = members.index(min(members, key=lambda u: u.exponents))
        rotated = members[start:] + members[:start]
        cycles.append((tuple(rotated), tuple(moves[u][0] for u in rotated)))
    cycles.sort(key=lambda c: position[c[0][0]])
    return cycles, on_cycle


def differential_families():
    """Seeded families with n = 2..6 variables and mixed degrees: random tails,
    pure-power tails x_j^{d_i}, and tails equal to another generator's lead.
    (No one-variable family exists: its only tail candidate is its lead.)"""
    rng = random.Random(20261018)
    families = []
    for n in range(2, 7):
        for kind in ("random", "pure power", "other lead"):
            for _ in range(2):
                degrees = [rng.randint(1, 3 if n < 6 else 2) for _ in range(n)]
                if kind == "other lead":
                    degrees[1] = degrees[0]
                tails = []
                for i, di in enumerate(degrees):
                    lead = Monomial.variable(n, i + 1, di)
                    others = [j for j in range(n) if j != i]
                    if kind == "pure power" or (kind == "other lead" and i < 2):
                        j = (1 - i) if kind == "other lead" else rng.choice(others)
                        tail = Monomial.variable(n, j + 1, di)
                    else:
                        tail = lead
                        while tail == lead:
                            tail = Monomial(rng.choice(list(exponent_vectors(n, di))))
                    tails.append(tail)
                families.append(BinomialFamily.symbolic(degrees, tails))
    return families


def test_build_graph_matches_checked_reference():
    compared = 0
    cycles_seen = 0
    for family in differential_families():
        top = family.resultant_degree
        for d in sorted({0, 1, family.socle_degree, top}):
            g = build_graph(family, d)
            vertices, moves = reference_graph(family, d)
            cycles, on_cycle = reference_cycles(vertices, moves)
            assert list(g.vertices) == vertices
            assert all(type(e) is int for m in g.vertices for e in m.exponents)
            position = {m: k for k, m in enumerate(vertices)}
            assert list(g.succ) == [
                None if moves[m] is None else position[moves[m][1]] for m in vertices
            ]
            assert list(g.labels) == [None if moves[m] is None else moves[m][0] for m in vertices]
            assert list(g.vertex_class) == [
                SINK if moves[m] is None else CYCLIC if m in on_cycle else TRANSIENT
                for m in vertices
            ]
            assert [(c.vertices, c.labels) for c in g.cycles] == cycles
            for c in g.cycles:
                assert c.label_counts == tuple(c.labels.count(i) for i in range(1, family.n + 1))
            for m in g.vertices:
                move = family.step(m)
                if move is None:
                    assert g.successor(m) is None and g.label(m) is None
                else:
                    assert move == (g.label(m), g.successor(m))
            compared += len(vertices)
            cycles_seen += len(cycles)
    assert compared > 3000 and cycles_seen > 100


GRAPH_FIELDS = ("d", "vertices", "index", "succ", "labels", "vertex_class", "cycles")


class TestGraphCache:
    def test_cached_graph_equals_an_uncached_build(self, ci_corpus):
        rng = random.Random(31)
        families = list(ci_corpus) + [random_family(rng, numeric=rng.random() < 0.5) for _ in range(15)]
        for family in families:
            for d in (family.socle_degree, family.resultant_degree):
                cached = build_graph(family, d)
                fresh = build_graph.__wrapped__(family, d)
                assert build_graph(family, d) is cached
                assert cached is not fresh
                assert cached.family == family
                for name in GRAPH_FIELDS:
                    assert getattr(cached, name) == getattr(fresh, name), name

    def test_other_coefficients_get_their_own_family(self, double_cycle):
        d = double_cycle.resultant_degree
        symbolic = build_graph(double_cycle, d)
        values = CoeffAssignment.of(3, a1=1, a2=2, a3=3, b1=4, b2=5, b3=6)
        numeric = specialize(double_cycle, values)
        assert numeric.tails == double_cycle.tails and numeric != double_cycle
        g = build_graph(numeric, d)
        assert g.family == numeric
        assert g.family.a_values == (1, 2, 3)
        assert build_graph(double_cycle, d).family == double_cycle
        assert symbolic.succ == g.succ

    def test_negative_degree_raises_on_every_call(self, chain):
        for _ in range(3):
            with pytest.raises(ValueError, match="nonnegative"):
                build_graph(chain, -1)

    def test_the_dual_builds_no_graph(self, pentagon):
        build_graph.cache_clear()
        for convention in (CONTRACTION, DIFFERENTIATION):
            dual_generator(pentagon, convention)
        s_vector(pentagon)
        assert build_graph.cache_info().misses == 0

    def test_a_structure_job_builds_one_graph(self, pentagon):
        family = pentagon
        build_graph.cache_clear()
        build_graph(family, family.resultant_degree)
        det_structural(family)
        resultant_radical(family)
        for convention in (CONTRACTION, DIFFERENTIATION):
            F = dual_generator(family, convention)
            assert verify_annihilation(family, F, convention).ok
        m = Monomial.variable(family.n, 1, family.socle_degree)
        reduce_monomial(family, m)
        assert check_certificate(family, certificate(family, m))
        info = build_graph.cache_info()
        assert (info.misses, info.hits, info.maxsize) == (1, 2, 1)


# ---------------------------------------------------------------------------
# The packed build: exponent tuples from the odometer, successors by packed keys


def _packed_build_families():
    """Seeded random families, plus two-variable ones whose resultant degrees
    (69, 134 and 16499) pass the 1- and 2-byte packed lanes."""
    rng = random.Random(20261019)
    families = [random_family(rng, numeric=rng.random() < 0.5) for _ in range(12)]
    for d1, d2 in ((40, 30), (70, 65), (9000, 7500)):
        t, u = rng.randrange(d1), rng.randint(1, d2)
        tails = [Monomial((t, d1 - t)), Monomial((u, d2 - u))]
        families.append(BinomialFamily.symbolic([d1, d2], tails))
    return families


class TestPackedBuild:
    def test_successors_and_labels_follow_family_step(self):
        widths = set()
        for family in _packed_build_families():
            for d in sorted({1, family.socle_degree, family.resultant_degree}):
                g = build_graph.__wrapped__(family, d)
                for v, e in enumerate(g.exponents):
                    move = family.step(Monomial(e))
                    if move is None:
                        assert g.succ[v] is None and g.labels[v] is None
                    else:
                        assert (g.labels[v], g.exponents[g.succ[v]]) == (move[0], move[1].exponents)
                widths.add(_lane_bytes(max(d, *family.degrees)))
        assert widths == {1, 2, 4}

    def test_vertices_and_index_are_built_on_first_read(self, double_cycle):
        for family in _packed_build_families()[:6] + [double_cycle]:
            d = family.resultant_degree
            g = build_graph.__wrapped__(family, d)
            assert "vertices" not in g.__dict__ and "index" not in g.__dict__
            assert list(g.vertices) == monomials_of_degree(family.n, d)
            assert g.vertices is g.vertices
            assert [g.index[m.exponents] for m in g.vertices] == list(range(len(g.vertices)))
            assert [g.vertices[v] for v in g.index.values()] == list(g.vertices)

    def test_a_structure_job_builds_no_vertices(self, pentagon):
        build_graph.cache_clear()
        det_structural(pentagon)
        resultant_radical(pentagon)
        g = build_graph(pentagon, pentagon.resultant_degree)
        assert g.cycles and "vertices" not in g.__dict__ and "index" not in g.__dict__

    def test_odometer_matches_the_recursive_enumeration(self):
        for n in range(1, 9):
            for d in range(9):
                expected = list(exponent_vectors(n, d))
                assert expected == sorted(expected, reverse=True)
                assert exponents_of_degree(n, d) == expected
                assert [m.exponents for m in monomials_of_degree(n, d)] == expected

    def test_many_variables_at_degree_one_is_fast(self):
        start = time.perf_counter()
        exps = exponents_of_degree(1500, 1)
        assert time.perf_counter() - start < 1.0
        assert len(exps) == 1500 and exps[0][0] == 1 and exps[-1][-1] == 1
        assert all(sum(e) == 1 for e in exps)
