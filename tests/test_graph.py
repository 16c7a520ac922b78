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
from binomial_ci import oracle
from binomial_ci.algebra import MONOMIAL_BUDGET, exponents_of_degree, monomials_of_degree
from binomial_ci.keys import _lane_bytes, _pack_all, degree_keys, degree_labels, rule
from binomial_ci.graph import CYCLIC, SINK, TRANSIENT, graph_to_json

from conftest import family_strategy, random_family


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




class TestCycleSummary:
    """The per-graph cycle summary (cycle types r -> k and off-cycle label
    counts e) against its per-vertex definitions, at the socle and resultant
    degrees of seeded random families and of the double cycle, whose two
    cycles share the type (0, 1, 1)."""

    @staticmethod
    def graphs(double_cycle):
        rng = random.Random(27)
        families = [random_family(rng, numeric=rng.random() < 0.5, n_range=(2, 5)) for _ in range(40)]
        yield build_graph(double_cycle, 4)
        for fam in families:
            for d in (fam.socle_degree, fam.resultant_degree):
                yield build_graph(fam, d)

    def test_summary_matches_the_vertices(self, double_cycle):
        repeated_types = 0
        for g in self.graphs(double_cycle):
            grouped = {}
            for c in g.cycles:
                grouped.setdefault(c.label_counts, []).append(c)
            assert list(g.cycle_types.items()) == [(r, len(cycles)) for r, cycles in grouped.items()]
            off_cycle = [0] * g.n
            for label, cls in zip(g.labels, g.vertex_class):
                if label is not None and cls != CYCLIC:
                    off_cycle[label - 1] += 1
            assert g.off_cycle_counts == tuple(off_cycle)
            repeated_types += any(k > 1 for k in g.cycle_types.values())
        assert repeated_types >= 5

    def test_polynomials_match_the_cycles(self, double_cycle):
        for g in self.graphs(double_cycle):
            product = SparsePoly.one(g.n)
            for c in g.cycles:
                product = product * cycle_polynomial(c)
            assert graph_cycle_polynomial(g) == product
            if g.d == g.family.resultant_degree:
                a_e = SparsePoly.monomial(g.n, g.off_cycle_counts, (0,) * g.n)
                assert det_structural(g.family) == a_e * product

    def test_double_cycle_summary(self, double_cycle):
        g = build_graph(double_cycle, 4)
        assert g.cycle_types == {(0, 1, 1): 2}
        assert g.off_cycle_counts == (6, 3, 2)
        assert graph_cycle_polynomial(g) == sym_binomial(3, 2, 3) ** 2

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

    def test_dot_text_is_pinned(self, double_cycle):
        # a sink (x1*x2*x3, no edge out), a two-cycle and its in-edges, byte for byte
        assert to_dot(build_graph(double_cycle, 3)) == "\n".join(
            [
                "digraph reduction_graph {",
                '\t"x1^3";',
                '\t"x1^2*x2";',
                '\t"x1^2*x3";',
                '\t"x1*x2^2";',
                '\t"x1*x2*x3";',
                '\t"x1*x3^2";',
                '\t"x2^3";',
                '\t"x2^2*x3" [peripheries=2];',
                '\t"x2*x3^2" [peripheries=2];',
                '\t"x3^3";',
                '\t"x1^3" -> "x1^2*x3" [label="1"];',
                '\t"x1^2*x2" -> "x1*x2*x3" [label="1"];',
                '\t"x1^2*x3" -> "x1*x3^2" [label="1"];',
                '\t"x1*x2^2" -> "x1*x2*x3" [label="2"];',
                '\t"x1*x3^2" -> "x1*x2*x3" [label="3"];',
                '\t"x2^3" -> "x2^2*x3" [label="2"];',
                '\t"x2^2*x3" -> "x2*x3^2" [label="2"];',
                '\t"x2*x3^2" -> "x2^2*x3" [label="3"];',
                '\t"x3^3" -> "x2*x3^2" [label="3"];',
                "}",
            ]
        )

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

    def test_cycles_reuse_the_vertex_names(self, double_cycle, monkeypatch):
        g = build_graph(double_cycle, 4)
        expected = graph_to_json(g)
        assert expected["cycles"]
        rendered = []
        monkeypatch.setattr(Monomial, "__str__", lambda m: rendered.append(m) or m.render())
        assert graph_to_json(g) == expected
        assert len(rendered) == len(g.vertices)  # each vertex once, none again for a cycle


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


GRAPH_FIELDS = ("d", "exponents", "vertices", "index", "succ", "labels", "vertex_class", "cycles")


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


# ---------------------------------------------------------------------------
# The graph on the cached degree keys


def _tuple_graph(family, d):
    """(succ, cycles as (vertex exponents, labels)) by a tuple construction:
    the odometer's exponent vectors packed afresh, and each cycle rotated to
    its lex-smallest exponent tuple."""
    exps = exponents_of_degree(family.n, d)
    nb, guard, bound, deltas = rule(family.degrees, [t.exponents for t in family.tails], d)
    keys = _pack_all(exps, family.n, nb)
    lookup = {key: v for v, key in enumerate(keys)}
    labels = [(t & -t).bit_length() // (8 * nb) for t in (((key | guard) - bound) & guard for key in keys)]
    succ = [lookup[key + deltas[i - 1]] if i else None for key, i in zip(keys, labels)]
    cycles, seen = [], set()
    for start in range(len(exps)):
        walk, v = [], start
        while v is not None and v not in walk and v not in seen:
            walk.append(v)
            v = succ[v]
        seen.update(walk)
        if v is not None and v in walk:
            ring = walk[walk.index(v) :]
            first = ring.index(min(ring, key=lambda u: exps[u]))
            cycles.append(ring[first:] + ring[:first])
    cycles.sort(key=lambda ring: ring[0])
    return succ, [(tuple(exps[v] for v in ring), tuple(labels[v] for v in ring)) for ring in cycles]


class TestDegreeKeys:
    def test_exponents_are_the_odometer_order_built_on_read(self):
        for family in _packed_build_families():
            for d in sorted({0, 1, family.socle_degree, family.resultant_degree}):
                g = build_graph.__wrapped__(family, d)
                assert "exponents" not in g.__dict__
                assert g.exponents == tuple(exponents_of_degree(family.n, d))
                assert g.exponents is g.exponents

    def test_cycles_and_successors_match_the_tuple_construction(self):
        cycles_seen = 0
        for family in differential_families() + _packed_build_families()[:12]:
            for d in sorted({family.socle_degree, family.resultant_degree}):
                g = build_graph.__wrapped__(family, d)
                succ, cycles = _tuple_graph(family, d)
                assert list(g.succ) == succ
                assert [(tuple(m.exponents for m in c.vertices), c.labels) for c in g.cycles] == cycles
                cycles_seen += len(cycles)
        assert cycles_seen > 100

    def test_the_graph_and_the_macaulay_kernel_share_one_entry(self, monkeypatch):
        read = []
        monkeypatch.setattr(oracle, "degree_keys", lambda *key: read.append(degree_keys(*key)) or read[-1])
        family = BinomialFamily.numeric([3, 2, 2], [Monomial((1, 1, 1)), Monomial((0, 0, 2)), Monomial((2, 0, 0))], [1, 2, 3], [4, 5, 6])
        for d in (family.socle_degree, family.resultant_degree):
            build_graph.cache_clear()
            degree_keys.cache_clear()
            degree_labels.cache_clear()
            g = build_graph(family, d)
            oracle.macaulay_kernel(family.degrees, [t.exponents for t in family.tails], family.a_values, family.b_values, d)
            assert read[-1][0] is g.keys
            # the graph misses, and the label table and the kernel read its entry
            info = degree_keys.cache_info()
            assert (info.misses, info.hits) == (1, 2)

    def test_degree_errors_are_unchanged(self):
        eight = BinomialFamily.symbolic([2] * 8, [Monomial.variable(8, i % 8 + 1, 2) for i in range(1, 9)])
        with pytest.raises(ValueError, match="^degree must be nonnegative$"):
            build_graph(eight, -1)
        count = math.comb(67, 7)
        message = f"^{count} monomials of degree 60 in 8 variables exceed the budget of {MONOMIAL_BUDGET}$"
        with pytest.raises(ValueError, match=message):
            build_graph(eight, 60)
        with pytest.raises(ValueError, match="monomials of degree 10000000000000000000 in 8 variables exceed the budget"):
            build_graph(eight, 10**19)


# ---------------------------------------------------------------------------
# One label table per degrees, shared by every family of those degrees


def _tuple_labels(family, d):
    """The least i with e_i >= d_i for each degree-d exponent vector, None for
    a sink, straight from the tuples."""
    return [next((i for i, (e, di) in enumerate(zip(exps, family.degrees), 1) if e >= di), None) for exps in exponents_of_degree(family.n, d)]


def _assert_as_the_references(g, family, d):
    succ, cycles = _tuple_graph(family, d)
    assert list(g.succ) == succ
    assert [(tuple(m.exponents for m in c.vertices), c.labels) for c in g.cycles] == cycles
    vertices, moves = reference_graph(family, d)
    _, on_cycle = reference_cycles(vertices, moves)
    assert list(g.labels) == [None if moves[m] is None else moves[m][0] for m in vertices]
    assert list(g.vertex_class) == [SINK if moves[m] is None else CYCLIC if m in on_cycle else TRANSIENT for m in vertices]


class TestSharedLabelTable:
    """Two families of equal degrees read one `keys.degree_labels` table;
    families of equal (n, d, nb) but other degrees must not."""

    FIRST = BinomialFamily.symbolic([3, 2, 2], [Monomial((1, 1, 1)), Monomial((0, 0, 2)), Monomial((2, 0, 0))])
    SECOND = BinomialFamily.symbolic([3, 2, 2], [Monomial((0, 1, 2)), Monomial((1, 0, 1)), Monomial((1, 1, 0))])

    def test_equal_degrees_other_tails_from_a_warm_table(self):
        f1, f2 = self.FIRST, self.SECOND
        D = f1.socle_degree
        for d in (2, D - 1, D, D + 1):
            build_graph.__wrapped__(f1, d)  # warm the table
            pair = [build_graph.__wrapped__(f, d) for f in (f1, f2)]
            for f, g in zip((f1, f2), pair):
                _assert_as_the_references(g, f, d)
            assert pair[0].succ != pair[1].succ

    def test_equal_shapes_with_other_degrees_get_their_own_labels(self):
        f1 = self.FIRST
        f2 = BinomialFamily.symbolic([2, 3, 2], [Monomial((0, 1, 1)), Monomial((1, 1, 1)), Monomial((2, 0, 0))])
        assert (f1.n, f1.socle_degree) == (f2.n, f2.socle_degree)
        D = f1.socle_degree
        for d in (2, D - 1, D, D + 1):
            pair = [build_graph.__wrapped__(f, d) for f in (f1, f2)]
            assert pair[0].nb == pair[1].nb
            for f, g in zip((f1, f2), pair):
                _assert_as_the_references(g, f, d)
            assert pair[0].labels != pair[1].labels

    def test_equal_degrees_share_one_table(self, double_cycle, chain, pentagon, pentagon_alt):
        for f1, f2 in ((self.FIRST, self.SECOND), (double_cycle, chain), (pentagon, pentagon_alt)):
            for d in (f1.socle_degree, f1.resultant_degree):
                degree_labels.cache_clear()
                build_graph.cache_clear()
                g1, g2 = build_graph(f1, d), build_graph(f2, d)
                info = degree_labels.cache_info()
                assert (info.misses, info.hits) == (1, 1)
                assert g1.labels is g2.labels
                assert g1.labels is degree_labels(f1.degrees, d, g1.nb)[1]


def test_labels_successors_and_cycles_match_the_tuple_construction_on_drawn_families_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(family_strategy(st))
    def check(family):
        D = family.socle_degree
        for d in (1, D, D + 1):
            g = build_graph(family, d)
            succ, cycles = _tuple_graph(family, d)
            assert list(g.labels) == _tuple_labels(family, d)
            assert list(g.succ) == succ
            assert [(tuple(m.exponents for m in c.vertices), c.labels) for c in g.cycles] == cycles
            assert [c == SINK for c in g.vertex_class] == [s is None for s in succ]

    check()
