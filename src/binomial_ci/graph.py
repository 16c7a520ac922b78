"""Reduction graphs on the degree-d monomials of a binomial family.

Each monomial divisible by some x_i^{d_i} has exactly one outgoing edge,
labeled by the least such i, to m*m_i/x_i^{d_i}; the rest are sinks.  The
structure depends only on the tails and degrees, never on the coefficients.

`build_graph` reads the packed degree-d keys and their positions from
`keys.degree_keys`, the table that `oracle.macaulay_kernel` reads at the
same degree, and each key's label from `keys.degree_labels`, one table per
degrees: a label depends on the degrees alone, so every family of the same
degrees shares it, and only the successors read the tails.  A vertex's
successor is its key plus the label's packed delta from `keys.rule`, looked
up among the positions; the three steps are one C-level `map` each, and a
sink, whose delta is 0, finds itself and is then set to the sentinel
position count (None in the graph).  Cycles come from one walk per start not
yet reached, marking each vertex with its walk's start; the sentinel's slot
is marked already, so it stops every walk into a sink, and a walk that
stops on its own start's mark has closed a cycle, read back by following
the successors from where it closed.  No exponent tuple is built for that:
`exponents` (unpacked from the keys in one C pass), `vertices` and `index`
are built on first read, and cycles unpack only their own vertices.  The
keys are in the descending lex order of `exponents_of_degree`, so a cycle's
lex-smallest vertex is the one of largest position.

Each graph summarizes its cycles once, on first read: `cycle_types` maps the
label counts r to k_r, the number of cycles of that type, and
`off_cycle_counts` holds e_i, the i-labeled vertices on no cycle.  The cycle
polynomial is prod_r (a^r - b^r)^{k_r}, one binomial expansion per type, and
the resultant layer reads its determinant, factors and radical off (e, k).

`build_graph` keeps the last graph it built, keyed by (family, degree): a
request asks for the same graph back to back (the structural determinant and
the radical both read the resultant-degree graph), so it is built once.  The
dual generator does not read it: `dual` finds the socle monomial's in-tree by
a reverse search on the same `keys.rule`.  The returned graph is shared
between callers and must be treated as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb
from operator import add

from .algebra import Monomial, SparsePoly, check_monomial_budget
from .family import BinomialFamily
from .keys import _unpack_all, degree_keys, degree_labels, rule

SINK = "sink"
TRANSIENT = "transient"
CYCLIC = "cyclic"


@dataclass(frozen=True)
class Cycle:
    """A directed cycle, rotated to start at its lex-smallest vertex."""

    vertices: tuple[Monomial, ...]
    labels: tuple[int, ...]  # label of the edge leaving vertices[j]
    label_counts: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)


class ReductionGraph:
    """The labeled successor structure on all monomials of one degree, whose
    packed exponent vectors `keys` holds, in lanes of nb bytes, in the order
    of `monomials_of_degree`."""

    def __init__(
        self,
        family: BinomialFamily,
        d: int,
        keys: list[int],
        nb: int,
        succ: tuple[int | None, ...],
        labels: tuple[int | None, ...],
        vertex_class: tuple[str, ...],
        cycles: tuple[Cycle, ...],
    ):
        self.family = family
        self.d = d
        self.keys = keys  # shared with `keys.degree_keys`: read it only
        self.nb = nb
        self.succ = succ
        self.labels = labels  # shared with `keys.degree_labels`: read it only
        self.vertex_class = vertex_class
        self.cycles = cycles

    @cached_property
    def exponents(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_unpack_all(self.keys, self.family.n, self.nb))

    @cached_property
    def vertices(self) -> tuple[Monomial, ...]:
        return tuple(map(Monomial._raw, self.exponents))

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:  # exponent tuple -> vertex position
        return dict(zip(self.exponents, range(len(self.exponents))))

    @cached_property
    def cycle_types(self) -> dict[tuple[int, ...], int]:
        """r -> k: the number of cycles whose label counts are r, in order of
        first cycle."""
        types: dict[tuple[int, ...], int] = {}
        for cycle in self.cycles:
            types[cycle.label_counts] = types.get(cycle.label_counts, 0) + 1
        return types

    @cached_property
    def off_cycle_counts(self) -> tuple[int, ...]:
        """e_i: the i-labeled vertices on no cycle.  The cycles of a
        functional graph are disjoint, and each cycle of type r holds r_i of
        the i-labeled vertices, so e_i = #{i labels} - sum_r k_r * r_i."""
        on_cycles = [sum(k * r[i] for r, k in self.cycle_types.items()) for i in range(self.n)]
        return tuple(self.labels.count(i + 1) - on for i, on in enumerate(on_cycles))

    @property
    def n(self) -> int:
        return self.family.n

    def successor(self, m: Monomial) -> Monomial | None:
        s = self.succ[self.index[m.exponents]]
        return None if s is None else self.vertices[s]

    def label(self, m: Monomial) -> int | None:
        return self.labels[self.index[m.exponents]]

    def class_of(self, m: Monomial) -> str:
        return self.vertex_class[self.index[m.exponents]]

    def sinks(self) -> list[Monomial]:
        return [m for m, c in zip(self.vertices, self.vertex_class) if c == SINK]

    def edge_count(self) -> int:
        return sum(1 for s in self.succ if s is not None)


# One entry serves det_structural and resultant_radical after the caller's
# own build at the resultant degree, as in the `structure` job, which reads
# all three per family.  A miss costs 0.34 s per pass over that job's
# 600-family pool (best of 5, Python 3.11, 2 vCPU).
@lru_cache(maxsize=1)
def build_graph(family: BinomialFamily, d: int) -> ReductionGraph:
    """Build the reduction graph on all degree-d monomials.

    The graph may be shared with other callers: do not mutate it.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    n = family.n
    check_monomial_budget(n, d)  # before `rule`, which refuses a degree too wide for any lane
    nb, _, _, deltas = rule(family.degrees, tuple(t.exponents for t in family.tails), d)
    keys, lookup = degree_keys(n, d, nb)
    found, labels, sinks, _ = degree_labels(family.degrees, d, nb)
    moves = [0, *deltas]  # label 0, a sink, moves by 0 and finds itself
    succ = list(map(lookup.__getitem__, map(add, keys, map(moves.__getitem__, found))))
    count = len(keys)
    edges = succ
    vertex_class = [TRANSIENT] * count
    if sinks:  # a sink's successor: the sentinel position count in the walk, None in the graph
        edges = succ.copy()
        for v in sinks:
            succ[v], edges[v], vertex_class[v] = count, None, SINK

    reached = [-1] * count + [count]  # the start of the first walk through each vertex, and the sentinel's
    raw_cycles: list[list[int]] = []
    for start in range(count):
        if reached[start] >= 0:
            continue
        v = start
        while reached[v] < 0:
            reached[v] = start
            v = succ[v]
        if reached[v] == start:  # the walk closed on itself at v
            raw = [v]
            u = succ[v]
            while u != v:
                raw.append(u)
                u = succ[u]
            raw_cycles.append(raw)
            for u in raw:
                vertex_class[u] = CYCLIC

    rotations = []
    for raw in raw_cycles:
        smallest = raw.index(max(raw))  # the lex-smallest vertex comes last in the key order
        rotations.append(raw[smallest:] + raw[:smallest])
    rotations.sort(key=lambda rotated: rotated[0])
    cycles = []
    for rotated in rotations:
        cycle_labels = tuple(labels[v] for v in rotated)
        counts = [0] * n
        for lab in cycle_labels:
            counts[lab - 1] += 1
        vertices = tuple(map(Monomial._raw, _unpack_all([keys[v] for v in rotated], n, nb)))
        cycles.append(Cycle(vertices, cycle_labels, tuple(counts)))
    return ReductionGraph(family, d, keys, nb, tuple(edges), labels, tuple(vertex_class), tuple(cycles))


def _binomial_power(n: int, r: tuple[int, ...], k: int) -> SparsePoly:
    """(a^r - b^r)^k, expanded by the binomial theorem into its k + 1 terms
    (-1)^j C(k, j) a^((k-j)r) b^(jr)."""
    return SparsePoly._raw(
        n, {tuple((k - j) * x for x in r) + tuple(j * x for x in r): Fraction((-1) ** j * comb(k, j)) for j in range(k + 1)}
    )


def cycle_polynomial(cycle: Cycle) -> SparsePoly:
    """The binomial a^r - b^r for the cycle's label counts r."""
    return _binomial_power(len(cycle.label_counts), cycle.label_counts, 1)


def graph_cycle_polynomial(graph: ReductionGraph) -> SparsePoly:
    """Product of the cycle polynomials over all cycles, one binomial power
    (a^r - b^r)^k per cycle type; 1 when acyclic."""
    result = SparsePoly.one(graph.n)
    for r, k in graph.cycle_types.items():
        result = result * _binomial_power(graph.n, r, k)
    return result


def to_dot(graph: ReductionGraph) -> str:
    """Graphviz rendering; cyclic vertices are drawn with a double border."""
    names = [str(m) for m in graph.vertices]
    lines = ["digraph reduction_graph {"]
    for name, cls in zip(names, graph.vertex_class):
        attr = " [peripheries=2]" if cls == CYCLIC else ""
        lines.append(f'	"{name}"{attr};')
    for name, s, lab in zip(names, graph.succ, graph.labels):
        if s is None:
            continue
        lines.append(f'	"{name}" -> "{names[s]}" [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines)


def graph_to_json(graph: ReductionGraph) -> dict:
    """The graph as JSON: each vertex name is rendered once, and a cycle
    reads its vertices' names by their positions."""
    names = [str(m) for m in graph.vertices]
    return {
        "d": graph.d,
        "vertices": names,
        "edges": [
            {"from": name, "to": names[s], "label": lab}
            for name, s, lab in zip(names, graph.succ, graph.labels)
            if s is not None
        ],
        "cycles": [
            {"vertices": [names[graph.index[m.exponents]] for m in c.vertices], "r": list(c.label_counts)}
            for c in graph.cycles
        ],
    }
