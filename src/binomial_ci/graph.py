"""Reduction graphs on the degree-d monomials of a binomial family.

Each monomial divisible by some x_i^{d_i} has exactly one outgoing edge,
labeled by the least such i, to m*m_i/x_i^{d_i}; the rest are sinks.  The
structure depends only on the tails and degrees, never on the coefficients.

`build_graph` keeps the last graph it built, keyed by (family, degree): a
request asks for the same graph back to back (the structural determinant and
the radical both read the resultant-degree graph), so it is built once.  The
dual generator does not read it: `dual` finds the socle monomial's in-tree by
a reverse search of its own.  The returned graph is shared between callers
and must be treated as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import Monomial, SparsePoly, monomials_of_degree
from .family import BinomialFamily

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
    """The labeled successor structure on all monomials of one degree."""

    def __init__(
        self,
        family: BinomialFamily,
        d: int,
        vertices: tuple[Monomial, ...],
        index: dict[tuple[int, ...], int],
        succ: tuple[int | None, ...],
        labels: tuple[int | None, ...],
        vertex_class: tuple[str, ...],
        cycles: tuple[Cycle, ...],
    ):
        self.family = family
        self.d = d
        self.vertices = vertices
        self.index = index  # exponent tuple -> vertex position
        self.succ = succ
        self.labels = labels
        self.vertex_class = vertex_class
        self.cycles = cycles

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


@lru_cache(maxsize=1)
def build_graph(family: BinomialFamily, d: int) -> ReductionGraph:
    """Build the reduction graph on all degree-d monomials.

    The last graph built is cached, so a repeated call returns the same
    shared object; callers must not mutate it.  One entry keeps at most one
    extra graph alive.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    vertices = tuple(monomials_of_degree(family.n, d))
    lookup = {m.exponents: v for v, m in enumerate(vertices)}
    move = family._move
    n = family.n
    succ: list[int | None] = []
    labels: list[int | None] = []
    for m in vertices:
        edge = move(m.exponents, n)
        if edge is None:
            succ.append(None)
            labels.append(None)
        else:
            labels.append(edge[0])
            succ.append(lookup[edge[1]])

    count = len(vertices)
    state = [0] * count  # 0 fresh, 1 on the current walk, 2 finished
    vertex_class: list[str] = [TRANSIENT] * count
    raw_cycles: list[list[int]] = []
    for start in range(count):
        if state[start]:
            continue
        walk: list[int] = []
        position: dict[int, int] = {}
        v = start
        while True:
            if state[v] == 1:
                cut = position[v]
                raw_cycles.append(walk[cut:])
                for u in walk[cut:]:
                    vertex_class[u] = CYCLIC
                break
            if state[v] == 2:
                break
            state[v] = 1
            position[v] = len(walk)
            walk.append(v)
            nxt = succ[v]
            if nxt is None:
                vertex_class[v] = SINK
                break
            v = nxt
        for u in walk:
            state[u] = 2

    rotations = []
    for raw in raw_cycles:
        smallest = min(range(len(raw)), key=lambda j: vertices[raw[j]].exponents)
        rotations.append(raw[smallest:] + raw[:smallest])
    rotations.sort(key=lambda rotated: rotated[0])
    cycles = []
    for rotated in rotations:
        cycle_labels = tuple(labels[v] for v in rotated)
        counts = [0] * family.n
        for lab in cycle_labels:
            counts[lab - 1] += 1
        cycles.append(
            Cycle(tuple(vertices[v] for v in rotated), cycle_labels, tuple(counts))
        )
    return ReductionGraph(
        family, d, vertices, lookup, tuple(succ), tuple(labels), tuple(vertex_class), tuple(cycles)
    )


def cycle_polynomial(cycle: Cycle) -> SparsePoly:
    """The binomial a^r - b^r for the cycle's label counts r."""
    n = len(cycle.label_counts)
    r = cycle.label_counts
    zero = (0,) * n
    return SparsePoly(n, [(r + zero, 1), (zero + r, -1)])


def graph_cycle_polynomial(graph: ReductionGraph) -> SparsePoly:
    """Product of the cycle polynomials over all cycles; 1 when acyclic."""
    result = SparsePoly.one(graph.n)
    for cycle in graph.cycles:
        result = result * cycle_polynomial(cycle)
    return result


def to_dot(graph: ReductionGraph) -> str:
    """Graphviz rendering; cyclic vertices are drawn with a double border."""
    lines = ["digraph reduction_graph {"]
    for m, cls in zip(graph.vertices, graph.vertex_class):
        attr = " [peripheries=2]" if cls == CYCLIC else ""
        lines.append(f'	"{m}"{attr};')
    for m, s, lab in zip(graph.vertices, graph.succ, graph.labels):
        if s is None:
            continue
        lines.append(f'	"{m}" -> "{graph.vertices[s]}" [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines)


def graph_to_json(graph: ReductionGraph) -> dict:
    return {
        "d": graph.d,
        "vertices": [str(m) for m in graph.vertices],
        "edges": [
            {"from": str(m), "to": str(graph.vertices[s]), "label": lab}
            for m, s, lab in zip(graph.vertices, graph.succ, graph.labels)
            if s is not None
        ],
        "cycles": [
            {"vertices": [str(m) for m in c.vertices], "r": list(c.label_counts)}
            for c in graph.cycles
        ],
    }
