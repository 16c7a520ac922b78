"""Reduction graphs on the degree-d monomials of a binomial family.

Each monomial divisible by some x_i^{d_i} has exactly one outgoing edge,
labeled by the least such i, to m*m_i/x_i^{d_i}; the rest are sinks.  The
structure depends only on the tails and degrees, never on the coefficients.

`build_graph` works on exponent tuples from `algebra.exponents_of_degree`,
each packed by `dual._pack` into one int: one subtract and mask on the guard
bits, as in `dual._act`, gives a vertex's label, and its successor is one int
add of the label's packed delta plus one dict lookup.  `vertices` and `index`
are built on first read; cycles build `Monomial`s for their own vertices.

`build_graph` keeps the last graph it built, keyed by (family, degree): a
request asks for the same graph back to back (the structural determinant and
the radical both read the resultant-degree graph), so it is built once.  The
dual generator does not read it: `dual` finds the socle monomial's in-tree by
a reverse search of its own.  The returned graph is shared between callers
and must be treated as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .algebra import Monomial, SparsePoly, exponents_of_degree
from .dual import _lane_bytes, _pack, _pack_all
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
    """The labeled successor structure on all monomials of one degree, whose
    exponent vectors `exponents` holds in the order of `monomials_of_degree`."""

    def __init__(
        self,
        family: BinomialFamily,
        d: int,
        exponents: tuple[tuple[int, ...], ...],
        succ: tuple[int | None, ...],
        labels: tuple[int | None, ...],
        vertex_class: tuple[str, ...],
        cycles: tuple[Cycle, ...],
    ):
        self.family = family
        self.d = d
        self.exponents = exponents
        self.succ = succ
        self.labels = labels
        self.vertex_class = vertex_class
        self.cycles = cycles

    @cached_property
    def vertices(self) -> tuple[Monomial, ...]:
        return tuple(map(Monomial._raw, self.exponents))

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:  # exponent tuple -> vertex position
        return dict(zip(self.exponents, range(len(self.exponents))))

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
    n = family.n
    exps = exponents_of_degree(n, d)
    nb = _lane_bytes(max(d, *family.degrees))  # tail_i's entries are at most d_i
    width = 8 * nb
    keys = _pack_all(exps, n, nb)
    lookup = dict(zip(keys, range(len(keys))))
    # With the guard bits G of `dual._act`, lane i of ((key | G) - pack(d)) & G
    # keeps its top bit exactly when e_i >= d_i; the lowest bit left sits at
    # width * label - 1, so its bit length over width is the label (0: sink).
    guard = _pack((1 << width - 1,) * n, nb)
    bound = _pack(family.degrees, nb)
    found = [(t & -t).bit_length() // width for t in [((key | guard) - bound) & guard for key in keys]]
    # key + deltas[label] packs e - d_i e_i + tail_i, the label-i successor
    deltas = [0] + [_pack(t.exponents, nb) - (di << width * i) for i, (t, di) in enumerate(zip(family.tails, family.degrees))]
    succ = [lookup[key + deltas[i]] if i else None for key, i in zip(keys, found)]
    labels = [i or None for i in found]

    count = len(exps)
    vertex_class = [SINK if s is None else TRANSIENT for s in succ]
    reached = [-1] * count  # the start of the first walk through each vertex
    raw_cycles: list[list[int]] = []
    for start in range(count):
        walk: list[int] = []
        v = start
        while v is not None and reached[v] < 0:
            reached[v] = start
            walk.append(v)
            v = succ[v]
        if v is not None and reached[v] == start:  # the walk closed on itself
            raw_cycles.append(walk[walk.index(v) :])
            for u in raw_cycles[-1]:
                vertex_class[u] = CYCLIC

    rotations = []
    for raw in raw_cycles:
        smallest = min(range(len(raw)), key=lambda j: exps[raw[j]])
        rotations.append(raw[smallest:] + raw[:smallest])
    rotations.sort(key=lambda rotated: rotated[0])
    cycles = []
    for rotated in rotations:
        cycle_labels = tuple(labels[v] for v in rotated)
        counts = [0] * n
        for lab in cycle_labels:
            counts[lab - 1] += 1
        cycles.append(Cycle(tuple(Monomial._raw(exps[v]) for v in rotated), cycle_labels, tuple(counts)))
    return ReductionGraph(family, d, tuple(exps), tuple(succ), tuple(labels), tuple(vertex_class), tuple(cycles))


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
