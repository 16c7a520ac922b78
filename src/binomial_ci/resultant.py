"""The resultant matrix, its determinant and the radical of the resultant.

At the resultant degree sum(d_i - 1) + 1 every monomial is divisible by some
x_i^{d_i}, so the rows (x^alpha / x_i^{d_i}) * f_i form a square matrix, and
that matrix is the reduction graph at that degree: row x^alpha holds a_i on
the diagonal, i being its label, and -b_i in the column of its successor.
The successor is never the diagonal, since no tail equals its generator's
lead monomial.  Every function here takes the family and reads the one
cached resultant-degree graph; the matrix's text, JSON and numeric rows come
straight from its vertices, labels and successors.  Every row of label i is
a_i, -b_i up to position, so `det_numeric_oracle` scales the rows to
coprime integers once per label and eliminates them generically as
integers, reading no cycle summary: it checks the cycle formula below
independently.

Everything else past the matrix reads the graph's cycle summary: k_r, the
number of cycles whose label counts are r (`ReductionGraph.cycle_types`),
and e_i, the i-labeled vertices on no cycle
(`ReductionGraph.off_cycle_counts`).  The determinant is prod a_i^{e_i} *
prod_r (a^r - b^r)^{k_r}.  Every r is primitive, so the radical's cycle
factors are the binomials a^r - b^r themselves, one per type, and a_i drops
from the radical when e_i = 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .algebra import SparsePoly
from .family import BinomialFamily
from .graph import ReductionGraph, _binomial_power, build_graph, graph_cycle_polynomial
from .linalg import _det_int
from .oracle import macaulay_kernel

CERTAIN = "certain"
PROBABILISTIC = "probabilistic"
BOUNDED = "bounded"


def _resultant_graph(family: BinomialFamily) -> ReductionGraph:
    """The shared reduction graph at the resultant degree; read it only."""
    graph = build_graph(family, family.resultant_degree)
    if None in graph.succ:
        raise AssertionError("the resultant degree admits no sinks")
    return graph


def matrix_to_text(family: BinomialFamily) -> str:
    """The symbolic matrix as right-aligned columns under a monomial header.

    Built one row at a time: a column's width is the longest of its header,
    its diagonal a{i} and the -b{i} of the rows whose successor it is (a 0
    is narrower than any a{i})."""
    graph = _resultant_graph(family)
    header = [str(m) for m in graph.vertices]
    widths = [max(len(h), len(f"a{i}")) for h, i in zip(header, graph.labels)]
    for i, succ in zip(graph.labels, graph.succ):
        widths[succ] = max(widths[succ], len(f"-b{i}"))
    zeros = ["0".rjust(w) for w in widths]
    lines = ["  ".join(map(str.rjust, header, widths))]
    for r, (i, succ) in enumerate(zip(graph.labels, graph.succ)):
        row = zeros.copy()
        row[r], row[succ] = f"a{i}".rjust(widths[r]), f"-b{i}".rjust(widths[succ])
        lines.append("  ".join(row))
    return "\n".join(lines)


def matrix_to_json(family: BinomialFamily) -> dict:
    """The matrix as its degree, size and rows (monomial, label, successor)."""
    graph = _resultant_graph(family)
    return {
        "degree": graph.d,
        "size": len(graph.vertices),
        "rows": [
            {"monomial": str(m), "i": i, "successor": str(graph.vertices[succ])}
            for m, i, succ in zip(graph.vertices, graph.labels, graph.succ)
        ],
    }


def det_structural_parts(family: BinomialFamily) -> tuple[SparsePoly, list[tuple[SparsePoly, int]]]:
    """The determinant, factored: (a^e, [(a^r - b^r, k_r)] in descending
    order of r), from the resultant-degree graph's cycle summary."""
    graph = _resultant_graph(family)
    n = family.n
    factors = [(_binomial_power(n, r, 1), graph.cycle_types[r]) for r in sorted(graph.cycle_types, reverse=True)]
    return SparsePoly.monomial(n, graph.off_cycle_counts, (0,) * n), factors


def det_structural(family: BinomialFamily) -> SparsePoly:
    """The determinant read off the reduction graph at the resultant degree.

    With the a-symbols on the diagonal the sign works out to +1: a^e, the
    a-symbols of the vertices on no cycle, times the cycle polynomial
    prod_r (a^r - b^r)^{k_r}.
    """
    graph = _resultant_graph(family)
    return SparsePoly.monomial(family.n, graph.off_cycle_counts, (0,) * family.n) * graph_cycle_polynomial(graph)


def det_numeric_oracle(family: BinomialFamily) -> Fraction:
    """Exact determinant of a numeric family's resultant matrix.

    Every row of label i is a_i, -b_i up to position, so its coprime integer
    pair is found once per label: with s_i = lcm(den a_i, den b_i) and g_i
    the gcd of a_i s_i and -b_i s_i, the row of x^alpha is {alpha: A_i,
    successor: B_i} = (s_i / g_i) times the matrix row ({alpha: A_i} when
    b_i = 0).  These integer rows go to the elimination of `det_sparse`,
    `linalg._det_int`, and det = prod (g_i / s_i)^{c_i} times their
    determinant, c_i being the number of rows of label i.  The matrix is
    eliminated generically, independent of the cycle formula.
    """
    if not family.is_numeric:
        raise ValueError("the numeric determinant needs a fully numeric family")
    graph = _resultant_graph(family)
    pairs, scale_num, scale_den = {}, 1, 1
    for i, (a, b) in enumerate(zip(family.a_values, family.b_values), start=1):
        s = lcm(a.denominator, b.denominator)
        an, bn = a.numerator * (s // a.denominator), -b.numerator * (s // b.denominator)
        g = gcd(an, bn)
        pairs[i] = an // g, bn // g
        c = graph.labels.count(i)
        scale_num *= g**c
        scale_den *= s**c
    rows = [
        {r: a, succ: b} if b else {r: a}
        for r, ((a, b), succ) in enumerate(zip(map(pairs.get, graph.labels), graph.succ))
    ]
    num, den = _det_int(rows, len(rows))
    return Fraction(num * scale_num, den * scale_den)


def radical_of_cycle_product(graph: ReductionGraph) -> list[SparsePoly]:
    """The distinct cycle polynomials a^r - b^r, in order of first cycle.

    These are the irreducible non-monomial factors of the cycle product,
    because every label count r of a resultant-degree cycle is primitive
    (gcd(r) = 1), so a^r - b^r does not split further.

    Lemma.  Suppose r = g*s with g > 1 and s primitive.  Put c_k = b_k/a_k
    and let H be the hypersurface {c^s = zeta}, zeta a primitive g-th root
    of unity.  On H, a^r = b^r, so by the radical theorem Res vanishes on H.
    Each point of V(Res) has a support S and a set K of binomials whose two
    terms both survive on S; some pair (S, K) covers a dense part of H.  Let
    L = {lambda : sum lambda_k u_k|_S = 0}, u_k = d_k e_k - tail_k, be its
    left-kernel lattice.  Then c^lambda = 1 on H for every lambda in L.  A
    character c^lambda is constant on a coset of {c^s = 1} only when
    lambda is in Z*s, and c^lambda = 1 on H then forces lambda in Z*g*s.
    L is nonzero, or Res would vanish identically, which it does not at
    b = 0.  But L is the kernel of an integer matrix, hence saturated, so
    s is in L, and c^s = 1 contradicts c^s = zeta on H.
    """
    return [_binomial_power(graph.n, r, 1) for r in graph.cycle_types]


@dataclass(frozen=True)
class TEntry:
    index: int
    value: int  # 0 or 1
    status: str  # certain | probabilistic | bounded


@dataclass(frozen=True)
class RadicalResult:
    """Radical of the resultant: a-exponents t plus the cycle factors.

    `product` expands prod a_i^{t_i} * prod(factors) with the family's fixed
    values substituted and monomial factors reduced to their squarefree
    symbol support; when some t_i is only `bounded`, the product is an upper
    bound (a multiple of the true radical).
    """

    t: tuple[TEntry, ...]
    factors: tuple[SparsePoly, ...]
    product: SparsePoly

    @property
    def all_certain(self) -> bool:
        return all(entry.status == CERTAIN for entry in self.t)

    def to_json(self) -> dict:
        return {
            "t": [
                {"i": e.index, "value": e.value, "status": e.status} for e in self.t
            ],
            "factors": [str(f) for f in self.factors],
            "product": str(self.product),
        }


def _random_nonzero(rng: random.Random, bound: int = 1000) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-bound, bound)
    return Fraction(num, rng.randint(1, bound))


def _probe_t_index(family: BinomialFamily, i: int, rng: random.Random, trials: int = 5) -> TEntry:
    # Specialize a_i := 0 (and unfixed symbols to random nonzero rationals);
    # any complete intersection (h_{D+1} = 0, as in is_complete_intersection)
    # among the trials certifies a_i does not divide the resultant.  A numeric
    # family draws nothing, so its trials would all test the same point.
    tails = tuple(t.exponents for t in family.tails)
    for _ in range(1 if family.is_numeric else trials):
        a_vals = [v if v is not None else _random_nonzero(rng) for v in family.a_values]
        b_vals = [v if v is not None else _random_nonzero(rng) for v in family.b_values]
        a_vals[i - 1] = Fraction(0)
        if not macaulay_kernel(family.degrees, tails, a_vals, b_vals, family.socle_degree + 1).live:
            return TEntry(i, 0, CERTAIN)
    return TEntry(i, 1, PROBABILISTIC)


def _radical_product(n: int, contributions: list[SparsePoly]) -> SparsePoly:
    scalar = Fraction(1)
    squarefree = [0] * (2 * n)
    polys: list[SparsePoly] = []
    for c in contributions:
        if c.is_zero():
            return SparsePoly.zero(n)
        if c.is_constant():
            scalar *= c.constant_value()
        elif len(c.terms) == 1:
            key, coeff = next(iter(c.terms.items()))
            scalar *= coeff
            for j, e in enumerate(key):
                if e:
                    squarefree[j] = 1
        else:
            polys.append(c)
    result = SparsePoly(n, [(tuple(squarefree), scalar)])
    for p in polys:
        result = result * p
    return result


def resultant_radical(family: BinomialFamily, probe: bool = False, rng: random.Random | None = None) -> RadicalResult:
    """The radical of the resultant, determined from the reduction graph.

    An index whose tail is no pure variable power gets t_i = 1 (certain).
    An index with e_i = 0, every i-labeled vertex on a cycle, gets t_i = 0
    (certain).
    Remaining indices are probed probabilistically when `probe` is set and
    reported as bounded otherwise.
    """
    graph = _resultant_graph(family)
    n = family.n
    raw_factors = radical_of_cycle_product(graph)
    factors: list[SparsePoly] = []
    for f in raw_factors:
        sub = f.substitute(family.a_values, family.b_values)
        if all(sub != u for u in factors):
            factors.append(sub)

    pure_power_vars: set[int] = set()
    for m in family.tails:
        support = [j for j, e in enumerate(m.exponents) if e]
        if len(support) == 1:
            pure_power_vars.add(support[0] + 1)

    if rng is None:
        rng = random.Random(0)
    entries = []
    for i in range(1, n + 1):
        if i not in pure_power_vars:
            entries.append(TEntry(i, 1, CERTAIN))
        elif not graph.off_cycle_counts[i - 1]:
            entries.append(TEntry(i, 0, CERTAIN))
        elif probe:
            entries.append(_probe_t_index(family, i, rng))
        else:
            entries.append(TEntry(i, 1, BOUNDED))

    contributions = [family.a_poly(e.index) for e in entries if e.value == 1]
    contributions.extend(factors)
    product = _radical_product(n, contributions)
    return RadicalResult(tuple(entries), tuple(factors), product)
