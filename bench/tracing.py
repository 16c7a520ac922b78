"""Spans around the public functions of each binomial_ci module.

`install` wraps every name in TARGETS when the run starts and rebinds each
copy of it, including the `from .x import f` copies held by the importing
modules, so nested calls are traced too.  A name that no longer exists is
recorded as absent, and its metrics read 0.

Each span holds a name, start, end, parent span and job id, in flat arrays
kept in memory until the run ends.  Self time is a span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter
from math import comb
from pathlib import Path

# (layer, name as written after the module, metric prefix).  A dotted name is
# an attribute of a class.
TARGETS = [
    ("family", "load_family", "family.load_family"),
    ("family", "specialize", "family.specialize"),
    ("graph", "build_graph", "graph.build_graph"),
    ("rewrite", "reduce_monomial", "rewrite.reduce_monomial"),
    ("rewrite", "certificate", "rewrite.certificate"),
    ("rewrite", "check_certificate", "rewrite.check_certificate"),
    ("dual", "dual_generator", "dual.dual_generator"),
    ("dual", "verify_annihilation", "dual.verify_annihilation"),
    ("dual", "apply_action", "dual.apply_action"),
    ("resultant", "det_structural", "resultant.det_structural"),
    ("resultant", "resultant_radical", "resultant.resultant_radical"),
    ("resultant", "build_c_matrix", "resultant.build_c_matrix"),
    ("resultant", "det_numeric_oracle", "resultant.det_numeric_oracle"),
    ("oracle", "hilbert_function", "oracle.hilbert_function"),
    ("oracle", "is_complete_intersection", "oracle.is_complete_intersection"),
    ("oracle", "basis_check", "oracle.basis_check"),
    ("oracle", "inverse_system_dims", "oracle.inverse_system_dims"),
    ("oracle", "m_spans_ann_quotient", "oracle.m_spans_ann_quotient"),
    ("oracle", "macaulay_rows", "oracle.macaulay_rows"),
    ("oracle", "catalecticant_rows", "oracle.catalecticant_rows"),
    ("linalg", "RowSpace.add", "linalg.RowSpace.add"),
    ("linalg", "det_rational", "linalg.det_rational"),
    ("linalg", "dense_rank", "linalg.dense_rank"),
    ("lefschetz", "slp_check", "lefschetz.slp_check"),
    ("lefschetz", "HessianMatrix.__init__", "lefschetz.HessianMatrix"),
    ("lefschetz", "HessianMatrix.rank_at", "lefschetz.rank_at"),
    ("algebra", "SparsePoly.__mul__", "algebra.SparsePoly.mul"),
    ("algebra", "monomials_of_degree", "algebra.monomials_of_degree"),
    ("algebra", "poly_divides", "algebra.poly_divides"),
    ("cli", "main", "cli.main"),
]

# Per-layer metrics reported by a traced run: (metric, unit).  Every value
# is normalised per family (job).  "ms" is inclusive time, "self_ms"
# excludes the time of traced callees, "calls" counts entries; the rest are
# counters recorded by result hooks.
METRICS = [
    ("family.load_family.ms", "ms/family"),
    ("family.specialize.ms", "ms/family"),
    ("graph.build_graph.calls", "calls/family"),
    ("graph.build_graph.self_ms", "ms/family"),
    ("graph.vertices", "vertices/family"),
    ("rewrite.reduce_monomial.ms", "ms/family"),
    ("rewrite.certificate.ms", "ms/family"),
    ("rewrite.check_certificate.self_ms", "ms/family"),
    ("dual.dual_generator.ms", "ms/family"),
    ("dual.verify_annihilation.ms", "ms/family"),
    ("dual.apply_action.self_ms", "ms/family"),
    ("dual.terms", "terms/family"),
    ("resultant.det_structural.ms", "ms/family"),
    ("resultant.resultant_radical.ms", "ms/family"),
    ("resultant.build_c_matrix.calls", "calls/family"),
    ("resultant.det_numeric_oracle.ms", "ms/family"),
    ("resultant.det_numeric_oracle.size", "rows/family"),
    ("oracle.hilbert_function.ms", "ms/family"),
    ("oracle.is_complete_intersection.ms", "ms/family"),
    ("oracle.basis_check.ms", "ms/family"),
    ("oracle.inverse_system_dims.ms", "ms/family"),
    ("oracle.m_spans_ann_quotient.ms", "ms/family"),
    ("oracle.macaulay_rows.self_ms", "ms/family"),
    ("oracle.catalecticant_rows.self_ms", "ms/family"),
    ("oracle.ideal_space_cache.hit_ratio", "ratio"),
    ("linalg.RowSpace.add.calls", "calls/family"),
    ("linalg.RowSpace.add.self_ms", "ms/family"),
    ("linalg.RowSpace.add.useful_ratio", "ratio"),
    ("linalg.det_rational.self_ms", "ms/family"),
    ("linalg.dense_rank.ms", "ms/family"),
    ("lefschetz.slp_check.ms", "ms/family"),
    ("lefschetz.HessianMatrix.ms", "ms/family"),
    ("lefschetz.rank_at.calls", "calls/family"),
    ("lefschetz.rank_at.ms", "ms/family"),
    ("algebra.SparsePoly.mul.calls", "calls/family"),
    ("algebra.SparsePoly.mul.self_ms", "ms/family"),
    ("algebra.monomials_of_degree.calls", "calls/family"),
    ("algebra.monomials_of_degree.self_ms", "ms/family"),
    ("algebra.poly_divides.calls", "calls/family"),
    ("cli.main.calls", "calls/family"),
    ("cli.main.self_ms", "ms/family"),
]


def _count_vertices(tracer, args, result):
    tracer.counters["graph.vertices"] += len(result.vertices)


def _count_terms(tracer, args, result):
    tracer.counters["dual.terms"] += len(result.coeffs)


def _count_useful(tracer, args, result):
    tracer.counters["linalg.RowSpace.add.useful"] += bool(result)


def _count_size(tracer, args, result):
    family = args[0]
    tracer.counters["resultant.det_numeric_oracle.size"] += comb(
        family.resultant_degree + family.n - 1, family.n - 1
    )


HOOKS = {
    "graph.build_graph": _count_vertices,
    "dual.dual_generator": _count_terms,
    "linalg.RowSpace.add": _count_useful,
    "resultant.det_numeric_oracle": _count_size,
}


class Tracer:
    """In-memory span recorder.  While `enabled` is false the wrappers call
    straight through and record nothing."""

    def __init__(self) -> None:
        self.enabled = False
        self.job = -1
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counters: Counter[str] = Counter()
        self.absent: list[str] = []

    def wrap(self, metric: str, fn):
        name_id = self.name_ids.setdefault(metric, len(self.names))
        if name_id == len(self.names):
            self.names.append(metric)
        hook = HOOKS.get(metric)
        tracer = self
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.job)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def install(self, package: str = "binomial_ci") -> None:
        """Wrap every target; rebind all copies held by the package's modules."""
        modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        for layer, attr, metric in TARGETS:
            module = sys.modules.get(f"{package}.{layer}")
            owner, _, leaf = attr.rpartition(".")
            holder = module
            for part in filter(None, owner.split(".")):
                holder = getattr(holder, part, None)
            original = getattr(holder, leaf, None) if holder is not None else None
            if original is None:
                self.absent.append(metric)
                continue
            wrapped = self.wrap(metric, original)
            holders = [holder] if owner else modules
            for h in holders:
                for key, value in list(vars(h).items()):
                    if value is original:
                        setattr(h, key, wrapped)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive seconds and self seconds, over all jobs."""
        count = len(self.span_start)
        duration = [self.span_end[i] - self.span_start[i] for i in range(count)]
        child_time = [0.0] * count
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child_time[parent] += duration[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(count):
            entry = out[self.names[self.span_name[i]]]
            entry["calls"] += 1
            entry["s"] += duration[i]
            entry["self_s"] += duration[i] - child_time[i]
        return out

    def metrics(self, jobs: int, cache_hits: int, cache_calls: int) -> dict[str, float]:
        totals = self.totals()
        empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
        values: dict[str, float] = {}
        for metric, _ in METRICS:
            base, _, stat = metric.rpartition(".")
            entry = totals.get(base, empty)
            if stat == "calls":
                values[metric] = entry["calls"] / jobs
            elif stat == "ms":
                values[metric] = 1000.0 * entry["s"] / jobs
            elif stat == "self_ms":
                values[metric] = 1000.0 * entry["self_s"] / jobs
            elif metric == "linalg.RowSpace.add.useful_ratio":
                calls = entry["calls"]
                values[metric] = self.counters["linalg.RowSpace.add.useful"] / calls if calls else 0.0
            elif metric == "oracle.ideal_space_cache.hit_ratio":
                values[metric] = cache_hits / cache_calls if cache_calls else 0.0
            else:
                values[metric] = self.counters[metric] / jobs
        return values

    def write(self, path: Path) -> None:
        """All spans as gzipped JSON columns: name id, parent span, job id,
        start and end in perf_counter seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "names": self.names,
            "absent": self.absent,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "job": self.span_job.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as out:
            json.dump(payload, out, separators=(",", ":"))
