"""Seeded closed-loop benchmark of binomial_ci.

    python3 bench/run.py --workload structure --seed 1 --seconds 30 --trace 0

One client, one process, one thread: each job (one whole family analysis)
starts after the previous one ends.  Jobs run in rounds of one family per
size class until `--seconds` have passed at a cycle boundary, or the fixed
pool of the workload runs out.  Every job is checked (see workloads.py) and
its canonical output digest must match bench/reference.json, generated on
the seed commit by bench/make_reference.py.  Checks run between jobs and are
not timed.

Jobs run in cycles that each hold the same family mix (see
workloads.schedule), and a run stops only at a cycle boundary.

The host this was written on (a 2-vCPU VM shared with other tenants) runs
the same Python code up to 40% slower for stretches of seconds to minutes.
So before every job, and before every setup probe, the run times a fixed
calibration kernel that does not touch binomial_ci, and divides each time
by host_speed = (median kernel time around that job) / KERNEL_REF_S.  Over
4-s windows the kernel's time tracked a structure job's time with
correlation 0.97, and the spread of job time fell from 14% to 3.6% once
divided by it.  Every time metric below is thus "at the reference host
speed"; the report lines also give the raw figures and the host speed.
  families_per_s     median over cycles of verified jobs / job wall time
  family_p50_ms      median job wall time (Harrell-Davis estimate)
  family_p90_ms      90th percentile job wall time (Harrell-Davis estimate)
  cpu_ms_per_family  median over cycles of process CPU time per job
  fail_frac          failed / attempted jobs (also `failed` and `attempted`)
  setup_s            median wall time of fresh processes that import the
                     package and generate the families, then exit
  peak_rss_mb        ru_maxrss of this process at the end of the run (raw)

Human-readable lines come first: provenance, then every metric with its
unit.  The last line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics (bench/tracing.py) with `--trace 1`.  A traced run also
writes its spans to .bench_out/ and states its own overhead.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

import tracing
import workloads

SETUP_REPEATS = 5
JOB_BUDGET_S = 30
# The calibration kernel's median time on the reference host (2-vCPU VM,
# Python 3.11); host_speed is measured against it.
KERNEL_REF_S = 0.004


class JobOverBudget(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobOverBudget(f"job exceeded its {JOB_BUDGET_S} s budget")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import binomial_ci from this checkout's src/, never an installed copy."""
    if not (SRC / "binomial_ci" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'binomial_ci'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import binomial_ci
    import binomial_ci.cli  # noqa: F401  (cli-session calls binomial_ci.cli.main)

    if Path(binomial_ci.__file__).resolve().parent != (SRC / "binomial_ci").resolve():
        raise SystemExit(f"error: imported {binomial_ci.__file__}, expected {SRC}")
    return binomial_ci


def setup(workload: str, seed: int):
    """Import and generate: everything between process start and the first job."""
    bc = import_package()
    pool = workloads.make_pool(bc, workload)
    order = workloads.schedule(pool, workload, seed, load_reference("sizes", workload))
    warmup = workloads.warmup_cases(bc, workload, seed, pool)
    return bc, order, warmup


def calibration_kernel() -> float:
    """Seconds for a fixed loop of exact rational and dict work that does not
    use binomial_ci: a probe of how fast the host runs Python right now."""
    t0 = time.perf_counter()
    acc = {}
    x = Fraction(1, 3)
    for i in range(400):
        key = (i % 7, i % 11, i % 5)
        acc[key] = acc.get(key, 0) + x * (i + 1)
        x = x * Fraction(i + 2, 2 * i + 3) + 1
    return time.perf_counter() - t0


def host_speeds(kernel: list[float]) -> list[float]:
    """Per job, the median kernel time of it and its two neighbours on each
    side, relative to KERNEL_REF_S (above 1 means a slow host)."""
    return [statistics.median(kernel[max(0, j - 2):j + 3]) / KERNEL_REF_S for j in range(len(kernel))]


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (Biometrika 69, 1982): the
    mean of all order statistics weighted by a Beta(q(n+1), (1-q)(n+1))
    density.  Steadier than a single order statistic when the jobs around
    the quantile come from classes whose times differ a lot."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta) if 0 < x < 1 else 0.0

    steps = 16  # Simpson's rule over each order statistic's interval
    h = 1 / (n * steps)
    weights = [
        h / 3 * sum((1 if k in (0, steps) else 4 if k % 2 else 2) * density(i / n + k * h) for k in range(steps + 1))
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def setup_seconds(args) -> tuple[float, float]:
    """Median wall time, raw and at reference host speed, of SETUP_REPEATS
    fresh processes that only set up."""
    raw, scaled = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    for _ in range(SETUP_REPEATS):
        speed = calibration_kernel() / KERNEL_REF_S
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] / speed)
    return statistics.median(raw), statistics.median(scaled)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_reference(section: str, workload: str) -> dict:
    """One section ("digests" or "sizes") of bench/reference.json."""
    return json.loads((BENCH / "reference.json").read_text())[section][workload]


def run_job(bc, workload: str, case, reference: dict[str, str] | None, tracer, trace: bool):
    """Run one job, then check it untraced; returns (seconds, cpu seconds, problems)."""
    job = workloads.JOBS[workload]
    signal.setitimer(signal.ITIMER_REAL, JOB_BUDGET_S)
    tracer.enabled = trace
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result = job(bc, case)
        error = None
    except Exception as exc:  # any raise is a failed job, counted below
        error = f"{type(exc).__name__}: {exc}"
    finally:
        t1 = time.perf_counter()
        c1 = time.process_time()
        tracer.enabled = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    if error is not None:
        return t1 - t0, c1 - c0, [error]
    try:
        problems, payload = workloads.CHECKS[workload](bc, case, result)
    except Exception as exc:
        problems, payload = [f"check raised {type(exc).__name__}: {exc}"], None
    if not problems and reference is not None:
        expected = reference.get(case.key)
        got = workloads.digest(payload)
        if expected != got:
            problems.append(f"digest {got} != reference {expected}")
    return t1 - t0, c1 - c0, problems


def span_cost_seconds() -> float:
    """Cost of one enabled span, from a wrapped no-op called many times."""
    probe = tracing.Tracer()
    noop = probe.wrap("noop", lambda: None)
    raw = lambda: None  # noqa: E731
    calls = 20000
    t0 = time.perf_counter()
    for _ in range(calls):
        raw()
    t1 = time.perf_counter()
    probe.enabled = True
    for _ in range(calls):
        noop()
    t2 = time.perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup(args.workload, args.seed)
        return 0
    if args.seconds < 0:
        raise SystemExit("error: --seconds must be nonnegative")
    bc, order, warmup = setup(args.workload, args.seed)
    first_setup_s = time.perf_counter() - START
    reference = load_reference("digests", args.workload)
    raw_setup_s, setup_s = setup_seconds(args)
    signal.signal(signal.SIGALRM, _on_alarm)

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    for case in warmup:
        run_job(bc, args.workload, case, None, tracer, False)
    gc.collect()
    gc.freeze()

    cache = getattr(getattr(bc, "oracle", None), "_ideal_space", None)
    cache_info = getattr(cache, "cache_info", None)
    if cache_info is None and args.trace:
        tracer.absent.append("oracle.ideal_space_cache")
    before = cache_info() if cache_info else None

    per_cycle = len(workloads.CLASSES[args.workload]) * workloads.CYCLE
    durations, cpu, verified, failures, kernel = [], [], [], [], []
    loop_start = time.perf_counter()
    for index, case in enumerate(order):
        if index and index % per_cycle == 0 and time.perf_counter() - loop_start >= args.seconds:
            break
        tracer.job = index
        kernel.append(calibration_kernel())
        seconds, cpu_seconds, problems = run_job(bc, args.workload, case, reference, tracer, bool(args.trace))
        durations.append(seconds)
        cpu.append(cpu_seconds)
        verified.append(not problems)
        if problems:
            failures.append((case.key, problems))
    loop_seconds = time.perf_counter() - loop_start
    after = cache_info() if cache_info else None

    attempted = len(durations)
    failed = len(failures)
    busy = sum(durations)
    cycles = [slice(i, i + per_cycle) for i in range(0, attempted, per_cycle)]
    speeds = host_speeds(kernel)

    def time_metrics(wall: list[float], cpu_s: list[float], setup: float) -> dict:
        return {
            "families_per_s": (statistics.median(sum(verified[c]) / sum(wall[c]) for c in cycles), "1/s"),
            "family_p50_ms": (1000.0 * hd_quantile(wall, 0.5), "ms"),
            "family_p90_ms": (1000.0 * hd_quantile(wall, 0.9), "ms"),
            "cpu_ms_per_family": (1000.0 * statistics.median(sum(cpu_s[c]) / len(cpu_s[c]) for c in cycles), "ms"),
            "setup_s": (setup, "s"),
        }

    raw = time_metrics(durations, cpu, raw_setup_s)
    e2e = time_metrics([t / v for t, v in zip(durations, speeds)], [t / v for t, v in zip(cpu, speeds)], setup_s)
    e2e["fail_frac"] = (failed / attempted, "fraction")
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"binomial_ci {bc.__file__}  commit {git_commit()}  "
          f"python {platform.python_version()}  nproc {len(os.sched_getaffinity(0))}")
    print(f"jobs {attempted}  cycles {len(cycles)}  failed {failed}  loop_s {loop_seconds:.3f}  busy_s {busy:.3f}  "
          f"first_setup_s {first_setup_s:.4f}  pool_left {len(order) - len(durations)}")
    for key, problems in failures[:10]:
        print(f"FAILED {key}: {'; '.join(problems)}")
    label = "traced " if args.trace else ""
    print(f"host_speed median {statistics.median(speeds):.4f} min {min(speeds):.4f} max {max(speeds):.4f} "
          f"(kernel time / {KERNEL_REF_S} s)")
    for name, (value, unit) in raw.items():
        print(f"{label}raw_{name} {value:.6g} {unit}")
    for name, (value, unit) in e2e.items():
        print(f"{label}{name} {value:.6g} {unit}")

    if args.trace:
        hits = misses = 0
        if before is not None:
            hits, misses = after.hits - before.hits, after.misses - before.misses
        layer = tracer.metrics(attempted, hits, hits + misses)
        units = dict(tracing.METRICS)
        for name, value in layer.items():
            print(f"{name} {value:.6g} {units[name]}")
        spans = len(tracer.span_start)
        overhead = spans * span_cost_seconds()
        print(f"trace spans {spans}  absent {','.join(tracer.absent) or 'none'}  "
              f"overhead_s {overhead:.3f}  overhead_frac {overhead / busy:.4f} of busy time")
        path = OUT / f"spans-{args.workload}-{args.seed}.json.gz"
        tracer.write(path)
        print(f"spans written to {path.relative_to(ROOT)}")
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layer.items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()
                   if name != "fail_frac"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
