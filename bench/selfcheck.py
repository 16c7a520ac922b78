"""Fast self-check of the benchmark: one cycle of each workload, untraced and
traced, from the repository root:

    python3 bench/selfcheck.py

Asserts that every run exits 0, fails no job, prints every end-to-end metric
(fail_frac included, at 0) by name, and puts exactly the metrics that
BENCHMARK.json lists into its result line.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            report, result = run(workload, trace)
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                raise AssertionError(f"{workload} trace={trace}: {result} {report}")
            metrics = result["metrics"]
            if set(metrics) != set(expected):
                raise AssertionError(f"{workload} trace={trace}: metrics {sorted(set(metrics) ^ set(expected))}")
            for name, unit in expected.items():
                if metrics[name]["unit"] != unit or not isinstance(metrics[name]["value"], (int, float)):
                    raise AssertionError(f"{workload}: bad entry for {name}: {metrics[name]}")
            printed = {line.split()[0] for line in report if line.strip()}
            required = set(expected) | ({"fail_frac"} if trace == 0 else {"trace"})
            if required - printed:
                raise AssertionError(f"{workload} trace={trace}: report lacks {sorted(required - printed)}")
            if trace == 0 and "fail_frac 0 fraction" not in report:
                raise AssertionError(f"{workload}: fail_frac is not 0")
            print(f"ok {workload} trace={trace}: {result['attempted']} jobs, {len(metrics)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
