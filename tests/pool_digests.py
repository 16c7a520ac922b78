"""Recompute every benchmark pool member's digest and compare it with bench/reference.json.

    python tests/pool_digests.py

For each workload of bench/workloads.py, it builds the pool, runs every
job, applies the workload's check and compares the payload digest with the
stored reference (2360 families, about a minute).  It prints
"N pool digests checked, M differ", then one line per difference on stderr,
and exits non-zero when any member differs or fails its check.  It writes
nothing: no report, and no bytecode for the modules it imports.  pytest does
not collect this file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    bc = run.import_package()
    reference = json.loads(run.BENCH.joinpath("reference.json").read_text())["digests"]
    count, bad = 0, []
    for workload in sorted(workloads.CLASSES):
        for cases in workloads.make_pool(bc, workload).values():
            for case in cases:
                result = workloads.JOBS[workload](bc, case)
                problems, payload = workloads.CHECKS[workload](bc, case, result)
                if problems or workloads.digest(payload) != reference[workload][case.key]:
                    bad.append(f"{workload} {case.key}: {'; '.join(problems) or 'digest differs'}")
                count += 1
    print(f"{count} pool digests checked, {len(bad)} differ")
    if bad:
        print("\n".join(bad), file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
