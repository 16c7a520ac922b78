"""Regenerate bench/reference.json: per pool member, its output digest and
its dual size (terms of the contraction dual generator), which the run
schedule stratifies on.

    python3 bench/make_reference.py [workload ...]

Run this only on a commit whose outputs are trusted (the reference was made
on the seed commit); every later benchmark run must reproduce the digests.
Each job is also checked, and a failing job stops the script.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main(argv: list[str]) -> int:
    names = argv or sorted(workloads.CLASSES)
    bc = run.import_package()
    path = run.BENCH / "reference.json"
    data = json.loads(path.read_text()) if path.is_file() else {"digests": {}, "sizes": {}}
    for workload in names:
        digests, sizes = {}, {}
        for cases in workloads.make_pool(bc, workload).values():
            for case in cases:
                result = workloads.JOBS[workload](bc, case)
                problems, payload = workloads.CHECKS[workload](bc, case, result)
                if problems:
                    raise SystemExit(f"{workload} {case.key}: {'; '.join(problems)}")
                digests[case.key] = workloads.digest(payload)
                sizes[case.key] = workloads.dual_size(bc, case)
        data["digests"][workload] = digests
        data["sizes"][workload] = sizes
        data["commit"] = run.git_commit()
        print(f"{workload}: {len(digests)} digests", flush=True)
    path.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
