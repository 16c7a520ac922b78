"""Mutation check of the fast kernels and the text lexer: every mutant in
MUTANTS must be killed.

    python tests/mutants.py

Each row names a file under src/, an exact snippet that must occur in it
once, its one-line replacement, and the check that must fail on the mutant:
"selftest" (python -m binomial_ci selftest) or a test file run by pytest.
The runner first runs every check on an unmutated copy, which must pass.
Then, for each mutant, it copies src/, tests/, README.md and pyproject.toml
into a temporary directory, applies that one mutant and runs its check,
at most two subprocesses at a time, each under a timeout.

The run fails when a mutant survives (its check passes), hangs (its check
outlives the timeout), or its snippet no longer matches exactly, so a change
to a mutated line must update its row.  A change that adds or alters a packed
kernel adds its mutant here.  The mutants target the fast modules and the
lexer of the family text grammar; the brute-force references in
`binomial_ci.reference` are what the kernels are checked against, and the
pinned parse errors of tests/test_family.py what the lexer is.  pytest does
not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "README.md", "pyproject.toml")
WORKERS = 2
TIMEOUT_S = 120


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    snippet: str
    replacement: str
    check: str  # "selftest" or a test file


MUTANTS = [
    Mutant(
        "spanning blocks skip j = floor(D/2)",
        "src/binomial_ci/oracle.py",
        "    for j in range(top // 2 + 1):\n        rows = _pack_all(",
        "    for j in range(top // 2):\n        rows = _pack_all(",
        "selftest",
    ),
    Mutant(
        "lanes without room for the sum of two exponents",
        "src/binomial_ci/keys.py",
        "    bits = (2 * top).bit_length() + 1",
        "    bits = top.bit_length() + 1",
        "selftest",
    ),
    Mutant(
        "Macaulay kernel reads only the lowest row of a column",
        "src/binomial_ci/oracle.py",
        "            rows &= rows - 1",
        "            rows = 0",
        "selftest",
    ),
    Mutant(
        "cycle multiplicities set to 1",
        "src/binomial_ci/graph.py",
        "        result = result * _binomial_power(graph.n, r, k)",
        "        result = result * _binomial_power(graph.n, r, 1)",
        "selftest",
    ),
    Mutant(
        "cycle types each counted once",
        "src/binomial_ci/graph.py",
        "            types[cycle.label_counts] = types.get(cycle.label_counts, 0) + 1",
        "            types[cycle.label_counts] = 1",
        "selftest",
    ),
    Mutant(
        "off-cycle counts without the factor k",
        "src/binomial_ci/graph.py",
        "        on_cycles = [sum(k * r[i] for r, k in self.cycle_types.items()) for i in range(self.n)]",
        "        on_cycles = [sum(r[i] for r, k in self.cycle_types.items()) for i in range(self.n)]",
        "tests/test_resultant.py",
    ),
    Mutant(
        "reverse search drops the lower-lane label test",
        "src/binomial_ci/dual.py",
        "(v - bound) & mask == bit:  # v's label is i",
        "(v - bound) & bit == bit:  # v's label is i",
        "selftest",
    ),
    Mutant(
        "reverse search visits the labels in ascending order",
        "src/binomial_ci/dual.py",
        "        for i in sorted(range(n), key=u.__getitem__, reverse=True)",
        "        for i in sorted(range(n), key=u.__getitem__)",
        "tests/test_dual.py",
    ),
    Mutant(
        "a label's count unit in the next lane",
        "src/binomial_ci/dual.py",
        "1 << ends[i] - 1, 1 << 8 * rb * i)",
        "1 << ends[i] - 1, 1 << 8 * rb * (i + 1))",
        "selftest",
    ),
    Mutant(
        "packed dual keeps the fixed symbols' lanes",
        "src/binomial_ci/dual.py",
        "    return [(key & mask, c) for key, c in zip(keys, ints) if c], scale, nb, guard",
        "    return [(key, c) for key, c in zip(keys, ints) if c], scale, nb, guard",
        "tests/test_dual.py",
    ),
    Mutant(
        "packed dual lanes sized without max(s) + 1",
        "src/binomial_ci/dual.py",
        "    nb = _lane_bytes(max(fam.socle_degree, max(s) + 1, *degrees))",
        "    nb = _lane_bytes(max(fam.socle_degree, *degrees))",
        "tests/test_dual.py",
    ),
    Mutant(
        "packed dual lanes sized without the checked degrees",
        "src/binomial_ci/dual.py",
        "    nb = _lane_bytes(max(fam.socle_degree, max(s) + 1, *degrees))",
        "    nb = _lane_bytes(max(fam.socle_degree, max(s) + 1))",
        "tests/test_dual.py",
    ),
    Mutant(
        "Lefschetz verdicts skip k = floor(D/2)",
        "src/binomial_ci/lefschetz.py",
        "    for k in range(top // 2 + 1):",
        "    for k in range(top // 2):",
        "tests/test_lefschetz.py",
    ),
    Mutant(
        "every pure-power t entry set to 0",
        "src/binomial_ci/resultant.py",
        "        elif not graph.off_cycle_counts[i - 1]:",
        "        elif True:",
        "tests/test_resultant.py",
    ),
    Mutant(
        "Macaulay kernel cycles never kill",
        "src/binomial_ci/oracle.py",
        "                    if not holds:",
        "                    if False:",
        "selftest",
    ),
    Mutant(
        "union potential sign flipped",
        "src/binomial_ci/oracle.py",
        "                parent[ru], pot[ru] = rv, r",
        "                parent[ru], pot[ru] = rv, -r",
        "selftest",
    ),
    Mutant(
        "one-term row never kills at u",
        "src/binomial_ci/oracle.py",
        "                dead[find(iu)] = 1",
        "                find(iu)",
        "selftest",
    ),
    Mutant(
        "spanning blocks read B_j x B_j",
        "src/binomial_ci/oracle.py",
        "        columns = _pack_all(family.basis_exponents(top - j), n, nb)",
        "        columns = _pack_all(family.basis_exponents(j), n, nb)",
        "selftest",
    ),
    Mutant(
        "det_sparse drops the permutation sign",
        "src/binomial_ci/linalg.py",
        "    return -det if parity % 2 else det",
        "    return det",
        "tests/test_linalg.py",
    ),
    Mutant(
        "a stray bit in the packed dual's R lanes",
        "src/binomial_ci/dual.py",
        "(top - r) << w | r << 2 * w for a, r in",
        "(top - r) << w | (r | 1) << 2 * w for a, r in",
        "tests/test_dual.py",
    ),
    Mutant(
        "dual pass taken by a dual whose tree was replaced",
        "src/binomial_ci/dual.py",
        " and F.convention == convention and F._tree is _in_tree(F.family)[0]:",
        " and F.convention == convention:",
        "tests/test_dual.py",
    ),
    Mutant(
        "lexer keeps the line start after a newline",
        "src/binomial_ci/family.py",
        "                line, start = line + 1, m.end()",
        "                line, start = line + 1, start",
        "tests/test_family.py",
    ),
    Mutant(
        "lexer takes any word character for a letter",
        "src/binomial_ci/family.py",
        'elif kind == "OTHER" or kind == "NAME" and not lexeme[0].isalpha():',
        'elif kind == "OTHER":',
        "tests/test_family.py",
    ),
]


def _command(check: str) -> list[str]:
    if check == "selftest":
        return [sys.executable, "-m", "binomial_ci", "selftest"]
    return [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", check]


def _copy(into: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(source, into / name)


def _run(check: str, mutant: Mutant | None = None) -> tuple[str, float]:
    """('passed' | 'failed' | 'hung' | 'no match', seconds) for one check on
    a fresh copy, with the mutant applied when given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        if mutant is not None:
            target = copy / mutant.path
            text = target.read_text()
            if text.count(mutant.snippet) != 1:
                return "no match", 0.0
            target.write_text(text.replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            done = subprocess.run(
                _command(check), cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return "hung", time.perf_counter() - start
        return ("passed" if done.returncode == 0 else "failed"), time.perf_counter() - start


def main() -> int:
    problems = 0
    with ThreadPoolExecutor(WORKERS) as pool:
        checks = sorted({m.check for m in MUTANTS})
        for check, (outcome, seconds) in zip(checks, pool.map(_run, checks)):
            print(f"{'baseline' if outcome == 'passed' else 'BROKEN':9} {check} on the unmutated copy ({seconds:.1f} s)")
            problems += outcome != "passed"
        if problems:
            print("a check fails without any mutant; fix it first")
            return 1
        runs = pool.map(lambda m: _run(m.check, m), MUTANTS)
        for mutant, (outcome, seconds) in zip(MUTANTS, runs):
            verdict = {"failed": "killed", "passed": "SURVIVED", "hung": "HUNG", "no match": "NO MATCH"}[outcome]
            print(f"{verdict:9} {mutant.name} [{mutant.path}] by {mutant.check} ({seconds:.1f} s)")
            problems += outcome != "failed"
    print(f"{len(MUTANTS) - problems}/{len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
