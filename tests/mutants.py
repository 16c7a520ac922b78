"""Mutation check of the fast kernels and the text lexer: every mutant in
MUTANTS must be killed.

    python tests/mutants.py

Each row names a file under src/, an exact snippet that must occur in it
once, its one-line replacement, and the check that must fail on the mutant:
"selftest" (python -m binomial_ci selftest), or a test file or test id run
by pytest.  `selftest` checks only the paper's claims on the worked
examples, so it names the mutants that break one of them (the cycle counts,
the in-tree's label tests, the Macaulay kernel's cycles, the spanning
blocks' columns); every other row names the narrowest test of tests/ that
compares the fast path with its reference and kills the mutant.
The runner first runs every check on an unmutated copy, which must pass.
Then, for each mutant, it copies src/, tests/, README.md and pyproject.toml
into a temporary directory, applies that one mutant and runs its check,
at most two subprocesses at a time, each under a timeout.

The run fails when a mutant survives (its check passes), hangs (its check
outlives the timeout), or its snippet no longer matches exactly, so a change
to a mutated line must update its row.  A change that adds or alters a packed
kernel adds its mutant here.  The mutants target the fast modules, the
packed rewriting walk, the certificate check's one expansion and the replay
of a kept walk that checks a certificate of `certificate` from its input,
the graph's shared label table and its sentinel walk, the Macaulay kernel's
rows per generator from the same table, the spanning blocks read from that
table's sinks, the definitional avoided-power basis filter, the in-tree
search and the annihilation verdict it decides as it goes, the evaluated dual's
integer form and the same-dual annihilation shortcut, the zero filters of
SparsePoly's sum and product and the CoeffMonomial denominator, the
numeric resultant oracle's scales, one per label, the lexer of the family
text grammar, its regex path and the checks both paths share, the dual's
renderer, and the CLI's indented JSON writer.
The brute-force references in `binomial_ci.reference` are what the kernels
are checked against, walks by the tuple step `BinomialFamily.step` and the
SparsePoly expansion of tests/test_rewrite.py what the walk and the check
are, the pinned parse errors of tests/test_family.py what the lexer is, the
token path what the regex path is, the printed `sparse_terms` what the
dual's renderer is, the expansion of the same steps what the replay of a
kept walk is, json.dumps with indent=2 what the JSON writer is, and
`det_structural` at the same values what the oracle's scales are.
pytest does not collect this file.
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
    check: str  # "selftest", a test file or a test id


MUTANTS = [
    Mutant(
        "spanning blocks skip j = floor(D/2)",
        "src/binomial_ci/oracle.py",
        "    for j in range(top // 2 + 1):\n        if rank_of(_pairing(packed, avoided(j)",
        "    for j in range(top // 2):\n        if rank_of(_pairing(packed, avoided(j)",
        "tests/test_oracle.py::test_one_pass_spanning_matches_the_two_rank_definition",
    ),
    Mutant(
        "lanes without room for the sum of two exponents",
        "src/binomial_ci/keys.py",
        "    return 1 << ((2 * top).bit_length() // 8).bit_length()",
        "    return 1 << (top.bit_length() // 8).bit_length()",
        "tests/test_dual.py::TestPackedInTree::test_every_lane_width_gives_rewrite_steps",
    ),
    Mutant(
        "Macaulay row table keeps only each column's label lane",
        "src/binomial_ci/keys.py",
        "map(and_, tests, repeat(",
        "map(and_, [t & -t for t in tests], repeat(",
        "tests/test_oracle.py::test_kernel_matches_row_reduction",
    ),
    Mutant(
        "Macaulay row table drops each column's own label lane",
        "src/binomial_ci/keys.py",
        "map(and_, tests, repeat(",
        "map(and_, [t & t - 1 for t in tests], repeat(",
        "tests/test_oracle.py::test_kernel_with_one_zeroed_coefficient_matches_the_rows_on_drawn_families_hypothesis",
    ),
    Mutant(
        "Macaulay partners read with the previous generator's delta",
        "src/binomial_ci/oracle.py",
        "repeat(deltas[k])",
        "repeat(deltas[k - 1])",
        "tests/test_oracle.py::test_kernel_matches_row_reduction",
    ),
    Mutant(
        "b_k = 0 kills the partner's component, not the column's",
        "src/binomial_ci/oracle.py",
        "            for x in us if a else partners if b else ():",
        "            for x in partners if a else partners if b else ():",
        "tests/test_oracle.py::test_kernel_with_one_zeroed_coefficient_matches_the_rows_on_drawn_families_hypothesis",
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
        "label table keyed without the degrees",
        "src/binomial_ci/keys.py",
        "@lru_cache(maxsize=64)\ndef degree_labels(",
        "@lambda f, memo={}: lambda degrees, d, nb: memo.get((len(degrees), d, nb)) or memo.setdefault((len(degrees), d, nb), f(degrees, d, nb))\ndef degree_labels(",
        "tests/test_graph.py::TestSharedLabelTable::test_equal_shapes_with_other_degrees_get_their_own_labels",
    ),
    Mutant(
        "graph walk's sentinel slot left unset",
        "src/binomial_ci/graph.py",
        "    reached = [-1] * count + [count]",
        "    reached = [-1] * count + [-1]",
        "tests/test_graph.py::TestDoubleCycleFamily::test_degree_three_graph_has_one_sink_and_one_cycle",
    ),
    Mutant(
        "graph walk closes a cycle on any earlier walk's vertex",
        "src/binomial_ci/graph.py",
        "        if reached[v] == start:",
        "        if reached[v] >= 0:",
        "tests/test_graph.py::TestChainFamily::test_all_paths_reach_the_sink",
    ),
    Mutant(
        "a sink's walk successor left at its own position",
        "src/binomial_ci/graph.py",
        "succ[v], edges[v], vertex_class[v] = count, None, SINK",
        "succ[v], edges[v], vertex_class[v] = v, None, SINK",
        "tests/test_graph.py::TestInvariants::test_sinks_are_exactly_the_basis_monomials",
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
        "t = (v - bound) & mask",
        "t = (v - bound) & bit",
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
        "one-term rows never kill",
        "src/binomial_ci/oracle.py",
        "                dead[find(x)] = 1",
        "                find(x)",
        "tests/test_oracle.py::test_kernel_matches_row_reduction",
    ),
    Mutant(
        "spanning blocks read a label table of degrees F's lanes do not hold",
        "src/binomial_ci/oracle.py",
        "    degrees = tuple(min(d, top + 1) for d in family.degrees)",
        "    degrees = family.degrees",
        "tests/test_oracle.py::test_one_pass_spanning_matches_the_two_rank_definition",
    ),
    Mutant(
        "spanning blocks read B_j x B_j",
        "src/binomial_ci/oracle.py",
        "avoided(j), avoided(top - j)",
        "avoided(j), avoided(j)",
        "selftest",
    ),
    Mutant(
        "det_sparse drops the permutation sign",
        "src/binomial_ci/linalg.py",
        "    return (-num if parity % 2 else num), den",
        "    return num, den",
        "tests/test_linalg.py",
    ),
    Mutant(
        "numeric oracle raises a label's scale to c_i - 1",
        "src/binomial_ci/resultant.py",
        "        c = graph.labels.count(i)",
        "        c = graph.labels.count(i) - 1",
        "tests/test_resultant.py::TestDetStructural::test_matches_numeric_oracle_at_random_points",
    ),
    Mutant(
        "numeric oracle drops the gcd g_i from a label's scale",
        "src/binomial_ci/resultant.py",
        "        scale_num *= g**c",
        "        scale_num *= 1",
        "tests/test_resultant.py::TestDetStructural::test_matches_numeric_oracle_at_random_points",
    ),
    Mutant(
        "search's non-label pair count without the label's unit",
        "src/binomial_ci/dual.py",
        "pc.append(r + unit)",
        "pc.append(r)",
        "tests/test_dual.py::TestMatch",
    ),
    Mutant(
        "search's non-label pair test on the next lane's guard bit",
        "src/binomial_ci/dual.py",
        "elif t & bit:",
        "elif t & bit << 8 * nb:",
        "tests/test_dual.py::TestMatch",
    ),
    Mutant(
        "search's non-label pair test without lane i's own test",
        "src/binomial_ci/dual.py",
        "elif t & bit:",
        "elif t:",
        "tests/test_dual.py::test_search_verdict_matches_the_reference_on_drawn_families_hypothesis",
    ),
    Mutant(
        "search verdict counts the guard bits of the keys, not of key - pack(d)",
        "src/binomial_ci/dual.py",
        "[(k - bound) & guard for k in seen]",
        "[k & guard for k in seen]",
        "tests/test_dual.py::test_search_verdict_matches_the_reference_on_drawn_families_hypothesis",
    ),
    Mutant(
        "search verdict counts the label of every vertex as a non-label pair",
        "src/binomial_ci/dual.py",
        " - len(seen) + 1 == len(pv)",
        " == len(pv)",
        "tests/test_dual.py::test_search_verdict_matches_the_reference_on_drawn_families_hypothesis",
    ),
    Mutant(
        "search verdict skips the count comparison of its non-label pairs",
        "src/binomial_ci/dual.py",
        "list(map(seen.get, pv)) == pc and ",
        "",
        "tests/test_dual.py::TestSearchVerdict::test_tampered_outputs_fail",
    ),
    Mutant(
        "in-tree verdict taken for a family other than the dual's",
        "src/binomial_ci/dual.py",
        " and dual.family == family:",
        ":",
        "tests/test_dual.py::TestPackedDualFeed::test_a_dual_checked_against_another_family",
    ),
    Mutant(
        "a failed search verdict read as True",
        "src/binomial_ci/dual.py",
        "    if F._tree[2]:",
        "    if F._tree[2] or True:",
        "tests/test_dual.py::TestPackedDualFeed::test_one_changed_label_count_leaves_a_residual",
    ),
    Mutant(
        "verdict read from the family's cached in-tree, not the dual's",
        "src/binomial_ci/dual.py",
        "    if F._tree[2]:",
        "    if _in_tree(F.family)[2]:",
        "tests/test_dual.py::TestPackedDualFeed::test_one_changed_label_count_leaves_a_residual",
    ),
    Mutant(
        "evaluated-dual shortcut ignores the convention",
        "src/binomial_ci/dual.py",
        "isinstance(dual, DualGenerator) and dual.convention == convention and",
        "isinstance(dual, DualGenerator) and",
        "tests/test_dual.py::TestEvaluatedDual::test_annihilation_of_an_evaluation_is_that_of_its_dict",
    ),
    Mutant(
        "in-tree integer form's power tables swap a and b",
        "src/binomial_ci/dual.py",
        "(p * v) ** (top - r) * (q * u) ** r",
        "(q * u) ** (top - r) * (p * v) ** r",
        "tests/test_dual.py::test_in_tree_integer_form_matches_the_scaled_values_on_drawn_families_hypothesis",
    ),
    Mutant(
        "in-tree integer form read for the other convention/flag pair",
        "src/binomial_ci/oracle.py",
        "differentiate == (F.dual.convention == DIFFERENTIATION)",
        "differentiate != (F.dual.convention == DIFFERENTIATION)",
        "tests/test_dual.py::test_in_tree_integer_form_matches_the_scaled_values_on_drawn_families_hypothesis",
    ),
    Mutant(
        "SparsePoly product keeps the zero sums of cancelled terms",
        "src/binomial_ci/algebra.py",
        "+ c1 * c2\n        return SparsePoly._raw(self.n, {key: c for key, c in acc.items() if c})",
        "+ c1 * c2\n        return SparsePoly._raw(self.n, acc)",
        "tests/test_algebra.py::TestSparsePoly::test_cancelled_sums_and_products_store_no_zero",
    ),
    Mutant(
        "SparsePoly sum keeps the zero sums of cancelled terms",
        "src/binomial_ci/algebra.py",
        "+ coeff\n        return SparsePoly._raw(self.n, {key: c for key, c in acc.items() if c})",
        "+ coeff\n        return SparsePoly._raw(self.n, acc)",
        "tests/test_algebra.py::TestSparsePoly::test_cancelled_sums_and_products_store_no_zero",
    ),
    Mutant(
        "CoeffMonomial denominator rendered from the positive exponents",
        "src/binomial_ci/algebra.py",
        "_render_symbols(tuple(map(neg, key)), self.n)",
        "_render_symbols(key, self.n)",
        "tests/test_algebra.py::TestCoeffMonomial::test_division_and_evaluation",
    ),
    Mutant(
        "rewriting walk's cutoff one lane too high",
        "src/binomial_ci/rewrite.py",
        "    below = guard & (1 << w * k) - 1",
        "    below = guard & (1 << w * (k + 1)) - 1",
        "tests/test_rewrite.py",
    ),
    Mutant(
        "rewriting walk takes the highest label",
        "src/binomial_ci/rewrite.py",
        "        label = (rows & -rows).bit_length() // w",
        "        label = rows.bit_length() // w",
        "tests/test_rewrite.py::test_packed_walk_matches_the_tuple_step_on_drawn_families_hypothesis",
    ),
    Mutant(
        "certificate residual lanes sized without the steps' rows",
        "src/binomial_ci/rewrite.py",
        "    nb = _wide_lane_bytes(max(*family.degrees, *first, *last, *map(max, rows)))",
        "    nb = _wide_lane_bytes(max(*family.degrees, *first, *last))",
        "tests/test_rewrite.py::TestCertificateResidual::test_large_tampered_scale_exponents_match_the_reference",
    ),
    Mutant(
        "certificate replay runs from an input other than the walk's",
        "src/binomial_ci/rewrite.py",
        "    if steps.input != cert.input:",
        "    if False:",
        "tests/test_rewrite.py::TestCompactCertificates::test_an_input_and_rhs_moved_together_get_the_explicit_residual",
    ),
    Mutant(
        "certificate replay drops the per-step guard test",
        "src/binomial_ci/rewrite.py",
        "map(and_, map(bits.__getitem__, labels)",
        "map(or_, map(bits.__getitem__, labels)",
        "tests/test_rewrite.py::TestCompactCertificates::test_labels_that_fail_a_guard_test_get_the_explicit_residual",
    ),
    Mutant(
        "certificate replay drops the end-state comparison",
        "src/binomial_ci/rewrite.py",
        "    return _unpack_all((next(states),), n, nb)[0] == cert.rhs_monomial.exponents",
        "    return True",
        "tests/test_rewrite.py::TestCompactCertificates::test_replaced_fields_get_the_explicit_residual",
    ),
    Mutant(
        "certificate replay taken for a family other than the walk's",
        "src/binomial_ci/rewrite.py",
        " and steps.family == family and _replays(",
        " and _replays(",
        "tests/test_rewrite.py::TestCompactCertificates::test_a_walk_checked_against_another_family",
    ),
    Mutant(
        "certificate replay moves drop the tails",
        "src/binomial_ci/rewrite.py",
        "[0] + [_shifted(t.exponents, nb) - (d << w * i) for",
        "[0] + [-(d << w * i) for",
        "tests/test_rewrite.py::TestCompactCertificates::test_check_replays_without_expanding",
    ),
    Mutant(
        "certificate replay skips the a_product and rhs_coeff check",
        "src/binomial_ci/rewrite.py",
        "    if (a.scalar, a.a_exp, a.b_exp, c.scalar, c.a_exp, c.b_exp) != (1, r, zero, 1, zero, r):",
        "    if False:",
        "tests/test_rewrite.py::TestCompactCertificates::test_replaced_fields_get_the_explicit_residual",
    ),
    Mutant(
        "avoided-power basis filter takes e_i <= d_i",
        "src/binomial_ci/family.py",
        "all(map(lt, e, self.degrees))",
        "all(map(int.__le__, e, self.degrees))",
        "tests/test_family.py::TestHelpers::test_basis_exponents_match_the_monomial_definition",
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
    Mutant(
        "regex path takes a sign before an a/b symbol",
        "src/binomial_ci/family.py",
        'rf"(?:([ab])([0-9]+)|',
        'rf"(?:-?([ab])([0-9]+)|',
        "tests/test_family.py::TestFastPath",
    ),
    Mutant(
        "generator checks take any lead that holds x_idx",
        "src/binomial_ci/family.py",
        "        if list(lead[2]) != [idx]:",
        "        if idx not in lead[2]:",
        "tests/test_family.py::TestFastPath",
    ),
    Mutant(
        "generator checks skip the duplicate index",
        "src/binomial_ci/family.py",
        "        if idx in seen:",
        "        if False:",
        "tests/test_family.py::TestFastPath",
    ),
    Mutant(
        "dual renderer drops a term's minus sign",
        "src/binomial_ci/dual.py",
        '"-" + _term(-q, names)',
        "_term(-q, names)",
        "tests/test_dual.py::test_the_dual_renderer_prints_what_sparse_terms_print_on_drawn_families_hypothesis",
    ),
    Mutant(
        "JSON rows re-indent their seams one level deep",
        "src/binomial_ci/cli.py",
        '.replace("}," + row + "{", inner + "}," + inner + "{" + row)',
        '.replace("}," + row + "{", row + "}," + row + "{" + row)',
        "tests/test_cli.py::TestGoldenBytes::test_json_output",
    ),
    Mutant(
        "JSON int lists take bools, which print as 1 and 0",
        "src/binomial_ci/cli.py",
        "        elif kinds == {int}:",
        "        elif kinds <= {int, bool}:",
        "tests/test_cli.py::test_indented_writer_matches_json_dumps_hypothesis",
    ),
    Mutant(
        "JSON dicts of mixed values keep insertion order",
        "src/binomial_ci/cli.py",
        "for k, v in sorted(value.items()))",
        "for k, v in value.items())",
        "tests/test_cli.py::test_indented_writer_matches_json_dumps_hypothesis",
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
