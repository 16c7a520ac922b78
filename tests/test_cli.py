import json
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from binomial_ci import Monomial, build_graph, cli, det_numeric_oracle, det_structural, dual, format_family, resultant_radical
from binomial_ci.cli import build_parser, main
from binomial_ci.dual import DualGenerator
from binomial_ci.family import family_to_json
from binomial_ci.catalog import five_var_pentagon, three_var_chain, three_var_double_cycle, wlp_failure_form

from conftest import random_family

DOUBLE_CYCLE = "f1 = a1*x1^2 - b1*x1*x3 ; f2 = a2*x2^2 - b2*x2*x3 ; f3 = a3*x3^2 - b3*x2*x3"
CHAIN = "f1 = a1*x1^2 - b1*x1*x2 ; f2 = a2*x2^2 - b2*x1*x3 ; f3 = a3*x3^2 - b3*x1^2"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGraph:
    def test_dot_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "graph", "--family", DOUBLE_CYCLE, "--degree", "4", "--format", "dot"
        )
        assert code == 0
        assert out.startswith("digraph")
        assert out.count("->") == 15

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "graph", "--family", DOUBLE_CYCLE, "--degree", "4", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["vertices"]) == 15
        assert data["cycle_polynomial"] == "a2^2*a3^2 - 2*a2*a3*b2*b3 + b2^2*b3^2"

    def test_family_from_file(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(family_to_json(three_var_double_cycle())))
        code, out, _ = run_cli(
            capsys, "graph", "--family", str(path), "--degree", "3", "--format", "text"
        )
        assert code == 0
        assert "vertices: 10" in out


class TestReduce:
    def test_monomial_with_certificate(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "reduce",
            "--family",
            CHAIN,
            "--monomial",
            "x1^2*x2",
            "--certificate",
        )
        assert code == 0
        assert "basis monomial: x1*x2*x3" in out
        assert "coefficient: b1^2*b2/(a1^2*a2)" in out
        assert "path labels: 1 2 1" in out
        assert "certificate:" in out

    def test_json_certificate_steps(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "reduce",
            "--family",
            CHAIN,
            "--monomial",
            "x1^2*x2",
            "--certificate",
            "--format",
            "json",
        )
        data = json.loads(out)
        assert data["coefficient"] == "b1^2*b2/(a1^2*a2)"
        assert len(data["certificate"]["steps"]) == 3

    def test_cycle_outcome(self, capsys):
        code, out, _ = run_cli(
            capsys, "reduce", "--family", DOUBLE_CYCLE, "--monomial", "x1*x2*x3^2"
        )
        assert code == 0
        assert "outcome: cycle" in out

    def test_polynomial_reduction_requires_values(self, capsys):
        code, out, err = run_cli(
            capsys, "reduce", "--family", DOUBLE_CYCLE, "--poly", "x1^2*x2"
        )
        assert code == 1
        assert "numeric" in err

    def test_polynomial_reduction(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "reduce",
            "--family",
            CHAIN,
            "--set",
            "a1=1,a2=1,a3=1,b1=1,b2=1,b3=1",
            "--poly",
            "x1^2*x2",
        )
        assert code == 0
        assert "reduced: x1*x2*x3" in out


    def test_cutoff_certificate_ends_at_the_cutoff_basis(self, capsys):
        numeric_chain = "f1 = 2*x1^2 - 3*x1*x2 ; f2 = x2^2 - 5*x1*x3 ; f3 = x3^2 - 7*x1^2"
        code, out, _ = run_cli(
            capsys, "reduce", "--family", numeric_chain, "--monomial", "x1^3*x2",
            "--cutoff", "1", "--certificate", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["outcome"] == "basis"
        assert data["basis"] == "x1*x2^3"
        assert data["certificate"]["kind"] == "basis"
        assert data["certificate"]["rhs"]["monomial"] == "x1*x2^3"

    def test_polynomial_with_cutoff_is_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "reduce", "--family", CHAIN, "--set", "a1=1,a2=1,a3=1,b1=1,b2=1,b3=1",
            "--poly", "x1^3*x2", "--cutoff", "1",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--cutoff" in err


class TestDual:
    def test_contraction_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "dual", "--family", DOUBLE_CYCLE, "--convention", "contraction", "--verify"
        )
        assert code == 0
        assert "s vector: [2, 1, 1]" in out
        assert "annihilation check: ok" in out

    def test_numeric_terms_in_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "dual",
            "--family",
            DOUBLE_CYCLE,
            "--set",
            "a1=1,a2=1,a3=1,b1=1,b2=1,b3=2",
            "--format",
            "json",
        )
        data = json.loads(out)
        assert data["D"] == 3
        assert all("/" not in t["coeff"] or t["coeff"].count("/") <= 1 for t in data["terms"])
        # numeric dump evaluates the coefficient monomials
        assert {tuple(t["alpha"]): t["coeff"] for t in data["terms"]}[(1, 1, 1)] == "1"


class TestResultant:
    def test_radical_default(self, capsys):
        code, out, _ = run_cli(capsys, "resultant", "--family", DOUBLE_CYCLE)
        assert code == 0
        assert "radical: a1*a2*a3*(a2*a3 - b2*b3)" in out

    def test_det_and_matrix(self, capsys):
        code, out, _ = run_cli(
            capsys, "resultant", "--family", DOUBLE_CYCLE, "--det", "--matrix"
        )
        assert code == 0
        assert "|C| = a1^6*a2^3*a3^2*(a2*a3 - b2*b3)^2" in out
        assert "x1^4" in out  # matrix header

    def test_probe_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "resultant", "--family", CHAIN, "--probe", "--seed", "3"
        )
        assert code == 0
        assert "t1 = " in out

    def test_vanishing_radical_prints_zero(self, capsys):
        family = "f1 = x1^2 - x2^2 ; f2 = x2^2 - x1^2"
        code, out, _ = run_cli(capsys, "resultant", "--radical", "--family", family)
        assert code == 0
        assert out.splitlines()[:2] == ["radical: 0", "expanded: 0"]
        code, out, _ = run_cli(capsys, "resultant", "--radical", "--family", family, "--format", "json")
        assert json.loads(out)["radical"]["product"] == "0"


class TestHilbert:
    def test_with_reference(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "hilbert",
            "--family",
            DOUBLE_CYCLE,
            "--set",
            "a1=1,a2=1,a3=1,b1=1,b2=1,b3=2",
            "--max-degree",
            "4",
            "--spec",
        )
        assert code == 0
        assert "h = 1 + 3t + 3t^2 + t^3" in out
        assert "matches: yes" in out


class TestLefschetz:
    def test_pipeline_from_dual_file(self, capsys, tmp_path):
        pentagon = family_to_json(five_var_pentagon())
        pentagon["coefficients"] = {
            "mode": "numeric",
            "a": ["1"] * 5,
            "b": ["2", "3", "1", "1", "1"],
        }
        code, out, _ = run_cli(
            capsys,
            "dual",
            "--family",
            json.dumps(pentagon),
            "--convention",
            "differentiation",
            "--format",
            "json",
        )
        assert code == 0
        dual_file = tmp_path / "dual.json"
        dual_file.write_text(out)
        code, out, _ = run_cli(
            capsys, "lefschetz", "--dual-file", str(dual_file), "--trials", "3"
        )
        assert code == 0
        assert "SLP: holds" in out

    def test_symbolic_dual_rejected(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "dual", "--family", DOUBLE_CYCLE, "--format", "json"
        )
        dual_file = tmp_path / "dual.json"
        dual_file.write_text(out)
        code, _, err = run_cli(capsys, "lefschetz", "--dual-file", str(dual_file))
        assert code == 1
        assert "symbolic" in err

    @pytest.mark.parametrize(
        "coeff, message",
        [
            (1.5, 'error: dual file coefficient 1.5 is not an exact rational (an int or a "p/q" string)\n'),
            ("a1*b2", "error: dual file carries a symbolic coefficient 'a1*b2'; lefschetz needs numeric values\n"),
            ("1/0", "error: dual file coefficient '1/0' has a zero denominator\n"),
            (True, 'error: dual file coefficient True is not an exact rational (an int or a "p/q" string)\n'),
        ],
        ids=["float", "symbolic", "zero-denominator", "bool"],
    )
    def test_non_rational_coefficient_messages(self, capsys, tmp_path, coeff, message):
        dual_file = tmp_path / "dual.json"
        dual_file.write_text(json.dumps({"terms": [{"alpha": [1, 1, 1], "coeff": coeff}]}))
        code, out, err = run_cli(capsys, "lefschetz", "--dual-file", str(dual_file))
        assert code == 1
        assert out == ""
        assert err == message

    def test_repeated_exponent_exits_1(self, capsys, tmp_path):
        # Keeping either coefficient would silently drop the other term.
        dual_file = tmp_path / "dual.json"
        dual_file.write_text(json.dumps({"terms": [{"alpha": [1, 1], "coeff": 1}, {"alpha": [1, 1], "coeff": 2}]}))
        code, out, err = run_cli(capsys, "lefschetz", "--dual-file", str(dual_file))
        assert code == 1
        assert out == ""
        assert err == "error: dual file repeats exponent (1, 1)\n"

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_nonpositive_trials_exit_1(self, capsys, tmp_path, trials):
        dual_file = tmp_path / "dual.json"
        dual_file.write_text(json.dumps({"terms": [{"alpha": [1, 1, 1], "coeff": "1"}]}))
        code, out, err = run_cli(capsys, "lefschetz", "--dual-file", str(dual_file), "--trials", trials)
        assert code == 1
        assert out == ""
        assert err == "error: trials must be at least 1\n"


class TestMonomialBudget:
    EIGHT = " ; ".join(f"f{i} = a{i}*x{i}^2 - b{i}*x{i % 8 + 1}^2" for i in range(1, 9))

    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        """Fail the test once more monomials are built than parsing needs."""
        raw = Monomial._raw.__func__
        calls = []

        def counted(cls, exps):
            calls.append(1)
            if len(calls) > 10_000:
                raise AssertionError("monomial enumeration started")
            return raw(cls, exps)

        monkeypatch.setattr(Monomial, "_raw", classmethod(counted))

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "--family", EIGHT, "--degree", "60"],
            ["hilbert", "--family", DOUBLE_CYCLE, "--set", "a1=1,a2=1,a3=1,b1=1,b2=1,b3=2", "--max-degree", "1000000000"],
            # 45,451 monomials at the top degree, 4,590,551 over degrees 0..300
            ["hilbert", "--family", DOUBLE_CYCLE, "--set", "a1=1,a2=1,a3=1,b1=1,b2=1,b3=2", "--max-degree", "300"],
        ],
    )
    def test_over_budget_exits_1_before_enumerating(self, capsys, no_enumeration, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "exceed the budget" in err

    def test_catalecticant_columns_over_budget_exit_1(self, capsys, tmp_path, no_enumeration):
        # X1^60 in 8 variables: the degree-60 catalecticant columns alone are C(67, 7)
        dual_file = tmp_path / "dual.json"
        dual_file.write_text(json.dumps({"terms": [{"alpha": [60, 0, 0, 0, 0, 0, 0, 0], "coeff": "1"}]}))
        code, out, err = run_cli(capsys, "lefschetz", "--dual-file", str(dual_file))
        assert (code, out) == (1, "")
        assert err == "error: 869648208 monomials of degree 60 in 8 variables exceed the budget of 2000000\n"


class TestErrorsAndExitCodes:
    def test_validation_error_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "graph", "--family", "f1 = a1*x1 - b1", "--degree", "2")
        assert code == 1
        assert "error:" in err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_missing_file_treated_as_inline_and_fails_cleanly(self, capsys):
        code, _, err = run_cli(
            capsys, "graph", "--family", "/no/such/file.json", "--degree", "2"
        )
        assert code == 1

    def test_empty_family_is_inline_text(self, capsys):
        code, out, err = run_cli(capsys, "graph", "--family", "", "--degree", "2")
        assert code == 1
        assert out == ""
        assert err == "error: line 1, column 1: no generators found\n"

    def test_directory_family_is_inline_text(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "graph", "--family", str(tmp_path), "--degree", "2")
        assert code == 1
        assert out == ""
        assert err == "error: line 1, column 1: unexpected character '/'\n"

    def test_negative_max_degree_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys,
            "hilbert",
            "--family",
            DOUBLE_CYCLE,
            "--set",
            "a1=1,a2=1,a3=1,b1=1,b2=1,b3=2",
            "--max-degree",
            "-2",
            "--spec",
        )
        assert code == 1
        assert out == ""
        assert err == "error: max degree must be nonnegative\n"

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("graph", {"n": 2, "generators": [1, 2]}),
            ("graph", {"n": 2, "generators": [{"i": 1, "d": 2, "m": [0, 2]}, {"i": 2, "d": 2.7, "m": [2, 0]}]}),
            ("lefschetz", [1, 2]),
            ("lefschetz", {"terms": [{"alpha": [1, -3], "coeff": "1"}]}),
            ("lefschetz", {"terms": [{"alpha": [1.5, 0.5], "coeff": "1"}, {"alpha": [0, 1], "coeff": "1"}]}),
            ("lefschetz", {"terms": [{"alpha": [[1], 1], "coeff": "1"}]}),
        ],
        ids=[
            "generator-not-an-object", "float-degree", "dual-file-not-an-object", "negative-exponent",
            "float-exponent", "nested-exponent",
        ],
    )
    def test_malformed_json_exits_1(self, capsys, tmp_path, command, payload):
        if command == "graph":
            argv = ["graph", "--family", json.dumps(payload), "--degree", "2"]
        else:
            dual_file = tmp_path / "dual.json"
            dual_file.write_text(json.dumps(payload))
            argv = ["lefschetz", "--dual-file", str(dual_file)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestSharedParser:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_set_values_do_not_reach_the_next_call(self, capsys):
        plain = ["dual", "--family", CHAIN, "--format", "json"]
        _, before, _ = run_cli(capsys, *plain)
        code, numeric, _ = run_cli(
            capsys, "dual", "--family", CHAIN, "--set", "a1=2,a2=1,a3=3", "--set", "b1=3,b2=5/2,b3=1", *plain[3:]
        )
        assert code == 0
        code, after, _ = run_cli(capsys, *plain)
        assert code == 0
        assert after == before != numeric
        assert "a1" in after and "a1" not in numeric
        assert build_parser().parse_args(plain).set == []


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        *checks, total = out.splitlines()
        assert total == "16/16 checks passed" and len(checks) == 16
        assert all(line.startswith("ok   ") for line in checks)


class TestDeterminism:
    def test_identical_bytes_across_invocations(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run_cli(
                capsys,
                "resultant",
                "--family",
                DOUBLE_CYCLE,
                "--det",
                "--matrix",
                "--radical",
                "--format",
                "json",
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestOneResultantPath:
    """`resultant` prints what the library's family-taking functions return."""

    def test_json_equals_the_library_calls(self, capsys):
        rng = random.Random(1313)
        families = [three_var_chain(), three_var_double_cycle()]
        families += [random_family(rng, numeric=numeric) for numeric in (False, True) * 6]
        numeric_seen = 0
        for seed, family in enumerate(families):
            code, out, _ = run_cli(
                capsys,
                "resultant", "--family", format_family(family), "--det", "--radical", "--probe",
                "--seed", str(seed), "--format", "json",
            )
            assert code == 0
            payload = json.loads(out)
            assert payload["determinant"] == str(det_structural(family))
            if family.is_numeric:
                numeric_seen += 1
                assert payload["determinant_value"] == str(det_numeric_oracle(family))
            else:
                assert "determinant_value" not in payload
            expected = resultant_radical(family, probe=True, rng=random.Random(seed)).to_json()
            assert payload["radical"] == expected
        assert numeric_seen == 6

    @pytest.mark.parametrize(
        "extra",
        [["--family", DOUBLE_CYCLE], ["--family", CHAIN, "--set", "a1=2,a2=1,a3=3,b1=3,b2=5/2,b3=1", "--probe"]],
        ids=["symbolic", "numeric-probe"],
    )
    def test_one_graph_build_per_call(self, capsys, extra):
        build_graph.cache_clear()
        code, _, _ = run_cli(capsys, "resultant", *extra, "--matrix", "--det", "--radical")
        assert code == 0
        assert build_graph.cache_info().misses == 1


def readme_samples():
    """[argv, expected output lines, truncated] per `$ binomial-ci ...` line of
    the README "Sample outputs" block; a `...` line ends the expected lines."""
    prompt = "$ binomial-ci "
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("Sample outputs:", 1)[1].split("```", 2)[1]
    samples = []
    for line in block.strip().splitlines():
        if line.startswith(prompt):
            samples.append([shlex.split(line[len(prompt):]), [], False])
        elif line == "...":
            samples[-1][2] = True
        elif not samples[-1][2]:
            samples[-1][1].append(line)
    return samples


def test_readme_sample_outputs(capsys):
    samples = readme_samples()
    assert len(samples) == 2
    for argv, lines, truncated in samples:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        printed = out.splitlines()
        assert printed[: len(lines)] == lines
        if not truncated:
            assert len(printed) == len(lines)


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "binomial_ci", "resultant", "--family", DOUBLE_CYCLE],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "a1*a2*a3*(a2*a3 - b2*b3)" in result.stdout


def test_closed_stdout_exits_without_a_message():
    # About 220 kB of JSON, more than a pipe holds: the reader closes the pipe
    # after one line while the CLI still writes.
    argv = ["reduce", "--family", CHAIN, "--monomial", "x1^2000", "--certificate", "--format", "json"]
    with subprocess.Popen(
        [sys.executable, "-m", "binomial_ci", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 1


def _json_chain_with_coefficient(a1) -> str:
    data = family_to_json(three_var_chain())
    data["coefficients"] = {"mode": "numeric", "a": [a1, "1", "1"], "b": ["1", "1", "1"]}
    return json.dumps(data)


class TestBadRationalInput:
    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["graph", "--family", CHAIN, "--set", "a1=1/0", "--degree", "2"], "1/0"),
            (
                ["reduce", "--family", CHAIN, "--set", "a1=1,a2=1,a3=1,b1=1,b2=1,b3=1", "--poly", "1/0*x1"],
                "1/0",
            ),
            (
                ["graph", "--family", CHAIN.replace("a1*x1^2", "1/0*x1^2"), "--degree", "2"],
                "1/0",
            ),
            (["graph", "--family", _json_chain_with_coefficient(1.5), "--degree", "2"], "1.5"),
            (["graph", "--family", CHAIN, "--set", "a=1", "--degree", "2"], "'a'"),
            # n and cls name CoeffAssignment.of's own parameters; an index is ASCII digits
            (["graph", "--family", CHAIN, "--set", "n=3", "--degree", "2"], "unknown symbol 'n'"),
            (["graph", "--family", CHAIN, "--set", "cls=2", "--degree", "2"], "unknown symbol 'cls'"),
            (["graph", "--family", CHAIN, "--set", "a\u0661=2", "--degree", "2"], "unknown symbol 'a\u0661'"),
            (["graph", "--family", CHAIN, "--set", "b\uff12=3", "--degree", "2"], "unknown symbol 'b\uff12'"),
            # bool subclasses int, but a JSON true is not a coefficient
            (
                ["graph", "--family", _json_chain_with_coefficient(True), "--degree", "2"],
                'coefficient True is not an integer or a "p/q" string',
            ),
        ],
        ids=[
            "set-zero-denominator", "poly-zero-denominator", "text-zero-denominator", "json-float", "set-no-index",
            "set-n", "set-cls", "set-arabic-index", "set-fullwidth-index", "json-bool",
        ],
    )
    def test_exits_1_naming_the_value(self, capsys, argv, bad):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert bad in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["hilbert", "--family", _json_chain_with_coefficient("1" * 5000), "--max-degree", "2"],
            ["hilbert", "--family", _json_chain_with_coefficient("1" * 4000 + "x"), "--max-degree", "2"],
            ["hilbert", "--family", _json_chain_with_coefficient([1] * 2000), "--max-degree", "2"],
            ["graph", "--family", CHAIN, "--set", "a1=" + "1" * 4000 + "x", "--degree", "2"],
        ],
        ids=["json-5000-digits", "json-long-string", "json-long-list", "set-long-string"],
    )
    def test_huge_value_gives_one_short_error_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.endswith("\n")
        assert "\n" not in err[:-1]
        assert len(err) < 200


@pytest.mark.parametrize(
    "sets, named",
    [
        (["a1=2,a1=3", "a2=1,b1=1,b2=1"], "'a1'"),
        (["a1=2", "a1=3,a2=1,b1=1,b2=1"], "'a1'"),
        (["a1=2,a01=3", "a2=1,b1=1,b2=1"], "a1"),
    ],
    ids=["one-set", "two-sets", "leading-zero"],
)
def test_a_symbol_assigned_twice_exits_1_naming_it(capsys, sets, named):
    family = "f1 = a1*x1^2 - b1*x1*x2 ; f2 = a2*x2^2 - b2*x1^2"
    argv = ["resultant", "--family", family, *(arg for chunk in sets for arg in ("--set", chunk)), "--det"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: symbol ") and "assigned twice" in err and named in err
    assert err.count("\n") == 1


class TestDecimalAndExponentStrings:
    """Fraction("1e3000000") builds a 3-million-digit int; only integers and
    "p/q" strings are exact-rational input."""

    HUGE = "1e3000000"

    def test_dual_file_exponent_string_is_not_an_exact_rational(self, capsys, tmp_path):
        dual_file = tmp_path / "dual.json"
        dual_file.write_text(json.dumps({"terms": [{"alpha": [1, 1, 1], "coeff": "1e5"}]}))
        code, out, err = run_cli(capsys, "lefschetz", "--dual-file", str(dual_file))
        assert code == 1
        assert out == ""
        assert err == 'error: dual file coefficient \'1e5\' is not an exact rational (an int or a "p/q" string)\n'

    @pytest.mark.parametrize("entry", ["hilbert-json", "set", "lefschetz-dual-file"])
    def test_huge_exponent_exits_1_at_once(self, capsys, tmp_path, entry):
        if entry == "hilbert-json":
            argv = ["hilbert", "--family", _json_chain_with_coefficient(self.HUGE), "--max-degree", "2"]
        elif entry == "set":
            argv = ["graph", "--family", CHAIN, "--set", f"a1={self.HUGE}", "--degree", "2"]
        else:
            dual_file = tmp_path / "dual.json"
            dual_file.write_text(json.dumps({"terms": [{"alpha": [2, 1], "coeff": self.HUGE}]}))
            argv = ["lefschetz", "--dual-file", str(dual_file)]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and self.HUGE in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0.5", "1e5", "1E5", "1.5e-3", "1_000", "inf", "nan"])
    def test_set_rejects_non_fraction_numerals(self, capsys, value):
        code, out, err = run_cli(capsys, "graph", "--family", CHAIN, "--set", f"a2={value}", "--degree", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestRewriteWalkBudget:
    def test_long_walk_exits_1(self, capsys, monkeypatch):
        import binomial_ci.algebra as algebra

        monkeypatch.setattr(algebra, "MONOMIAL_BUDGET", 1000)
        family = "f1 = a1*x1^2 - b1*x1*x2 ; f2 = a2*x2^2 - b2*x1^2"
        argv = ["reduce", "--family", family, "--set", "a1=1,a2=1,b1=1,b2=2", "--monomial", "x1^2000"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == "error: the rewriting walk from x1^2000 exceeds the budget of 1000 steps\n"
        monkeypatch.setattr(algebra, "MONOMIAL_BUDGET", 2000)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "outcome: cycle" in out

    def test_start_wider_than_an_8_byte_lane_answers_at_once(self, capsys):
        # x3^(2^70): no 8-byte lane holds the start, and the walk still answers
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "reduce", "--family", WIDE_FAMILY, "--monomial", f"x3^{2**70}", "--certificate"
        )
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        e = 2**70
        assert out.splitlines() == [
            f"monomial: x3^{e}",
            "outcome: cycle",
            f"cycle entry: x3^{e}",
            "zero modulo the ideal when the family is a regular sequence",
            "path labels: 3 2",
            f"certificate: (a2*a3)*x3^{e} = (a2)*x3^{e - 1}*f3 + (b3)*x3^{e - 1}*f2 + (b2*b3)*x3^{e}",
        ]


WIDE_FAMILY = "f1 = a1*x1^2 - b1*x1*x2 ; f2 = a2*x2 - b2*x3 ; f3 = a3*x3 - b3*x2"
PENTAGON = (
    "f1 = x1^2 - b1*x2*x3 ; f2 = x2^2 - b2*x3*x4 ; f3 = x3^2 - b3*x4*x5 ; "
    "f4 = x4^2 - b4*x1*x5 ; f5 = x5^2 - b5*x1*x2"
)
# name -> dual arguments: numeric, mixed, symbolic and b = 0 catalog families
DUAL_GOLDEN_CASES = {
    "numeric_chain": ["--family", CHAIN, "--set", "a1=2,a2=1,a3=3,b1=3,b2=5/2,b3=1"],
    "mixed_chain": ["--family", CHAIN, "--set", "a1=2,b2=5/2", "--convention", "differentiation"],
    "symbolic_double_cycle": ["--family", DOUBLE_CYCLE],
    "b0_pentagon": [
        "--family", PENTAGON, "--set", "b1=2,b2=0,b3=1,b4=3,b5=1/3", "--convention", "differentiation",
    ],
}


def dual_golden_runs():
    """(golden file name, dual argv) for text and json, with and without --verify."""
    for name, args in DUAL_GOLDEN_CASES.items():
        for fmt in ("text", "json"):
            for verify in (False, True):
                suffix = "_verify" if verify else ""
                ext = "json" if fmt == "json" else "txt"
                argv = ["dual", *args, "--format", fmt] + (["--verify"] if verify else [])
                yield f"dual_{name}{suffix}.{ext}", argv


NUMERIC_CHAIN = ["--family", CHAIN, "--set", "a1=2,a2=1,a3=3,b1=3,b2=5/2,b3=1"]
NUMERIC_DOUBLE_CYCLE = ["--family", DOUBLE_CYCLE, "--set", "a1=1,a2=2,a3=3,b1=1,b2=1,b3=1"]
# golden file name -> argv, for the JSON payloads of graph, reduce, hilbert and
# resultant that the dual and lefschetz goldens do not cover
JSON_GOLDEN_RUNS = {
    "graph_double_cycle_d4.json": ["graph", "--family", DOUBLE_CYCLE, "--degree", "4"],
    "reduce_certificate_basis_chain.json": ["reduce", *NUMERIC_CHAIN, "--monomial", "x1^2*x2", "--certificate"],
    "reduce_certificate_cycle_double_cycle.json": [
        "reduce", "--family", DOUBLE_CYCLE, "--monomial", "x2^2*x3^2", "--certificate",
    ],
    "reduce_poly_chain.json": ["reduce", *NUMERIC_CHAIN, "--poly", "2*x1^2*x2 - x2^3"],
    "reduce_poly_zero_double_cycle.json": ["reduce", *NUMERIC_DOUBLE_CYCLE, "--poly", "x2^2*x3^2"],
    "hilbert_spec_chain.json": ["hilbert", *NUMERIC_CHAIN, "--max-degree", "4", "--spec"],
    "resultant_matrix_double_cycle.json": ["resultant", "--family", DOUBLE_CYCLE, "--matrix"],
}


class TestGoldenBytes:
    def test_resultant_json_with_numeric_determinant(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "resultant",
            "--family",
            CHAIN,
            "--set",
            "a1=2,a2=1,a3=3,b1=3,b2=5/2,b3=1",
            "--matrix",
            "--det",
            "--radical",
            "--probe",
            "--seed",
            "3",
            "--format",
            "json",
        )
        assert code == 0
        assert out == (GOLDEN / "resultant_chain.json").read_text()

    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("resultant_symbolic_double_cycle.txt", ["--family", DOUBLE_CYCLE]),
            (
                "resultant_numeric_chain.txt",
                ["--family", CHAIN, "--set", "a1=2,a2=1,a3=3,b1=3,b2=5/2,b3=1", "--probe", "--seed", "3"],
            ),
        ],
    )
    def test_resultant_text(self, capsys, golden, argv):
        code, out, _ = run_cli(capsys, "resultant", *argv, "--matrix", "--det", "--radical")
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    def test_lefschetz_json_on_dual_file(self, capsys, tmp_path):
        pentagon = family_to_json(five_var_pentagon())
        pentagon["coefficients"] = {"mode": "numeric", "a": ["1"] * 5, "b": ["2", "3", "1", "1", "1"]}
        code, out, _ = run_cli(
            capsys,
            "dual",
            "--family",
            json.dumps(pentagon),
            "--convention",
            "differentiation",
            "--format",
            "json",
        )
        assert code == 0
        dual_file = tmp_path / "dual.json"
        dual_file.write_text(out)
        code, out, _ = run_cli(
            capsys, "lefschetz", "--dual-file", str(dual_file), "--trials", "3", "--seed", "5", "--format", "json"
        )
        assert code == 0
        assert out == (GOLDEN / "lefschetz_pentagon.json").read_text()

    def test_lefschetz_json_on_the_wlp_failure_form(self, capsys, tmp_path):
        # Every trial at k = 2 runs and falls short: the "probably fails" branch.
        terms = [{"alpha": list(alpha), "coeff": str(c)} for alpha, c in wlp_failure_form().items()]
        dual_file = tmp_path / "dual.json"
        dual_file.write_text(json.dumps({"terms": terms}))
        code, out, _ = run_cli(
            capsys, "lefschetz", "--dual-file", str(dual_file), "--trials", "3", "--seed", "5", "--format", "json"
        )
        assert code == 0
        assert out == (GOLDEN / "lefschetz_wlp_failure.json").read_text()

    @pytest.mark.parametrize("golden, argv", [pytest.param(*run, id=run[0]) for run in dual_golden_runs()])
    def test_dual_output(self, capsys, golden, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize("golden", JSON_GOLDEN_RUNS)
    def test_json_output(self, capsys, golden):
        code, out, _ = run_cli(capsys, *JSON_GOLDEN_RUNS[golden], "--format", "json")
        assert code == 0
        assert out == (GOLDEN / golden).read_text()


class TestRequestedFormatOnly:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_dual_verify_substitutes_twice(self, capsys, monkeypatch, fmt):
        dual._in_tree.cache_clear()  # no verdict kept from an earlier search
        calls = []
        verdict, residuals, substituted = dual._annihilates, dual._residuals, DualGenerator._substituted
        monkeypatch.setattr(dual, "_annihilates", lambda *args: calls.append("search") or verdict(*args))
        monkeypatch.setattr(dual, "_residuals", lambda *args: calls.append("mapping") or residuals(*args))
        monkeypatch.setattr(DualGenerator, "_substituted", lambda self: calls.append("render") or substituted(self))
        code, _, _ = run_cli(capsys, "dual", "--family", CHAIN, "--verify", "--format", fmt)
        assert code == 0
        assert sorted(calls) == ["render", "search"]  # one search, whose verdict needs no mapping path, and one rendering

    @pytest.mark.parametrize("fmt, unused", [("text", "certificate_to_json"), ("json", "render_certificate")])
    def test_reduce_certificate_renders_one_format(self, capsys, monkeypatch, fmt, unused):
        monkeypatch.setattr(cli, unused, lambda cert: pytest.fail(f"{unused} ran for --format {fmt}"))
        code, out, _ = run_cli(
            capsys, "reduce", "--family", CHAIN, "--monomial", "x1^2*x2", "--certificate", "--format", fmt
        )
        assert code == 0
        assert "certificate" in out

    @pytest.mark.parametrize("fmt", ["text", "dot"])
    def test_graph_builds_no_json_for_other_formats(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(cli, "graph_to_json", lambda graph: pytest.fail(f"graph_to_json ran for --format {fmt}"))
        code, out, _ = run_cli(capsys, "graph", "--family", DOUBLE_CYCLE, "--degree", "4", "--format", fmt)
        assert code == 0
        assert "x2^2*x3^2" in out

    @pytest.mark.parametrize("fmt, unused", [("text", "matrix_to_json"), ("json", "matrix_to_text")])
    def test_resultant_matrix_renders_one_format(self, capsys, monkeypatch, fmt, unused):
        monkeypatch.setattr(cli, unused, lambda family: pytest.fail(f"{unused} ran for --format {fmt}"))
        code, out, _ = run_cli(capsys, "resultant", "--family", DOUBLE_CYCLE, "--matrix", "--format", fmt)
        assert code == 0
        assert "x1^4" in out

    @pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="this Python has no C JSON encoder")
    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "--family", DOUBLE_CYCLE, "--degree", "4"],
            ["reduce", "--family", CHAIN, "--monomial", "x1^2*x2", "--certificate"],
            ["dual", "--family", CHAIN, "--verify"],
            ["resultant", *NUMERIC_CHAIN, "--matrix", "--det", "--radical", "--probe"],
            ["hilbert", *NUMERIC_CHAIN, "--max-degree", "4", "--spec"],
            ["lefschetz"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_json_output_never_runs_the_pure_python_encoder(self, capsys, monkeypatch, tmp_path, argv):
        if argv == ["lefschetz"]:
            dual_file = tmp_path / "dual.json"
            terms = [{"alpha": list(alpha), "coeff": str(c)} for alpha, c in wlp_failure_form().items()]
            dual_file.write_text(json.dumps({"terms": terms}))
            argv = ["lefschetz", "--dual-file", str(dual_file), "--trials", "2"]
        monkeypatch.setattr(json.encoder, "_make_iterencode", lambda *a, **k: pytest.fail("the pure-Python encoder ran"))
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, err
        assert json.loads(out)


class TestMonomialArgument:
    @pytest.mark.parametrize("text", ["3*x1^2", "a1*x1", "-x1", "2", "1*x1"])
    def test_coefficient_or_sign_exits_1(self, capsys, text):
        code, out, err = run_cli(capsys, "reduce", "--family", CHAIN, f"--monomial={text}")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_unit_monomial_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "--family", CHAIN, "--monomial", "1")
        assert code == 0
        assert out.startswith("monomial: 1\n")


class TestLongExactOutput:
    # a1 = a2 = a3 = 10^300 puts a determinant of 10800 digits past Python's
    # default 4300-digit limit on int -> str conversion.
    CUBIC = "f1 = a1*x1^3 - b1*x1^2*x2 ; f2 = a2*x2^3 - b2*x2^2*x3 ; f3 = a3*x3^3 - b3*x1*x3^2"
    BIG = 10**300

    def test_resultant_det_prints_every_digit(self, capsys):
        big = str(self.BIG)
        values = f"a1={big},a2={big},a3={big},b1=1,b2=1,b3=2"
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(
            capsys, "resultant", "--family", self.CUBIC, "--set", values, "--det", "--format", "json"
        )
        assert code == 0, err
        assert sys.get_int_max_str_digits() == limit
        data = json.loads(out)
        assert data["determinant_factored"] == "a1^14*a2^11*a3^8*(a1*a2*a3 - b1*b2*b3)"
        expected = self.BIG**33 * (self.BIG**3 - 2)
        sys.set_int_max_str_digits(0)
        try:
            assert data["determinant_value"] == str(expected)
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(data["determinant_value"]) == 10800

    def test_input_keeps_the_default_digit_limit(self, capsys):
        huge = "1" * (sys.int_info.default_max_str_digits + 1)
        code, out, err = run_cli(capsys, "graph", "--family", CHAIN, "--set", f"a1={huge}", "--degree", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_family_text_keeps_the_default_digit_limit(self, capsys):
        huge = "1" * (sys.int_info.default_max_str_digits + 1)
        text = CHAIN.replace("a1*", f"{huge}*")  # the shape the text's regex path reads
        code, out, err = run_cli(capsys, "graph", "--family", text, "--degree", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error: Exceeds the limit") and err.count("\n") == 1


def test_indented_writer_matches_json_dumps_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    text = st.one_of(st.text(), st.sampled_from(['"q"', "back\\slash", "\x00\n\t\x1f\x7f", "é ü 東 \U0001f600", "},\n  {"]))
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(min_value=2**64, max_value=2**200).map(lambda k: k if k % 2 else -k),
        st.floats(),
        st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]),
        text,
    )
    row = st.dictionaries(text, scalars, min_size=1)
    values = st.recursive(
        scalars,
        lambda children: st.one_of(
            st.lists(children),
            st.lists(children).map(tuple),
            st.dictionaries(text, children),
            st.lists(st.one_of(st.integers(), st.booleans())),
            st.lists(text),
            st.lists(row, min_size=1),
            # rows beside an empty dict or a dict holding a list: not flat rows
            st.lists(st.one_of(row, st.just({}), st.dictionaries(text, st.lists(children), min_size=1)), min_size=1),
        ),
        max_leaves=30,
    )

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(values)
    @hypothesis.example([1, True, 0, False])
    @hypothesis.example({"b": [1, 2], "a": {"d": (), "c": [{}]}})
    @hypothesis.example({"rows": [{"b": 1, "a": "},\n      {"}, {"c": None, "d": -0.0}], "t": [{"x": [1]}, {"y": 2}]})
    @hypothesis.example([{"a": 1}, {}])
    def check(value):
        assert cli._indented(value) == json.dumps(value, indent=2, sort_keys=True)

    check()
    for bad in (Fraction(1, 2), {1, 2}, [1, Fraction(1, 3)], {"rows": [{"a": {3}}]}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli._indented(bad)
