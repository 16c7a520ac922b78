import copy
import dataclasses
import json
import pickle
import random
from fractions import Fraction

import pytest

from binomial_ci import (
    BinomialFamily,
    CoeffAssignment,
    FamilyParseError,
    FamilyValidationError,
    Monomial,
    family_from_json,
    family_to_json,
    format_family,
    load_family,
    parse_family,
    parse_monomial,
    specialize,
)
from binomial_ci.cli import main
from binomial_ci.family import parse_x_polynomial

from conftest import family_strategy, random_family


class TestParsing:
    def test_symbolic_family(self):
        fam = parse_family(
            "f1 = a1*x1^2 - b1*x1*x3 ; f2 = a2*x2^2 - b2*x2*x3 ; f3 = a3*x3^2 - b3*x2*x3"
        )
        assert fam.n == 3
        assert fam.degrees == (2, 2, 2)
        assert fam.tails == (Monomial((1, 0, 1)), Monomial((0, 1, 1)), Monomial((0, 1, 1)))
        assert fam.coeff_mode == "symbolic"

    def test_newline_separators_and_whitespace(self):
        fam = parse_family("f1=a1*x1^2-b1*x1*x2\n  f2 = a2 * x2^2 - b2 * x1 * x2")
        assert fam.n == 2
        assert fam.tails == (Monomial((1, 1)), Monomial((1, 1)))

    def test_generators_in_any_order(self):
        fam = parse_family("f2 = a2*x2^2 - b2*x1*x2 ; f1 = a1*x1^3 - b1*x1^2*x2")
        assert fam.degrees == (3, 2)

    def test_unit_leading_coefficient_folds_to_numeric_one(self):
        fam = parse_family("f1 = x1^2 - b1*x2^2 ; f2 = x2^2 - b2*x1*x2")
        assert fam.a_values == (Fraction(1), Fraction(1))
        assert fam.b_values == (None, None)
        assert fam.coeff_mode == "mixed"

    def test_rational_coefficients(self):
        fam = parse_family("f1 = 2*x1^2 - 1/2*x1*x2 ; f2 = a2*x2^2 - 0*x1*x2")
        assert fam.a_values == (Fraction(2), None)
        assert fam.b_values == (Fraction(1, 2), Fraction(0))

    def test_monomial_generator_needs_explicit_zero_tail(self):
        with pytest.raises(FamilyParseError):
            parse_family("f1 = a1*x1^3 ; f2 = a2*x2^3 - b2*x1^2*x2")
        fam = parse_family("f1 = a1*x1^3 - 0*x1^2*x2 ; f2 = a2*x2^3 - b2*x1^2*x2")
        assert fam.b_values[0] == 0
        assert fam.tails[0] == Monomial((2, 1))

    def test_tail_equal_to_lead_rejected(self):
        with pytest.raises(FamilyValidationError, match="equals x1"):
            parse_family("f1 = a1*x1^2 - b1*x1^2 ; f2 = a2*x2^2 - b2*x1*x2")

    def test_wrong_tail_degree_rejected(self):
        with pytest.raises(FamilyValidationError, match="degree"):
            parse_family("f1 = a1*x1^2 - b1*x1*x2*x1 ; f2 = a2*x2^2 - b2*x1*x2")

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(FamilyValidationError, match="nonzero"):
            parse_family("f1 = 0*x1^2 - b1*x1*x2 ; f2 = a2*x2^2 - b2*x1*x2")

    def test_duplicate_index_rejected(self):
        with pytest.raises(FamilyParseError, match="duplicate"):
            parse_family("f1 = a1*x1^2 - b1*x1*x2 ; f1 = a1*x1^2 - b1*x1*x2")

    def test_missing_index_rejected(self):
        with pytest.raises(FamilyParseError, match="missing"):
            parse_family("f1 = a1*x1^2 - b1*x1*x2 ; f3 = a3*x2^2 - b3*x1*x2")

    def test_mismatched_symbols_rejected(self):
        with pytest.raises(FamilyParseError, match="a1"):
            parse_family("f1 = a2*x1^2 - b1*x1*x2 ; f2 = a2*x2^2 - b2*x1*x2")
        with pytest.raises(FamilyParseError, match="b2"):
            parse_family("f1 = a1*x1^2 - b1*x1*x2 ; f2 = a2*x2^2 - b1*x1*x2")

    def test_lead_must_be_pure_power_of_own_variable(self):
        with pytest.raises(FamilyParseError, match="power of x1"):
            parse_family("f1 = a1*x1*x2 - b1*x2^2 ; f2 = a2*x2^2 - b2*x1*x2")

    def test_error_carries_position(self):
        with pytest.raises(FamilyParseError) as err:
            parse_family("f1 = a1*x1^2 - b1*x1*x2 ;\nf2 = a2*x2^2 % b2*x1*x2")
        assert err.value.line == 2

    def test_one_variable_family_impossible(self):
        with pytest.raises(FamilyValidationError):
            parse_family("f1 = a1*x1^2 - b1*x1^2")

    # (text, line, column): fullwidth and Arabic-Indic digits and superscripts
    # are not NAT, which is ASCII digits only
    NON_ASCII_DIGITS = [
        ("f1 = a1*x\uff11^2 - b1*x1*x2 ; f2 = a2*x2^2 - b2*x1*x2", 1, 10),
        ("f1 = \u0662*x1^2 - b1*x1*x2 ; f2 = a2*x2^2 - b2*x1*x2", 1, 6),
        ("f1 = a1*x1^\u00b2 - b1*x1*x2 ; f2 = a2*x2^2 - b2*x1*x2", 1, 12),
        ("f1 = a1*x1\u00b2 - b1*x1*x2 ; f2 = a2*x2^2 - b2*x1*x2", 1, 11),
        ("f1 = a1*x1^2 - b1*x1*x2\nf\u0662 = a2*x2^2 - b2*x1*x2", 2, 2),
        ("f1 = a1*x1^2 - 1/\u0663*x1*x2 ; f2 = a2*x2^2 - b2*x1*x2", 1, 18),
    ]

    @pytest.mark.parametrize(
        "text, line, col",
        NON_ASCII_DIGITS,
        ids=["fullwidth-x-index", "arabic-coefficient", "superscript-power", "superscript-x-index", "arabic-f-index", "arabic-denominator"],
    )
    def test_non_ascii_digits_are_parse_errors(self, text, line, col):
        with pytest.raises(FamilyParseError) as err:
            parse_family(text)
        assert (err.value.line, err.value.col) == (line, col)


    # (text, column, found): a slash after a number needs ASCII digits, and
    # the error names the character after the slash, at its column
    BAD_DENOMINATORS = [
        ("f1 = a1*x1^2 - 1/\u0663*x1*x2 ; f2 = a2*x2^2 - b2*x1*x2", 18, "'\u0663'"),
        ("f1 = a1*x1^2 - 1/x1*x2 ; f2 = a2*x2^2 - b2*x1*x2", 18, "'x'"),
        ("f1 = a1*x1^2 - b1*x1*x2 ; f2 = a2*x2^2 - 1/", 44, "end of input"),
    ]

    @pytest.mark.parametrize("text, col, found", BAD_DENOMINATORS, ids=["arabic", "variable", "end"])
    def test_a_fraction_needs_ascii_digits_after_the_slash(self, text, col, found):
        with pytest.raises(FamilyParseError) as err:
            parse_family(text)
        assert (err.value.line, err.value.col) == (1, col)
        assert str(err.value) == f"line 1, column {col}: a fraction needs ASCII digits after '/', found {found}"

    # (text, line, column, message): one error of each kind the term and
    # generator rules raise, the whole message pinned with its position
    G2 = " ; f2 = a2*x2^2 - b2*x1*x2"
    PARSE_ERRORS = [
        ("f1 = x1^2*2 - b1*x1*x2" + G2, 1, 11, "a rational coefficient may only start a term"),
        ("f1 = a1*x1^2 - b1*x1*x2 ;\n  f2 = x2^2*a2 - b2*x1*x2", 2, 13, "coefficient 'a2' may only start a term"),
        ("f1 = a1*x1^b1 - b1*x1*x2" + G2, 1, 12, "expected an integer exponent"),
        ("f1 = a1*x1^1/2 - b1*x1*x2" + G2, 1, 12, "expected an integer exponent"),
        ("f1 = a1*y1^2 - b1*x1*x2" + G2, 1, 9, "expected a coefficient or a variable, found 'y1'"),
        ("f1 = a1*x1^2 - b1*x1*" + G2, 1, 23, "expected a coefficient or a variable, found ';'"),
        ("f1 = -a1*x1^2 - b1*x1*x2" + G2, 1, 15, "a sign may only precede a rational coefficient"),
        ("f1 = a1*x1^2 - b1*x1*x2 x2" + G2, 1, 25, "unexpected 'x2' after the tail term"),
        ("g1 = a1*x1^2 - b1*x1*x2" + G2, 1, 1, "expected one of f followed by an index, found 'g1'"),
        ("f1 = a1*x^2 - b1*x1*x2" + G2, 1, 9, "expected one of x followed by an index, found 'x'"),
        ("f1 = a*x1^2 - b1*x1*x2" + G2, 1, 6, "expected one of a/b followed by an index, found 'a'"),
        ("f1 = a1*x1^2 - b1*x1*x2\nf2 = a2*x2^2 - b2*x1*x2 ;; x1", 2, 28, "expected one of f followed by an index, found 'x1'"),
        ("f1 = b1*x1^2 - b1*x1*x2" + G2, 1, 25, "leading coefficient of f1 cannot be a b-symbol"),
        ("f1 = a1*x1^2 - a1*x1*x2" + G2, 1, 25, "tail coefficient of f1 cannot be an a-symbol"),
        ("f1 = a1*x1^2 - b1*x1*x2 ;\nf2 = a2*x_2^2 - b2*x1*x2", 2, 10, "unexpected character '_'"),
        ("f1 = a1*x1^2 - b1*x1*x2\n f2 = a2*x2² - b2*x1*x2", 2, 12, "unexpected character '²'"),
    ]

    @pytest.mark.parametrize(
        "text, line, col, message",
        PARSE_ERRORS,
        ids=[
            "rational-after-factor", "symbol-after-factor-line-2", "symbol-exponent", "fraction-exponent",
            "unknown-name", "missing-factor", "signed-symbol", "after-tail", "generator-name", "bare-x",
            "bare-a", "name-after-separators-line-2", "b-leads", "a-tails", "underscore-line-2", "superscript-line-2",
        ],
    )
    def test_parse_errors_are_pinned(self, text, line, col, message):
        with pytest.raises(FamilyParseError) as err:
            parse_family(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert str(err.value) == f"line {line}, column {col}: {message}"

    @pytest.mark.parametrize("text, col, found", BAD_DENOMINATORS, ids=["arabic", "variable", "end"])
    def test_the_cli_exits_1_with_one_line_naming_the_character(self, capsys, text, col, found):
        assert main(["graph", "--family", text, "--degree", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert f"column {col}: a fraction needs ASCII digits after '/', found {found}" in captured.err


class TestRoundTrip:
    def test_print_parse_round_trip_random(self):
        rng = random.Random(123)
        for _ in range(30):
            fam = random_family(rng, numeric=rng.random() < 0.5)
            assert parse_family(format_family(fam)) == fam

    def test_json_round_trip_random(self):
        rng = random.Random(321)
        for _ in range(30):
            fam = random_family(rng, numeric=rng.random() < 0.5)
            assert family_from_json(family_to_json(fam)) == fam

    def test_json_mixed_mode(self):
        fam = parse_family("f1 = x1^2 - b1*x2^2 ; f2 = a2*x2^2 - 3*x1*x2")
        data = family_to_json(fam)
        assert data["coefficients"]["mode"] == "mixed"
        assert family_from_json(json.dumps(data)) == fam

    def test_load_family_dispatches_on_shape(self):
        fam = parse_family("f1 = a1*x1^2 - b1*x1*x2 ; f2 = a2*x2^2 - b2*x1*x2")
        assert load_family(format_family(fam)) == fam
        assert load_family(json.dumps(family_to_json(fam))) == fam

    def test_json_rejects_malformed_input(self):
        good = family_to_json(parse_family("f1 = a1*x1^2 - b1*x1*x2 ; f2 = a2*x2^2 - b2*x1*x2"))
        wrong_tail = json.loads(json.dumps(good))
        wrong_tail["generators"][0]["m"] = [1]  # wrong length
        with pytest.raises(FamilyValidationError):
            family_from_json(wrong_tail)
        bad_mode = json.loads(json.dumps(good))
        bad_mode["coefficients"] = {"mode": "float"}
        with pytest.raises(FamilyValidationError):
            family_from_json(bad_mode)
        missing = json.loads(json.dumps(good))
        del missing["generators"]
        with pytest.raises(FamilyValidationError):
            family_from_json(missing)
        duplicate = json.loads(json.dumps(good))
        duplicate["generators"][1]["i"] = 1
        with pytest.raises(FamilyValidationError):
            family_from_json(duplicate)

    GENERATORS = [{"i": 1, "d": 2, "m": [0, 2]}, {"i": 2, "d": 2, "m": [2, 0]}]

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"n": 2, "generators": GENERATORS[:1]}, "expected 2 generators, got 1"),
            ({"n": 2, "generators": [GENERATORS[0], {"i": 3, "d": 2, "m": [2, 0]}]}, "generator index 3 out of range 1..2"),
            (
                {"n": 2, "generators": GENERATORS, "coefficients": {"mode": "numeric", "a": [1, 1], "b": [1, None]}},
                "numeric mode does not admit missing values",
            ),
            (
                {"n": 2, "generators": GENERATORS, "coefficients": {"mode": "mixed", "a": [1], "b": [1, None]}},
                "expected 2 a-values, got 1",
            ),
            ({"n": 0, "generators": []}, "a family needs at least one generator"),
            ({"n": 2, "generators": [GENERATORS[0], {"i": 2, "d": 0, "m": [0, 0]}]}, "generator degrees must be positive"),
        ],
        ids=["generator-count", "index-range", "numeric-missing", "value-count", "no-generators", "zero-degree"],
    )
    def test_json_errors_are_pinned(self, data, message):
        with pytest.raises(FamilyValidationError) as exc:
            family_from_json(data)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "data, message",
        [
            (
                {"n": "2", "generators": [{"i": "1", "d": "2", "m": ["0", "2"]}, {"i": 2, "d": 2, "m": [2, 0]}]},
                "'2' is not an integer",
            ),
            ({"n": "x", "generators": []}, "'x' is not an integer"),
            # a string or an object would be read value by value: "12" as a = (1, 2)
            (
                {
                    "n": 2,
                    "generators": [{"i": 1, "d": 2, "m": [0, 2]}, {"i": 2, "d": 2, "m": [2, 0]}],
                    "coefficients": {"mode": "numeric", "a": "12", "b": {"3": 0, "4": 0}},
                },
                "coefficients 'a' and 'b' must be JSON lists",
            ),
        ],
        ids=["numeric-strings", "non-numeric-string", "coefficients-not-lists"],
    )
    def test_json_values_of_the_wrong_json_type_are_named(self, data, message):
        with pytest.raises(FamilyValidationError) as exc:
            family_from_json(data)
        assert str(exc.value) == message


class TestSpecialize:
    def test_identity_assignment(self, double_cycle):
        assert specialize(double_cycle, CoeffAssignment.empty(3)) == double_cycle

    def test_unit_a_assignment(self, pentagon):
        again = specialize(pentagon, CoeffAssignment((Fraction(1),) * 5, (None,) * 5))
        assert again == pentagon  # pentagon already has a = 1
        assert again.a_values == (Fraction(1),) * 5

    def test_single_b_zero(self, double_cycle):
        fam = specialize(double_cycle, CoeffAssignment.of(3, b2=0))
        assert fam.b_values == (None, Fraction(0), None)
        assert fam.coeff_mode == "mixed"
        assert "0*x2*x3" in format_family(fam)

    def test_zero_a_rejected(self, double_cycle):
        with pytest.raises(FamilyValidationError):
            specialize(double_cycle, CoeffAssignment.of(3, a2=0))

    @pytest.mark.parametrize(
        "name",
        ["n", "cls", "a\u0661", "b\uff12", "a\u00b9", "a", "c1", "a4"],
        ids=["n", "cls", "arabic-a1", "fullwidth-b2", "superscript-a1", "a", "c1", "a4"],
    )
    def test_of_rejects_names_that_are_not_symbols(self, name):
        with pytest.raises(FamilyValidationError, match=f"unknown symbol {name!r}"):
            CoeffAssignment.of(3, **{name: 2})

    def test_generator_polynomials(self, double_cycle):
        numeric = specialize(
            double_cycle, CoeffAssignment.of(3, a1=2, a2=1, a3=1, b1=0, b2=1, b3=1)
        )
        f1 = numeric.generator_values(1)
        assert f1 == {Monomial((2, 0, 0)): Fraction(2)}  # zero tail dropped
        f2 = numeric.generator_values(2)
        assert f2[Monomial((0, 1, 1))] == Fraction(-1)


class TestHash:
    """A family's hash is computed once, at construction, and every copy
    hashes afresh."""

    @staticmethod
    def _fields_hash(fam):
        return hash((fam.n, fam.degrees, fam.tails, fam.a_values, fam.b_values))

    def test_hashing_a_built_family_calls_no_fraction_hash(self, double_cycle, monkeypatch):
        fam = specialize(double_cycle, CoeffAssignment.of(3, a1="2/3", a2=1, a3=-5, b1="7/2", b2=0, b3=4))
        expected = self._fields_hash(fam)
        calls = []
        fraction_hash = Fraction.__hash__
        monkeypatch.setattr(Fraction, "__hash__", lambda q: calls.append(q) or fraction_hash(q))
        assert hash(Fraction(1, 3)) == hash(Fraction(1, 3)) and len(calls) == 2  # the spy sees every call
        calls.clear()
        assert hash(fam) == hash(fam) == expected
        assert {fam: 1}[fam] == 1
        assert calls == []

    def test_equal_families_hash_alike(self, double_cycle):
        again = load_family(format_family(double_cycle))
        assert again == double_cycle and again is not double_cycle
        assert hash(again) == hash(double_cycle) == self._fields_hash(double_cycle)

    def test_replace_and_specialize_hash_afresh(self, double_cycle):
        numeric = specialize(double_cycle, CoeffAssignment.of(3, a1=2, b3="1/5"))
        replaced = dataclasses.replace(numeric, b_values=(None, 3, None))
        for fam in (numeric, replaced):
            assert hash(fam) == self._fields_hash(fam)
        assert replaced.b_values == (None, Fraction(3), None)

    def test_copies_and_pickles_do_not_carry_the_hash(self, double_cycle):
        # Before Python 3.12 hash(None) is an address, so a hash carried into
        # another process would be stale: a copy must be rebuilt.
        fam = specialize(double_cycle, CoeffAssignment.of(3, a1=2, b3="1/5"))
        fresh = hash(fam)
        stale = BinomialFamily(fam.n, fam.degrees, fam.tails, fam.a_values, fam.b_values)
        object.__setattr__(stale, "_hash", fresh + 1)
        for again in (copy.copy(stale), copy.deepcopy(stale), pickle.loads(pickle.dumps(stale))):
            assert again == fam and hash(again) == fresh


class TestHelpers:
    def test_parse_monomial(self):
        assert parse_monomial("x1^2*x3", 3) == Monomial((2, 0, 1))
        assert parse_monomial("1", 3) == Monomial((0, 0, 0))
        with pytest.raises(FamilyValidationError):
            parse_monomial("x5", 3)

    @pytest.mark.parametrize(
        "text", ["x\uff11^2", "x1^\u00b2", "x1\u00b2", "x\u0661*x2"], ids=["fullwidth", "superscript-power", "superscript", "arabic"]
    )
    def test_monomial_parsers_take_ascii_digits_only(self, text):
        for parse in (parse_monomial, parse_x_polynomial):
            with pytest.raises(FamilyParseError, match="line 1, column"):
                parse(text, 2)
        with pytest.raises(FamilyParseError, match="line 1, column 1"):
            parse_x_polynomial("\u0662*x1", 2)

    def test_parse_x_polynomial(self):
        terms = parse_x_polynomial("2*x1^2*x2 - 1/3*x2^3 + x1*x2^2", 2)
        assert terms == {
            Monomial((2, 1)): Fraction(2),
            Monomial((0, 3)): Fraction(-1, 3),
            Monomial((1, 2)): Fraction(1),
        }
        assert parse_x_polynomial("x1 - x1", 2) == {}

    def test_parse_x_polynomial_takes_a_leading_sign(self):
        assert parse_x_polynomial("-x1^2 + 2*x2", 2) == {Monomial((2, 0)): Fraction(-1), Monomial((0, 1)): Fraction(2)}
        assert parse_x_polynomial("+x1^2 - 1/2*x2", 2) == {Monomial((2, 0)): Fraction(1), Monomial((0, 1)): Fraction(-1, 2)}

    @pytest.mark.parametrize(
        "text, line, col, message",
        [
            ("x1 - a1*x2", 1, 11, "polynomial coefficients must be rational literals"),
            ("x1 - b2*x2", 1, 11, "polynomial coefficients must be rational literals"),
            ("x1 * x2 = x1", 1, 9, "unexpected '=' in polynomial"),
            ("x1\n- x2", 1, 3, "unexpected '\\n' in polynomial"),
        ],
        ids=["a-symbol", "b-symbol", "equals", "newline"],
    )
    def test_x_polynomial_errors_are_pinned(self, text, line, col, message):
        with pytest.raises(FamilyParseError) as err:
            parse_x_polynomial(text, 2)
        assert str(err.value) == f"line {line}, column {col}: {message}"
        assert (err.value.line, err.value.col) == (line, col)

    TAILS = (Monomial((0, 2)), Monomial((2, 0)))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda t: BinomialFamily(0, (), ()), "a family needs at least one generator"),
            (lambda t: BinomialFamily(2, (2,), t), "need one degree and one tail per generator"),
            (lambda t: BinomialFamily.symbolic([2, 0], t), "generator degrees must be positive"),
            (lambda t: BinomialFamily.numeric([2, 2], t, [1, 1], [1]), "expected 2 b-values, got 1"),
            (lambda t: BinomialFamily(2, (2, 2), t, (1, None), (1, 1)).generator_values(2), "generator 2 is not fully numeric"),
            (lambda t: CoeffAssignment((1, 2), (3,)), "assignment blocks must have equal length"),
            (lambda t: specialize(BinomialFamily.symbolic([2, 2], t), CoeffAssignment.empty(3)), "assignment size does not match the family"),
        ],
        ids=["no-generators", "short-degrees", "zero-degree", "value-count", "not-numeric", "assignment-blocks", "assignment-size"],
    )
    def test_constructor_errors_are_pinned(self, build, message):
        with pytest.raises(FamilyValidationError) as exc:
            build(self.TAILS)
        assert str(exc.value) == message

    def test_str_is_the_text_grammar(self):
        fam = BinomialFamily.numeric([2, 2], self.TAILS, [1, "1/2"], [0, -3])
        assert str(fam) == "f1 = 1*x1^2 - 0*x2^2 ; f2 = 1/2*x2^2 - -3*x1^2"
        assert parse_family(str(fam)) == fam

    def test_step_and_basis(self, double_cycle):
        m = Monomial((2, 1, 0))
        label, nxt = double_cycle.step(m)
        assert label == 1 and nxt == Monomial((1, 1, 1))
        assert double_cycle.step(Monomial((1, 1, 1))) is None
        assert double_cycle.in_basis(Monomial((1, 1, 1)))
        assert not double_cycle.in_basis(Monomial((2, 1, 0)))
        assert double_cycle.step(Monomial((0, 2, 2)), cutoff=1) is None

    def test_step_rejects_monomials_of_another_variable_count(self, double_cycle):
        for exps in ((2, 1), (0, 0), (2, 1, 0, 0), (0, 0, 0, 5)):
            with pytest.raises(ValueError):
                double_cycle.step(Monomial(exps))

    def test_basis_exponents_match_the_monomial_definition(self):
        from binomial_ci import monomials_of_degree

        rng = random.Random(37)
        for _ in range(20):
            fam = random_family(rng, n_range=(2, 4))
            for d in range(fam.socle_degree + 3):
                expected = [m.exponents for m in monomials_of_degree(fam.n, d) if fam.in_basis(m)]
                assert fam.basis_exponents(d) == expected
                assert fam.basis_monomials(d) == [Monomial(e) for e in expected]

    def test_basis_exponents_hand_each_caller_a_fresh_list(self, double_cycle):
        first = double_cycle.basis_exponents(2)
        expected = list(first)
        first.append((9, 9, 9))
        first.reverse()
        assert double_cycle.basis_exponents(2) == expected
        assert double_cycle.basis_exponents(2) is not double_cycle.basis_exponents(2)

    def test_basis_exponents_reject_a_negative_degree(self, double_cycle):
        with pytest.raises(ValueError, match="nonnegative"):
            double_cycle.basis_exponents(-1)
        with pytest.raises(ValueError, match="nonnegative"):
            double_cycle.basis_monomials(-1)

    def test_socle_and_resultant_degrees(self, double_cycle):
        assert double_cycle.socle_degree == 3
        assert double_cycle.resultant_degree == 4

    @pytest.mark.parametrize(
        "degrees, message",
        [([2.9, 2], "2.9 is not an integer"), ([True, 2], "True is not an integer"), (["2", 2], "'2' is not an integer")],
    )
    def test_degrees_must_be_ints(self, degrees, message):
        tails = [Monomial((1, 1)), Monomial((1, 1))]
        with pytest.raises(FamilyValidationError, match=message):
            BinomialFamily.numeric(degrees, tails, [1, 1], [1, 1])

    def test_generator_count_must_be_an_int(self):
        with pytest.raises(FamilyValidationError, match="2.0 is not an integer"):
            BinomialFamily(2.0, (2, 2), (Monomial((1, 1)), Monomial((1, 1))))


# Grammar pieces and characters that look like them: Unicode letters, digits
# and spaces, a minus sign, zero denominators and integers past Python's
# default limit of 4300 digits for a str -> int conversion.
_PIECES = [
    "f1", "f2", "f3", "f", "f0", "f01", "F1", "=", "-", "*", "^", "+", ";", "\n", " ", "\t", "\r",
    "x1", "x2", "x3", "x4", "x", "x0", "x02", "y1", "a1", "a2", "a3", "b1", "b2", "b3", "a", "b",
    "0", "1", "2", "07", "12", "1/2", "3/4", "0/5", "3/0", "0/00", "1/", "/", "^1", "^0", "x1^2", "-5/2",
    "\u00e9", "\u00df", "\u03a9", "\u00aa", "\uff41", "\u00b2", "\u0663", "\uff11",  # é ß Ω ª ａ ² ٣ １
    "\u00a0", "\u2003", "\u3000", "\x0b", "\x85", "\u2028", "_", "\u2212",  # spaces, "_", a minus sign
    "9" * 4400, "1/" + "7" * 4400, "x1^" + "3" * 4400,
]


def _written(fam, rng) -> str:
    """fam in the text grammar as a hand would write it: random blanks, an
    implicit coefficient 1 or -1, "^1", x1*x1 for x1^2, a symbol for some
    values, signed rationals, any generator order and separators."""

    def blank():
        return rng.choice(["", "", " ", "  ", "\t", "\u00a0"])

    def factors(exps):
        out = []
        for i, e in enumerate(exps, 1):
            if e == 1 and rng.random() < 0.8:
                out.append(f"x{i}")
            elif e and rng.random() < 0.8:
                out.append(f"x{i}{blank()}^{blank()}{e}")
            else:
                out += [f"x{i}"] * e
        rng.shuffle(out)
        return f"{blank()}*{blank()}".join(out)

    def coefficient(value, symbol):
        if value is None or rng.random() < 0.1:
            return f"{symbol}{blank()}*{blank()}"
        if abs(value) == 1 and rng.random() < 0.5:
            return "" if value > 0 else "-" + blank()
        sign = "-" + blank() if value < 0 else ""
        return f"{sign}{abs(value)}{blank()}*{blank()}"

    parts = []
    for i in rng.sample(range(1, fam.n + 1), fam.n):
        lead = coefficient(fam.a_values[i - 1], f"a{i}") + factors(fam.lead_monomial(i).exponents)
        tail = coefficient(fam.b_values[i - 1], f"b{i}") + factors(fam.tails[i - 1].exponents)
        parts.append(f"{blank()}f{i}{blank()}={blank()}{lead}{blank()}-{blank()}{tail}{blank()}")
    ends = rng.choice(["", "", ";", "\n", " ; "])
    return ends + rng.choice([";", "\n", " ; ", ";;", "\n\n", ";\n"]).join(parts) + ends


def _mutated(text: str, rng) -> str:
    """text with one to three deletions, insertions or replacements of pieces."""
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(text) + 1)
        cut = rng.choice((0, 1, 1, 2, 3))
        text = text[:k] + (rng.choice(_PIECES) if cut < 3 or rng.random() < 0.5 else "") + text[k + cut:]
    return text


def _printed(fam, rng) -> str:
    """format_family(fam), its generators in any order and separated as the
    grammar allows: the shape the regex path reads."""
    parts = format_family(fam).split(" ; ")
    rng.shuffle(parts)
    return rng.choice([" ; ", ";", "\n", " ;\n"]).join(parts) + rng.choice(["", "\n", " "])


def _redigited(text: str, rng) -> str:
    """text with one digit replaced: mostly still the printed shape, which
    the checks after the regex may refuse."""
    k = rng.choice([k for k, c in enumerate(text) if c.isdigit()])
    return text[:k] + rng.choice("0123456789") + text[k + 1:]


def _differential_inputs(seed: int, count: int):
    """Family texts, seeded: printed and hand-written families as they are
    and mutated, printed ones with a digit changed, and runs of pieces."""
    rng = random.Random(seed)
    for _ in range(count):
        fam = random_family(rng, numeric=rng.random() < 0.5)
        r = rng.random()
        if r < 0.2:
            yield _printed(fam, rng)
        elif r < 0.4:
            yield _written(fam, rng)
        elif r < 0.6:
            yield _mutated(_written(fam, rng), rng)
        elif r < 0.7:
            yield _mutated(_printed(fam, rng), rng)
        elif r < 0.85:
            yield _redigited(_printed(fam, rng), rng)
        else:
            prefix = rng.choice(["", "f1 = ", "f1 = a1*x1^2 - "])
            yield prefix + "".join(rng.choices(_PIECES, k=rng.randint(1, 30)))


def _outcome(parse, *args):
    """("ok", repr of the result), or the exception's type, message, line and column."""
    try:
        return "ok", repr(parse(*args))
    except Exception as exc:  # any exception, compared as a value
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


def differential_mismatches(seed: int, count: int) -> tuple[list, dict]:
    """The inputs on which parse_family differs from its token path, and a
    count of the outcomes: the regex path's families, the other families
    and the errors by type."""
    from binomial_ci.family import _matched_generators, _token_family

    mismatches, seen = [], {"fast": 0, "ok": 0}
    for text in _differential_inputs(seed, count):
        got, want = _outcome(parse_family, text), _outcome(_token_family, text)
        if got != want:
            mismatches.append((text, got, want))
        fast = want[0] == "ok" and _matched_generators(text)
        key = "fast" if fast else "ok" if want[0] == "ok" else want[0].__name__
        seen[key] = seen.get(key, 0) + 1
    return mismatches, seen


class TestFastPath:
    """The regex path of parse_family accepts the printed shape of the
    grammar and leaves every error to the token path."""

    def test_it_agrees_with_the_token_path_on_seeded_inputs(self):
        mismatches, seen = differential_mismatches(20261020, 3000)
        assert mismatches == []
        assert seen["fast"] > 600 and seen["ok"] > 400  # both paths parse families
        assert seen["FamilyParseError"] > 1000 and seen["FamilyValidationError"] > 60 and seen["ValueError"] > 10

    def test_format_family_takes_the_fast_path_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        from binomial_ci.family import _family_of, _matched_generators

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hypothesis.given(family_strategy(st))
        def check(fam):
            text = format_family(fam)
            assert _family_of(_matched_generators(text)) == fam
            assert parse_family(text) == fam

        check()

    @pytest.mark.parametrize(
        "text",
        ["f1 = -a1*x1^2 - b1*x1*x2 ; f2 = a2*x2^2 - b2*x1*x2", "f1 = a1*x1^2 - - b1*x1*x2 ; f2 = a2*x2^2 - b2*x1*x2"],
        ids=["lead", "tail"],
    )
    def test_a_signed_symbol_is_left_to_the_token_path(self, text):
        from binomial_ci.family import _matched_generators

        assert _matched_generators(text) is None
        with pytest.raises(FamilyParseError, match="a sign may only precede a rational coefficient"):
            parse_family(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("f1 = a1*x1*x2 - b1*x2^2 ; f2 = a2*x2^2 - b2*x1*x2", "line 1, column 25: the leading monomial of f1 must be a power of x1"),
            ("f1 = a1*x2^2 - b1*x1*x2 ; f2 = a2*x2^2 - b2*x1*x2", "line 1, column 25: the leading monomial of f1 must be a power of x1"),
            ("f1 = a1*x1^2 - b1*x1*x2 ; f1 = a1*x1^2 - b1*x1*x2", "line 1, column 50: duplicate generator index f1"),
            ("f1 = a1*x1^2 - b1*x1*x2 ; f3 = a3*x3^2 - b3*x1*x2", "line 1, column 50: missing generator index f2"),
        ],
        ids=["lead-of-two-variables", "lead-of-another-variable", "duplicate", "missing"],
    )
    def test_the_fast_path_matches_what_its_checks_refuse(self, text, message):
        from binomial_ci.family import _matched_generators

        assert _matched_generators(text)
        with pytest.raises(FamilyParseError) as err:
            parse_family(text)
        assert str(err.value) == message
