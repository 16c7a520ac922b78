"""Normal-form binomial families: f_i = a_i*x_i^{d_i} - b_i*m_i.

A family fixes the tail monomials m_i and degrees d_i; each coefficient a_i,
b_i is either a symbol or an exact rational value (a_i must be nonzero when
assigned).  Families parse from a small text grammar or from JSON.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import lt
from typing import NamedTuple, Sequence

from .algebra import Monomial, Rational, SparsePoly, as_fraction, as_int, exponents_of_degree, shown


class FamilyError(ValueError):
    """Base class for family construction failures."""


class FamilyParseError(FamilyError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class FamilyValidationError(FamilyError):
    pass


OptionalRational = Fraction | None


def _family_int(value) -> int:
    """`as_int` for counts, degrees and indices, raising FamilyValidationError."""
    try:
        return as_int(value)
    except ValueError as exc:
        raise FamilyValidationError(str(exc)) from None


def _coerce_values(values: Sequence | None, n: int, what: str) -> tuple[OptionalRational, ...]:
    if values is None:
        return (None,) * n
    out = []
    for v in values:
        out.append(None if v is None else as_fraction(v))
    if len(out) != n:
        raise FamilyValidationError(f"expected {n} {what}-values, got {len(out)}")
    return tuple(out)


@dataclass(frozen=True)
class BinomialFamily:
    """A family of binomials on normal form, one generator per variable."""

    n: int
    degrees: tuple[int, ...]
    tails: tuple[Monomial, ...]
    a_values: tuple[OptionalRational, ...] = field(default=None)  # type: ignore[assignment]
    b_values: tuple[OptionalRational, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        n = _family_int(self.n)
        if n < 1:
            raise FamilyValidationError("a family needs at least one generator")
        degrees = tuple(map(_family_int, self.degrees))
        tails = tuple(self.tails)
        if len(degrees) != n or len(tails) != n:
            raise FamilyValidationError("need one degree and one tail per generator")
        if any(d < 1 for d in degrees):
            raise FamilyValidationError("generator degrees must be positive")
        for i, (d, m) in enumerate(zip(degrees, tails), start=1):
            if m.n != n:
                raise FamilyValidationError(f"tail of generator {i} has {m.n} variables, expected {n}")
            if m.degree != d:
                raise FamilyValidationError(
                    f"tail {m} of generator {i} has degree {m.degree}, expected {d}"
                )
            if m.exponents == Monomial.variable(n, i, d).exponents:
                raise FamilyValidationError(f"tail of generator {i} equals x{i}^{d}")
        a_values = _coerce_values(self.a_values, n, "a")
        b_values = _coerce_values(self.b_values, n, "b")
        for i, v in enumerate(a_values, start=1):
            if v is not None and v == 0:
                raise FamilyValidationError(f"a{i} must be nonzero")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "tails", tails)
        object.__setattr__(self, "a_values", a_values)
        object.__setattr__(self, "b_values", b_values)

    @classmethod
    def symbolic(cls, degrees: Sequence[int], tails: Sequence[Monomial]) -> BinomialFamily:
        return cls(len(degrees), tuple(degrees), tuple(tails))

    @classmethod
    def numeric(
        cls,
        degrees: Sequence[int],
        tails: Sequence[Monomial],
        a_values: Sequence[Rational],
        b_values: Sequence[Rational],
    ) -> BinomialFamily:
        return cls(len(degrees), tuple(degrees), tuple(tails), tuple(a_values), tuple(b_values))

    @property
    def coeff_mode(self) -> str:
        values = self.a_values + self.b_values
        if all(v is None for v in values):
            return "symbolic"
        if all(v is not None for v in values):
            return "numeric"
        return "mixed"

    @property
    def is_numeric(self) -> bool:
        return self.coeff_mode == "numeric"

    @property
    def socle_degree(self) -> int:
        return sum(d - 1 for d in self.degrees)

    @property
    def resultant_degree(self) -> int:
        return self.socle_degree + 1

    def lead_monomial(self, i: int) -> Monomial:
        """x_i^{d_i} for the 1-based generator index i."""
        return Monomial.variable(self.n, i, self.degrees[i - 1])

    def a_poly(self, i: int) -> SparsePoly:
        v = self.a_values[i - 1]
        return SparsePoly.symbol_a(self.n, i) if v is None else SparsePoly.constant(self.n, v)

    def b_poly(self, i: int) -> SparsePoly:
        v = self.b_values[i - 1]
        return SparsePoly.symbol_b(self.n, i) if v is None else SparsePoly.constant(self.n, v)

    def generator(self, i: int) -> dict[Monomial, SparsePoly]:
        """Generator f_i as a map monomial -> coefficient polynomial."""
        terms = {self.lead_monomial(i): self.a_poly(i)}
        tail_coeff = -self.b_poly(i)
        if not tail_coeff.is_zero():
            terms[self.tails[i - 1]] = tail_coeff
        return terms

    def generator_values(self, i: int) -> dict[Monomial, Fraction]:
        """Generator f_i with numeric coefficients; requires a numeric family."""
        a, b = self.a_values[i - 1], self.b_values[i - 1]
        if a is None or b is None:
            raise FamilyValidationError(f"generator {i} is not fully numeric")
        terms = {self.lead_monomial(i): a}
        if b:
            terms[self.tails[i - 1]] = -b
        return terms

    def step(self, m: Monomial, cutoff: int | None = None):
        """One rewrite step at m: (i, m*m_i/x_i^{d_i}) for the least i with
        x_i^{d_i} | m, or None when m is a sink or the least index exceeds the
        cutoff."""
        if len(m.exponents) != self.n:
            raise ValueError(f"monomial {m} does not have {self.n} variables")
        move = self._move(m.exponents, self.n if cutoff is None else cutoff)
        return None if move is None else (move[0], Monomial._raw(move[1]))

    def _move(self, exps: tuple[int, ...], limit: int) -> tuple[int, tuple[int, ...]] | None:
        """`step` on an exponent tuple of length n: (i, successor exponents).

        The one tuple encoding of the step; `keys.rule` is the packed one.
        It stays because a single monomial's exponents are unbounded: the
        rewriting walk and `step` take exponents of 2^62 and more, which no
        packed lane holds.  The tests also check the packed rule against it."""
        for i, d in enumerate(self.degrees):
            if exps[i] >= d:
                if i >= limit:
                    return None
                nxt = [e + t for e, t in zip(exps, self.tails[i].exponents)]
                nxt[i] -= d
                return (i + 1, tuple(nxt))
        return None

    def in_basis(self, m: Monomial, k: int | None = None) -> bool:
        """Whether m avoids x_i^{d_i} for all i <= k (k defaults to n)."""
        limit = self.n if k is None else k
        return all(m.exponents[i] < self.degrees[i] for i in range(limit))

    def basis_exponents(self, d: int) -> list[tuple[int, ...]]:
        """The degree-d exponent tuples with every entry below its d_i, in
        the order of `exponents_of_degree`."""
        degrees = self.degrees
        return [e for e in exponents_of_degree(self.n, d) if all(map(lt, e, degrees))]

    def basis_monomials(self, d: int) -> list[Monomial]:
        """The degree-d monomials with every exponent below its d_i."""
        return list(map(Monomial._raw, self.basis_exponents(d)))

    def __str__(self) -> str:
        return format_family(self)


@dataclass(frozen=True)
class CoeffAssignment:
    """Partial assignment of values to the symbols a1..an, b1..bn."""

    a: tuple[OptionalRational, ...]
    b: tuple[OptionalRational, ...]

    def __post_init__(self) -> None:
        a = tuple(None if v is None else as_fraction(v) for v in self.a)
        b = tuple(None if v is None else as_fraction(v) for v in self.b)
        if len(a) != len(b):
            raise FamilyValidationError("assignment blocks must have equal length")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def empty(cls, n: int) -> CoeffAssignment:
        return cls((None,) * n, (None,) * n)

    @classmethod
    def of(cls, n: int, /, **symbols: Rational) -> CoeffAssignment:
        """Assignment from keyword symbols, e.g. of(3, a1=1, b2="2/3")."""
        a: list[OptionalRational] = [None] * n
        b: list[OptionalRational] = [None] * n
        for name, value in symbols.items():
            block, digits = name[:1], name[1:]
            if block not in ("a", "b") or not (digits.isascii() and digits.isdecimal()) or not 1 <= int(digits) <= n:
                raise FamilyValidationError(f"unknown symbol {name!r}")
            (a if block == "a" else b)[int(digits) - 1] = as_fraction(value)
        return cls(tuple(a), tuple(b))


def specialize(family: BinomialFamily, assignment: CoeffAssignment) -> BinomialFamily:
    """Substitute the assigned symbols; unassigned ones stay as they are."""
    if len(assignment.a) != family.n:
        raise FamilyValidationError("assignment size does not match the family")
    for i, v in enumerate(assignment.a, start=1):
        if v is not None and v == 0:
            raise FamilyValidationError(f"cannot assign 0 to a{i}")
    a_values = tuple(v if v is not None else old for v, old in zip(assignment.a, family.a_values))
    b_values = tuple(v if v is not None else old for v, old in zip(assignment.b, family.b_values))
    return BinomialFamily(family.n, family.degrees, family.tails, a_values, b_values)


# ---------------------------------------------------------------------------
# Text grammar
#
#   line   := "f" NAT "=" term "-" term
#   term   := coeff ("*" factor)* | factor ("*" factor)*
#   factor := "x" NAT ("^" NAT)?
#   coeff  := "a" NAT | "b" NAT | RATIONAL
#
# NAT is ASCII digits.  Generators are separated by ";" or newlines;
# whitespace is insignificant.  The lexical classes, one alternative each of
# _LEXEME and tried in this order: a separator (";" or a newline), blanks
# (any other str.isspace run), an operator (one of "=-*^+"), a name (one
# str.isalpha letter and its ASCII digits), a number (ASCII digits and an
# optional "/" denominator) and any other character, which is an error.
# [^\W\d] holds every letter, but also "_", "²" and other word characters
# that are not letters, so a name's first character is checked by isalpha.
# ---------------------------------------------------------------------------

_LEXEME = re.compile(
    r"(?P<SEP>[;\n])|(?P<BLANK>[^\S\n]+)|(?P<OP>[-=*^+])|(?P<NAME>[^\W\d][0-9]*)"
    r"|(?P<NUMBER>[0-9]+(?:/(?P<den>[0-9]*))?)|(?P<OTHER>.)"
)


class _Token(NamedTuple):
    kind: str  # NAME | NUMBER | OP | SEP | END
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    """The tokens of `text`, each at its line and column (both 1-based): the
    column is the match offset less the offset where its line starts."""
    tokens = []
    line, start = 1, 0
    for m in _LEXEME.finditer(text):
        kind, lexeme, col = m.lastgroup, m.group(), m.start() - start + 1
        if kind == "SEP":
            tokens.append(_Token("SEP", ";", line, col))
            if lexeme == "\n":
                line, start = line + 1, m.end()
        elif kind == "OTHER" or kind == "NAME" and not lexeme[0].isalpha():
            raise FamilyParseError(f"unexpected character {lexeme[0]!r}", line, col)
        elif kind != "BLANK":
            den = m["den"]  # None unless a number has a "/"
            if den == "":
                found = repr(text[m.end()]) if m.end() < len(text) else "end of input"
                raise FamilyParseError(f"a fraction needs ASCII digits after '/', found {found}", line, m.end() - start + 1)
            if den and not int(den):
                raise FamilyParseError(f"zero denominator in {lexeme!r}", line, col)
            tokens.append(_Token(kind, lexeme, line, col))
    tokens.append(_Token("END", "", line, len(text) - start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> None:
        tok = self.peek()
        raise FamilyParseError(message, tok.line, tok.col)

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok.kind != "OP" or tok.text != op:
            raise FamilyParseError(f"expected {op!r}, found {tok.text!r}", tok.line, tok.col)

    def indexed_name(self, prefixes: str) -> tuple[str, int]:
        tok = self.next()
        if tok.kind != "NAME" or tok.text[0] not in prefixes or len(tok.text) < 2:
            raise FamilyParseError(
                f"expected one of {'/'.join(prefixes)} followed by an index, found {tok.text!r}",
                tok.line,
                tok.col,
            )
        return tok.text[0], int(tok.text[1:])

    def parse_term(self):
        """One product: optional sign, optional leading coefficient, x-factors.

        Returns (coeff_kind, coeff_payload, {var_index: exponent}) where
        coeff_kind is "a", "b", "num" or None.  A leading "-" requires a
        rational coefficient (symbols cannot carry a sign).
        """
        coeff_kind = None
        coeff_payload = None
        negative = False
        if self.peek().kind == "OP" and self.peek().text == "-":
            self.next()
            negative = True
        exps: dict[int, int] = {}
        first = True
        while True:
            tok = self.peek()
            if tok.kind == "NUMBER":
                if not first:
                    self.fail("a rational coefficient may only start a term")
                self.next()
                coeff_kind, coeff_payload = "num", Fraction(tok.text)
            elif tok.kind == "NAME" and tok.text[0] in "ab":
                if not first:
                    self.fail(f"coefficient {tok.text!r} may only start a term")
                kind, idx = self.indexed_name("ab")
                coeff_kind, coeff_payload = kind, idx
            elif tok.kind == "NAME" and tok.text[0] == "x":
                _, idx = self.indexed_name("x")
                power = 1
                if self.peek().kind == "OP" and self.peek().text == "^":
                    self.next()
                    ptok = self.next()
                    if ptok.kind != "NUMBER" or "/" in ptok.text:
                        raise FamilyParseError("expected an integer exponent", ptok.line, ptok.col)
                    power = int(ptok.text)
                exps[idx] = exps.get(idx, 0) + power
            else:
                self.fail(f"expected a coefficient or a variable, found {tok.text!r}")
            first = False
            if self.peek().kind == "OP" and self.peek().text == "*":
                self.next()
                continue
            break
        if negative:
            if coeff_kind in ("a", "b"):
                self.fail("a sign may only precede a rational coefficient")
            coeff_kind = "num"
            coeff_payload = -(coeff_payload if coeff_payload is not None else Fraction(1))
        return coeff_kind, coeff_payload, exps

    @staticmethod
    def monomial(exps: dict[int, int], n: int, where: str = "") -> Monomial:
        """The x-factors {var_index: exponent} of a term as a monomial in n
        variables."""
        if any(not 1 <= v <= n for v in exps):
            raise FamilyValidationError(f"variable index out of range 1..{n}{where}")
        out = [0] * n
        for v, e in exps.items():
            out[v - 1] = e
        return Monomial(tuple(out))

    def parse_generator(self):
        _, idx = self.indexed_name("f")
        self.expect_op("=")
        lead = self.parse_term()
        self.expect_op("-")
        tail = self.parse_term()
        tok = self.peek()
        if tok.kind not in ("SEP", "END"):
            self.fail(f"unexpected {tok.text!r} after the tail term")
        return idx, lead, tail


def _coefficient(term, role: str, idx: int, tok: _Token) -> OptionalRational:
    """The value of generator f_idx's "leading" or "tail" coefficient: None
    for its own symbol (a_idx leads, b_idx tails), 1 for a bare monomial.
    The other block's symbol, or an own symbol of another index, is an error
    at `tok`."""
    kind, payload, _ = term
    own, other = ("a", "b") if role == "leading" else ("b", "a")
    if kind == own and payload != idx:
        raise FamilyParseError(f"{role} coefficient of f{idx} must be {own}{idx}", tok.line, tok.col)
    if kind == other:
        article = "an" if other == "a" else "a"
        raise FamilyParseError(f"{role} coefficient of f{idx} cannot be {article} {other}-symbol", tok.line, tok.col)
    return None if kind == own else payload if kind == "num" else Fraction(1)


def parse_family(text: str) -> BinomialFamily:
    """Parse the text grammar into a validated family.

    The generator count determines the variable count; indices must cover
    1..n exactly once.  Monomial generators are written with an explicit zero
    tail coefficient, e.g. "f1 = a1*x1^3 - 0*x1^2*x2" (the placeholder tail
    keeps the reduction graph well defined).
    """
    parser = _Parser(_tokenize(text))
    raw = []
    while True:
        while parser.peek().kind == "SEP":
            parser.next()
        if parser.peek().kind == "END":
            break
        raw.append((parser.parse_generator(), parser.peek()))
    if not raw:
        raise FamilyParseError("no generators found", 1, 1)
    n = len(raw)
    seen: dict[int, None] = {}
    for (idx, _, _), tok in raw:
        if idx in seen:
            raise FamilyParseError(f"duplicate generator index f{idx}", tok.line, tok.col)
        seen[idx] = None
    missing = [i for i in range(1, n + 1) if i not in seen]
    if missing:
        tok = raw[-1][1]
        raise FamilyParseError(f"missing generator index f{missing[0]}", tok.line, tok.col)

    degrees: list[int] = [0] * n
    tails: list[Monomial] = [Monomial.one(n)] * n
    a_values: list[OptionalRational] = [None] * n
    b_values: list[OptionalRational] = [None] * n
    for (idx, lead, tail), tok in raw:
        if list(lead[2]) != [idx]:
            raise FamilyParseError(
                f"the leading monomial of f{idx} must be a power of x{idx}", tok.line, tok.col
            )
        a_values[idx - 1] = _coefficient(lead, "leading", idx, tok)
        degrees[idx - 1] = lead[2][idx]
        if not tail[2]:
            raise FamilyParseError(f"missing tail monomial in f{idx}", tok.line, tok.col)
        b_values[idx - 1] = _coefficient(tail, "tail", idx, tok)
        tails[idx - 1] = _Parser.monomial(tail[2], n, f" in generator f{idx}")
    return BinomialFamily(n, tuple(degrees), tuple(tails), tuple(a_values), tuple(b_values))


def format_family(family: BinomialFamily) -> str:
    """Render a family in the text grammar; parse(format(fam)) == fam."""
    parts = []
    for i in range(1, family.n + 1):
        a, b = family.a_values[i - 1], family.b_values[i - 1]
        lead_coeff = f"a{i}" if a is None else str(a)
        tail_coeff = f"b{i}" if b is None else str(b)
        lead = family.lead_monomial(i).render()
        tail = family.tails[i - 1].render()
        parts.append(f"f{i} = {lead_coeff}*{lead} - {tail_coeff}*{tail}")
    return " ; ".join(parts)


def _values_to_json(values: tuple[OptionalRational, ...]) -> list[str | None]:
    return [None if v is None else str(v) for v in values]


def family_to_json(family: BinomialFamily) -> dict:
    mode = family.coeff_mode
    coefficients: dict = {"mode": mode}
    if mode != "symbolic":
        coefficients["a"] = _values_to_json(family.a_values)
        coefficients["b"] = _values_to_json(family.b_values)
    return {
        "n": family.n,
        "generators": [
            {"i": i, "d": family.degrees[i - 1], "m": list(family.tails[i - 1].exponents)}
            for i in range(1, family.n + 1)
        ],
        "coefficients": coefficients,
    }


def _json_value(value) -> OptionalRational:
    if value is None:
        return None
    try:
        return as_fraction(value)
    except (TypeError, ValueError):
        raise FamilyValidationError(
            f"coefficient {shown(value)} is not an integer or a \"p/q\" string"
        ) from None


def family_from_json(data: dict | str) -> BinomialFamily:
    if isinstance(data, str):
        data = json.loads(data)
    try:
        n = _family_int(data["n"])
        generators = data["generators"]
        if len(generators) != n:
            raise FamilyValidationError(f"expected {n} generators, got {len(generators)}")
        degrees = [0] * n
        tails: list[Monomial] = [Monomial.one(n)] * n
        seen = set()
        for g in generators:
            i = _family_int(g["i"])
            if not 1 <= i <= n:
                raise FamilyValidationError(f"generator index {i} out of range 1..{n}")
            if i in seen:
                raise FamilyValidationError(f"duplicate generator index {i}")
            seen.add(i)
            degrees[i - 1] = g["d"]
            tails[i - 1] = Monomial(tuple(_family_int(e) for e in g["m"]))
        coefficients = data.get("coefficients", {"mode": "symbolic"})
        mode = coefficients.get("mode", "symbolic")
        if mode == "symbolic":
            a_values = b_values = None
        elif mode in ("numeric", "mixed"):
            if not (isinstance(coefficients["a"], list) and isinstance(coefficients["b"], list)):
                raise FamilyValidationError("coefficients 'a' and 'b' must be JSON lists")
            a_values = [_json_value(v) for v in coefficients["a"]]
            b_values = [_json_value(v) for v in coefficients["b"]]
            if mode == "numeric" and (None in a_values or None in b_values):
                raise FamilyValidationError("numeric mode does not admit missing values")
        else:
            raise FamilyValidationError(f"unknown coefficient mode {mode!r}")
    except (KeyError, TypeError, AttributeError) as exc:
        # A missing key, or a value of the wrong JSON type.
        raise FamilyValidationError(f"malformed family JSON: {exc}") from exc
    return BinomialFamily(n, tuple(degrees), tuple(tails), a_values, b_values)


def load_family(text: str) -> BinomialFamily:
    """Parse either the JSON schema or the text grammar, by first character."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return family_from_json(json.loads(stripped))
    return parse_family(text)


def parse_monomial(text: str, n: int) -> Monomial:
    """Parse "x1^2*x3" (or "1") into a monomial in n variables.

    A coefficient or a sign is an error, never dropped: "3*x1^2", "a1*x1",
    "-x1" and "2" all raise FamilyParseError.
    """
    parser = _Parser(_tokenize(text))
    tok = parser.peek()
    if tok.kind == "NUMBER" and tok.text == "1":
        parser.next()
        exps: dict[int, int] = {}
    else:
        kind, _, exps = parser.parse_term()
        if kind is not None:
            raise FamilyParseError("a monomial takes no coefficient or sign", tok.line, tok.col)
    if parser.peek().kind != "END":
        parser.fail("trailing input after monomial")
    return _Parser.monomial(exps, n)


def parse_x_polynomial(text: str, n: int) -> dict[Monomial, Fraction]:
    """Parse a rational-coefficient polynomial such as "2*x1^2*x2 - 1/3*x2^3"."""
    parser = _Parser(_tokenize(text))
    terms: dict[Monomial, Fraction] = {}
    sign = Fraction(1)
    tok = parser.peek()
    if tok.kind == "OP" and tok.text in "+-":
        parser.next()
        sign = Fraction(-1) if tok.text == "-" else Fraction(1)
    while True:
        kind, payload, exps = parser.parse_term()
        if kind in ("a", "b"):
            parser.fail("polynomial coefficients must be rational literals")
        coeff = sign * (payload if kind == "num" else Fraction(1))
        key = _Parser.monomial(exps, n)
        total = terms.get(key, Fraction(0)) + coeff
        if total:
            terms[key] = total
        elif key in terms:
            del terms[key]
        tok = parser.peek()
        if tok.kind == "OP" and tok.text in "+-":
            parser.next()
            sign = Fraction(-1) if tok.text == "-" else Fraction(1)
            continue
        if tok.kind == "END":
            break
        parser.fail(f"unexpected {tok.text!r} in polynomial")
    return terms
