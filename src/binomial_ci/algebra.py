"""Exact arithmetic core: monomials, coefficient monomials, sparse polynomials.

All values are immutable and all arithmetic is exact: integers are arbitrary
precision and scalars are rational.  Polynomials in the coefficient symbols
live in Q[a1..an, b1..bn]; exponent vectors store the a-block first, then the
b-block.  The canonical term order is graded lex (total degree first, then the
exponent tuple compared a1, .., an, b1, .., bn), fixed once so that every
printed polynomial is byte-reproducible.

Validation happens at the API boundary.  The public constructors
`Monomial(exps)`, `CoeffMonomial(...)` and `SparsePoly(n, terms)` check
everything they are given: exponents through `as_int`, coefficients through
`as_fraction`.  `Monomial._raw`, `CoeffMonomial._raw` and `SparsePoly._raw` build
a value unchecked; they are internal, and only for values derived from
already checked ones (products, quotients, graph successors, label counts of
graph paths, sums of polynomials).

Terms are summed one way: each key's rationals are added up in one dict,
and the zero sums are dropped once, at the end.  SparsePoly's constructor,
sum, product and `substitute`, `group_flat_terms`, `keys._nonzero`,
`rewrite.reduce_polynomial` and `family.parse_x_polynomial` all do so; only
`poly_divides` deletes a cancelled key as it goes, since its max must never
meet a zero entry.  Symbols print one way: `_render_symbols` renders the
positive exponents of a key and `_term` puts a rational in front, for
`SparsePoly.__str__` and for `CoeffMonomial.__str__`, whose denominator is
its negated exponents rendered again.

One routine, `_put_values`, puts values into the symbols: the evaluate and
substitute methods of CoeffMonomial and SparsePoly and the dual generator's
coefficients all call it on flat (symbol exponents, rational) terms.

The exact identity checks end in one flat dict that maps (outer exponents,
symbol exponents) to a rational, int while integral.
`rewrite.check_certificate`, `dual.verify_annihilation` and
`dual.apply_action` accumulate under packed int keys and unpack only the
nonzero entries into it.  `group_flat_terms` turns it back into one
SparsePoly per outer key.

The form layer closes the module: a form in X is a mapping from monomials or
exponent tuples to coefficients, which `normalize_terms` checks and
`numeric_form` reads as (terms, n, degree), and CONTRACTION and
DIFFERENTIATION name the two actions of x on it.  `dual` acts on these forms
on packed keys, `oracle` and `lefschetz` rank them, and `reference` checks
both on tuples; `dual` re-exports the layer.  The rank oracles read a form as
`_Terms`, coprime integer terms hashed once, and an evaluated dual generator
is an `EvaluatedForm`, a read-only mapping that keeps its dual, so that they
can read its integer form from the dual's in-tree.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, neg, sub
from collections.abc import Iterable, Mapping
from typing import Union

Rational = Union[Fraction, int, str]
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")  # the string form of a Rational


def shown(value) -> str:
    """repr(value) for an error message, or only its type and length when the
    repr is longer than 40 characters, so that a huge input gives one short
    line."""
    text = repr(value)
    if len(text) <= 40:
        return text
    return f"a {type(value).__name__} of {len(value) if isinstance(value, str) else len(text)} characters"


def as_fraction(value: Rational) -> Fraction:
    """Coerce an int, a Fraction or a "[+-]digits[/digits]" string to an
    exact rational.  Other strings (decimals, exponents: Fraction("1e3000000")
    builds a 3-million-digit int) and zero denominators raise ValueError;
    other types, floats and bools included, raise TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{shown(value)} has a zero denominator") from None
    kind = ValueError if isinstance(value, str) else TypeError
    raise kind(f'{shown(value)} is not an exact rational (an int or a "p/q" string)')


def as_int(value) -> int:
    """value when it is an int but not a bool, for exponents, degrees and
    counts; ValueError otherwise (int() would truncate 2.7 and parse "3")."""
    if type(value) is not int:
        raise ValueError(f"{shown(value)} is not an integer")
    return value


@dataclass(frozen=True)
class Monomial:
    """A monomial x1^e1 * ... * xn^en, stored as its exponent vector."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exps = tuple(map(as_int, self.exponents))
        if any(e < 0 for e in exps):
            raise ValueError("monomial exponents must be nonnegative")
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def _raw(cls, exps: tuple[int, ...]) -> Monomial:
        """Unchecked: exps must be a tuple of nonnegative ints."""
        m = object.__new__(cls)
        object.__setattr__(m, "exponents", exps)
        return m

    @classmethod
    def one(cls, n: int) -> Monomial:
        return cls((0,) * n)

    @classmethod
    def variable(cls, n: int, i: int, power: int = 1) -> Monomial:
        """x_i^power in n variables; i is 1-based."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        return cls(tuple(power if j == i - 1 else 0 for j in range(n)))

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def _check(self, other: Monomial) -> None:
        if self.n != other.n:
            raise ValueError("monomials live in different variable counts")

    def __mul__(self, other: Monomial) -> Monomial:
        self._check(other)
        return Monomial._raw(tuple(map(add, self.exponents, other.exponents)))

    def divides(self, other: Monomial) -> bool:
        self._check(other)
        return all(x <= y for x, y in zip(self.exponents, other.exponents))

    def __truediv__(self, other: Monomial) -> Monomial:
        self._check(other)
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial._raw(tuple(map(sub, self.exponents, other.exponents)))

    def render(self, symbol: str = "x") -> str:
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"{symbol}{i + 1}")
            elif e > 1:
                parts.append(f"{symbol}{i + 1}^{e}")
        return "*".join(parts) if parts else "1"

    def __str__(self) -> str:
        return self.render()


# The most degree-d monomials any one request may enumerate: 2,000,000 take
# a few seconds to list in pure Python, and everything built on them (graph
# vertices, Macaulay columns) is larger still.
MONOMIAL_BUDGET = 2_000_000


def check_monomial_budget(n: int, d: int, *, cumulative: bool = False) -> None:
    """Raise ValueError when the binomial(d + n - 1, n - 1) monomials of
    degree d in n variables exceed MONOMIAL_BUDGET; cumulative counts the
    binomial(d + n, n) monomials of every degree 0..d instead."""
    count = math.comb(d + n, n) if cumulative else math.comb(d + n - 1, n - 1)
    if count > MONOMIAL_BUDGET:
        degree = f"degree at most {d}" if cumulative else f"degree {d}"
        raise ValueError(f"{count} monomials of {degree} in {n} variables exceed the budget of {MONOMIAL_BUDGET}")


def exponents_of_degree(n: int, d: int) -> list[tuple[int, ...]]:
    """All degree-d exponent vectors in n variables, in descending lex order.

    The count is binomial(d + n - 1, n - 1); x1-heavy vectors come first.
    A count above MONOMIAL_BUDGET raises ValueError before any is built.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    check_monomial_budget(n, d)
    # Step like an odometer, without recursion: the next exponent vector in
    # descending lex order moves one unit out of e[j], the rightmost nonzero
    # entry before the last, and puts it together with the last entry into
    # e[j + 1].
    e = [d] + [0] * (n - 1)
    out = [tuple(e)]
    last = n - 1
    j = 0 if last and d else -1
    while j >= 0:
        rest = e[last]
        e[last] = 0
        e[j] -= 1
        e[j + 1] = rest + 1
        out.append(tuple(e))
        if j + 1 < last:
            j += 1
        else:
            while j >= 0 and not e[j]:
                j -= 1
    return out


def monomials_of_degree(n: int, d: int) -> list[Monomial]:
    """The monomials of `exponents_of_degree(n, d)`, in its order."""
    return list(map(Monomial._raw, exponents_of_degree(n, d)))


def multinomial(d: int, alpha: Iterable[int]) -> int:
    """The multinomial coefficient d! / (alpha_1! * ... * alpha_n!)."""
    parts = tuple(map(as_int, alpha))
    if any(a < 0 for a in parts):
        raise ValueError("multinomial entries must be nonnegative")
    if sum(parts) != d:
        raise ValueError(f"multinomial degree mismatch: sum{parts} != {d}")
    return math.factorial(d) // exponent_factorial(parts)


def exponent_factorial(alpha: Iterable[int]) -> int:
    """alpha! = alpha_1! * ... * alpha_n!: X^alpha -> alpha! X^alpha turns
    differentiation into contraction."""
    return math.prod(map(math.factorial, alpha))


def _power(value: Fraction, e: int) -> tuple[int, int]:
    """(numerator, denominator) of value**e; 0**e for e < 0 raises."""
    if e < 0 and not value:
        raise ZeroDivisionError("zero substituted into a negative exponent")
    num, den = value.as_integer_ratio()
    return (num**e, den**e) if e >= 0 else (den**-e, num**-e)


def _put_values(terms: Iterable[tuple], n: int, a_vals: Iterable, b_vals: Iterable) -> Iterable[tuple]:
    """The (symbol exponents, rational) terms in n symbol pairs, in order and
    zeros included, with the values put in (one per symbol, None for a free
    one, else ValueError): a fixed symbol's exponent e drops to 0 and the term
    gains value**e, ZeroDivisionError for 0**e with e < 0.  Integer powers come
    from one table per call and symbol, keyed by e; each term makes one
    Fraction, and integral results are ints.  With no symbol fixed, terms come
    back as given."""
    a_vals, b_vals = list(a_vals), list(b_vals)
    if len(a_vals) != n or len(b_vals) != n:
        raise ValueError(f"need {n} a-values and {n} b-values, got {len(a_vals)} and {len(b_vals)}")
    values = a_vals + b_vals
    fixed = [(i, as_fraction(v), {}) for i, v in enumerate(values) if v is not None]
    if not fixed:
        return terms
    free = [int(v is None) for v in values]  # keeps the exponents of free symbols
    zero = None if any(free) else (0,) * len(values)  # every symbol fixed
    out = []
    for sym, q in terms:
        num, den = q.as_integer_ratio()
        for i, value, powers in fixed:
            e = sym[i]
            if e:
                try:
                    pn, pd = powers[e]
                except KeyError:
                    pn, pd = powers[e] = _power(value, e)
                num, den = num * pn, den * pd
        out.append((zero or tuple(map(mul, sym, free)), Fraction(num, den) if den != 1 else num))
    return out


@dataclass(frozen=True)
class CoeffMonomial:
    """An exact rational times a Laurent monomial in a1..an, b1..bn.

    Exponents may be negative (rewriting coefficients divide by a-powers).
    The zero value is canonical: scalar 0 forces all exponents to 0.
    """

    scalar: Fraction
    a_exp: tuple[int, ...]
    b_exp: tuple[int, ...]

    def __post_init__(self) -> None:
        scalar = as_fraction(self.scalar)
        a_exp = tuple(map(as_int, self.a_exp))
        b_exp = tuple(map(as_int, self.b_exp))
        if len(a_exp) != len(b_exp):
            raise ValueError("a- and b-exponent blocks must have equal length")
        if scalar == 0:
            a_exp = (0,) * len(a_exp)
            b_exp = (0,) * len(b_exp)
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "a_exp", a_exp)
        object.__setattr__(self, "b_exp", b_exp)

    @classmethod
    def _raw(cls, scalar: Fraction, a_exp: tuple[int, ...], b_exp: tuple[int, ...]) -> CoeffMonomial:
        """Unchecked: scalar must be a nonzero Fraction and a_exp, b_exp int
        tuples of equal length."""
        cm = object.__new__(cls)
        object.__setattr__(cm, "scalar", scalar)
        object.__setattr__(cm, "a_exp", a_exp)
        object.__setattr__(cm, "b_exp", b_exp)
        return cm

    @classmethod
    def constant(cls, n: int, value: Rational) -> CoeffMonomial:
        return cls(as_fraction(value), (0,) * n, (0,) * n)

    @classmethod
    def one(cls, n: int) -> CoeffMonomial:
        return cls.constant(n, 1)

    @classmethod
    def zero(cls, n: int) -> CoeffMonomial:
        return cls.constant(n, 0)

    @property
    def n(self) -> int:
        return len(self.a_exp)

    def is_zero(self) -> bool:
        return self.scalar == 0

    def __mul__(self, other: CoeffMonomial | Rational) -> CoeffMonomial:
        if not isinstance(other, CoeffMonomial):
            return CoeffMonomial(self.scalar * as_fraction(other), self.a_exp, self.b_exp)
        if self.n != other.n:
            raise ValueError("mismatched symbol counts")
        return CoeffMonomial(
            self.scalar * other.scalar,
            tuple(x + y for x, y in zip(self.a_exp, other.a_exp)),
            tuple(x + y for x, y in zip(self.b_exp, other.b_exp)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other: CoeffMonomial) -> CoeffMonomial:
        if other.is_zero():
            raise ZeroDivisionError("division by the zero coefficient monomial")
        inv = CoeffMonomial(
            1 / other.scalar,
            tuple(-x for x in other.a_exp),
            tuple(-x for x in other.b_exp),
        )
        return self * inv

    def evaluate(self, a_vals: Iterable[Rational], b_vals: Iterable[Rational]) -> Fraction:
        """The value at one rational per symbol (None raises TypeError)."""
        return self.substitute(map(as_fraction, a_vals), map(as_fraction, b_vals)).scalar

    def substitute(self, a_vals: Iterable[Rational | None], b_vals: Iterable[Rational | None]) -> CoeffMonomial:
        """Replace the given symbols by values; None entries stay symbolic."""
        n = self.n
        ((sym, value),) = _put_values([(self.a_exp + self.b_exp, self.scalar)], n, a_vals, b_vals)
        return CoeffMonomial(value, sym[:n], sym[n:])

    def to_sparse(self) -> SparsePoly:
        """View as a SparsePoly; fails on negative (Laurent) exponents."""
        n = _checked_n(self.n)
        key = self.a_exp + self.b_exp
        if min(key) < 0:
            raise ValueError("Laurent exponents cannot be converted to a polynomial")
        return SparsePoly._raw(n, {key: self.scalar} if self.scalar else {})

    def __str__(self) -> str:
        if self.scalar == 0:
            return "0"
        key = self.a_exp + self.b_exp
        text = ("-" if self.scalar < 0 else "") + _term(abs(self.scalar), _render_symbols(key, self.n))
        if min(key) < 0:
            text += f"/({_render_symbols(tuple(map(neg, key)), self.n)})"
        return text


def _checked_n(n: int) -> int:
    if n < 1:
        raise ValueError("need at least one symbol pair")
    return n


def _term_sort_key(key: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(key), key)


def _render_symbols(key: tuple[int, ...], n: int) -> str:
    """The positive exponents of a 2n-entry key as "a1^2*b3"; "" when there
    is none."""
    parts = []
    for i, e in enumerate(key):
        if e <= 0:
            continue
        sym = f"a{i + 1}" if i < n else f"b{i - n + 1}"
        parts.append(sym if e == 1 else f"{sym}^{e}")
    return "*".join(parts)


def _term(mag: Fraction, symbols: str) -> str:
    """A nonnegative rational times rendered symbols: "2*a1", "a1" at 1, the
    rational alone when there is no symbol."""
    if not symbols:
        return str(mag)
    return symbols if mag == 1 else f"{mag}*{symbols}"


class SparsePoly:
    """Sparse polynomial over Q in the 2n symbols a1..an, b1..bn.

    Terms map 2n-entry exponent tuples (a-block then b-block) to nonzero
    rationals.  Addition and multiplication are exact; no floating point.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping | Iterable | None = None):
        self.n = _checked_n(n)
        acc: dict[tuple[int, ...], Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for key, coeff in items:
                coeff = as_fraction(coeff)
                key = tuple(map(as_int, key))  # checked even under a zero coefficient
                if len(key) != 2 * n:
                    raise ValueError(f"exponent vector must have length {2 * n}")
                if any(e < 0 for e in key):
                    raise ValueError("polynomial exponents must be nonnegative")
                acc[key] = acc.get(key, 0) + coeff
        self.terms = {key: c for key, c in acc.items() if c}

    @classmethod
    def _raw(cls, n: int, terms: dict[tuple[int, ...], Fraction]) -> SparsePoly:
        """Unchecked: terms must map 2n-entry nonnegative int tuples to
        nonzero Fractions, and the dict becomes the polynomial's own."""
        poly = object.__new__(cls)
        poly.n = n
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls, n: int) -> SparsePoly:
        return cls._raw(_checked_n(n), {})

    @classmethod
    def one(cls, n: int) -> SparsePoly:
        return cls.constant(n, 1)

    @classmethod
    def constant(cls, n: int, value: Rational) -> SparsePoly:
        value = as_fraction(value)
        return cls._raw(_checked_n(n), {(0,) * (2 * n): value} if value else {})

    @classmethod
    def symbol_a(cls, n: int, i: int) -> SparsePoly:
        """The symbol a_i (1-based)."""
        key = tuple(1 if j == i - 1 else 0 for j in range(2 * n))
        return cls._raw(_checked_n(n), {key: Fraction(1)})

    @classmethod
    def symbol_b(cls, n: int, i: int) -> SparsePoly:
        key = tuple(1 if j == n + i - 1 else 0 for j in range(2 * n))
        return cls._raw(_checked_n(n), {key: Fraction(1)})

    @classmethod
    def monomial(cls, n: int, a_exp: Iterable[int], b_exp: Iterable[int], coeff: Rational = 1) -> SparsePoly:
        return cls(n, [(tuple(a_exp) + tuple(b_exp), coeff)])

    def _check(self, other: SparsePoly) -> None:
        if self.n != other.n:
            raise ValueError("polynomials live in different symbol counts")

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0,) * (2 * self.n)}

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def __add__(self, other: SparsePoly | Rational) -> SparsePoly:
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.n, other)
        self._check(other)
        acc = dict(self.terms)
        for key, coeff in other.terms.items():
            acc[key] = acc.get(key, 0) + coeff
        return SparsePoly._raw(self.n, {key: c for key, c in acc.items() if c})

    __radd__ = __add__

    def __neg__(self) -> SparsePoly:
        return SparsePoly._raw(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: SparsePoly | Rational) -> SparsePoly:
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other: Rational) -> SparsePoly:
        return SparsePoly.constant(self.n, other) - self

    def __mul__(self, other: SparsePoly | Rational) -> SparsePoly:
        if not isinstance(other, SparsePoly):
            value = as_fraction(other)
            return SparsePoly._raw(
                self.n, {k: c * value for k, c in self.terms.items()} if value else {}
            )
        self._check(other)
        small, large = (self.terms, other.terms)
        if len(small) > len(large):
            small, large = large, small
        acc: dict[tuple[int, ...], Fraction] = {}
        for k1, c1 in small.items():
            for k2, c2 in large.items():
                key = tuple(x + y for x, y in zip(k1, k2))
                acc[key] = acc.get(key, 0) + c1 * c2
        return SparsePoly._raw(self.n, {key: c for key, c in acc.items() if c})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> SparsePoly:
        if exponent < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = SparsePoly.one(self.n)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.n, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        """Graded-lex leading term (largest degree, then exponent tuple)."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        key = max(self.terms, key=_term_sort_key)
        return key, self.terms[key]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return [(k, self.terms[k]) for k in sorted(self.terms, key=_term_sort_key, reverse=True)]

    def evaluate(self, a_vals: Iterable[Rational], b_vals: Iterable[Rational]) -> Fraction:
        """The value at one rational per symbol (None raises TypeError)."""
        return self.substitute(map(as_fraction, a_vals), map(as_fraction, b_vals)).constant_value()

    def substitute(self, a_vals: Iterable[Rational | None], b_vals: Iterable[Rational | None]) -> SparsePoly:
        """Replace the given symbols by values; None entries stay symbolic."""
        acc: dict[tuple[int, ...], int | Fraction] = {}
        for key, value in _put_values(self.terms.items(), self.n, a_vals, b_vals):
            acc[key] = acc.get(key, 0) + value
        return SparsePoly._raw(self.n, {key: Fraction(c) for key, c in acc.items() if c})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        n = self.n
        parts = []
        for key, c in self.sorted_terms():
            parts += (" - " if c < 0 else " + ", _term(abs(c), _render_symbols(key, n)))
        parts[0] = "-" if parts[0] == " - " else ""  # the first term keeps only its minus
        return "".join(parts)

    def __repr__(self) -> str:
        return f"SparsePoly({self})"


FlatKey = tuple[tuple[int, ...], tuple[int, ...]]


def group_flat_terms(n: int, flat: Mapping[FlatKey, int | Fraction]) -> dict[tuple[int, ...], SparsePoly]:
    """{outer: SparsePoly in n symbol pairs} from flat terms that map
    (outer exponents, 2n-entry symbol exponents) to a rational.

    Zero totals are dropped, so an outer key appears only when some term of
    its coefficient is nonzero.
    """
    grouped: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
    for (outer, sym), c in flat.items():
        if c:
            grouped.setdefault(outer, {})[sym] = Fraction(c)
    return {outer: SparsePoly._raw(n, terms) for outer, terms in grouped.items()}


def poly_divides(p: SparsePoly, q: SparsePoly) -> bool:
    """Whether p divides q exactly in Q[a1..an, b1..bn].

    Decides by exact multivariate division in graded lex order.  Graded lex
    is a monomial order, so LT(p*h) = LT(p)*LT(h) for every nonzero h.  If p
    divides q, each remainder q - p*(partial quotient) is a multiple of p and
    its leading term is divisible by LT(p).  A division that gets stuck on a
    leading term therefore proves that p does not divide q, and one that
    reaches the zero remainder has found the quotient (Cox, Little and
    O'Shea, Ideals, Varieties, and Algorithms, section 2.3).
    """
    if p.is_zero():
        raise ZeroDivisionError("divisibility by the zero polynomial")
    if q.is_zero():
        return True
    p._check(q)
    lead_key, lead_coeff = p.leading_term()
    rem = dict(q.terms)
    while rem:
        rkey = max(rem, key=_term_sort_key)
        diff = tuple(x - y for x, y in zip(rkey, lead_key))
        if any(e < 0 for e in diff):
            return False
        factor = rem[rkey] / lead_coeff
        for pkey, pcoeff in p.terms.items():
            key = tuple(x + y for x, y in zip(diff, pkey))
            total = rem.get(key, Fraction(0)) - factor * pcoeff
            if total:
                rem[key] = total
            elif key in rem:
                del rem[key]
    return True


# The form layer: forms in X as {exponents: coefficient} terms, and the two
# actions of x on them.

CONTRACTION = "contraction"
DIFFERENTIATION = "differentiation"
_CONVENTIONS = (CONTRACTION, DIFFERENTIATION)

Exponents = tuple[int, ...]
Terms = dict[Exponents, Union[Fraction, SparsePoly]]


def check_convention(convention: str) -> None:
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention must be one of {_CONVENTIONS}")


def normalize_terms(terms, n: int | None = None) -> tuple[Terms, int | None]:
    """(terms, width): {monomial or exponent tuple: coefficient} with
    nonnegative exponent keys all of width n (default: the first key's), zero
    terms dropped, and each coefficient a SparsePoly or, through as_fraction,
    a Fraction."""
    out: Terms = {}
    for key, coeff in terms.items():
        if isinstance(key, Monomial):
            exps = key.exponents
        else:
            exps = tuple(key)
            if not all(type(e) is int and e >= 0 for e in exps):
                raise ValueError(f"exponent vector {exps} must hold nonnegative integers")
        if n is None:
            n = len(exps)
        elif len(exps) != n:
            raise ValueError(f"exponent vector {exps} does not have {n} entries")
        if isinstance(coeff, CoeffMonomial):
            coeff = coeff.to_sparse()
        if isinstance(coeff, SparsePoly):
            if coeff.is_zero():
                continue
        else:
            coeff = as_fraction(coeff)
            if not coeff:
                continue
        out[exps] = coeff
    return out, n


def numeric_form(F) -> tuple[dict[Exponents, Fraction], int, int]:
    """(terms, n, degree) of a nonzero homogeneous form with rational
    coefficients."""
    terms, n = normalize_terms(F)
    if any(isinstance(c, SparsePoly) for c in terms.values()):
        raise TypeError("the form needs rational coefficients")
    if not terms:
        raise ValueError("the zero form has no inverse system")
    degrees = {sum(k) for k in terms}
    if len(degrees) != 1:
        raise ValueError("the form must be homogeneous")
    return terms, n, degrees.pop()


class _Terms(dict):
    """Integer {exponents: coefficient} terms hashed by content, once: never
    mutated, so the hash an `oracle._contraction_basis` lookup reads is its
    own."""

    __slots__ = ("_hash",)

    def __init__(self, terms: Mapping[Exponents, int]):
        super().__init__(terms)
        self._hash = hash(frozenset(self.items()))

    def __hash__(self) -> int:
        return self._hash


class EvaluatedForm(Mapping):
    """A form {exponents: Fraction} at a family's values, read-only, that keeps
    the dual generator it was evaluated from (`dual.DualGenerator.evaluate`
    fills it).  It equals the dict of its nonzero terms, which `build` makes
    on first read, once.

    Its readers in the oracles go through its dual instead where they can:
    `oracle._integer_form` takes the dual's coprime integer form, built from
    its in-tree, and `dual.verify_annihilation` checks the dual itself
    against its own family and convention."""

    __slots__ = ("dual", "_build", "_terms")

    def __init__(self, dual, build) -> None:
        self.dual = dual
        self._build = build
        self._terms: dict[Exponents, Fraction] | None = None

    def _read(self) -> dict[Exponents, Fraction]:
        if self._terms is None:
            self._terms = self._build()
        return self._terms

    def __getitem__(self, key) -> Fraction:
        return self._read()[key]

    def __iter__(self):
        return iter(self._read())

    def __len__(self) -> int:
        return len(self._read())

    def items(self):  # the dict's own view, in C, for `normalize_terms`
        return self._read().items()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._read()!r})"


def as_point(ell: Iterable, n: int) -> list[Fraction]:
    """ell as n exact rationals, a point for the X-variables; a float raises
    TypeError."""
    values = [as_fraction(c) for c in ell]
    if len(values) != n:
        raise ValueError("need one value per variable")
    return values
