"""Exact arithmetic core: monomials, coefficient monomials, sparse polynomials.

All values are immutable and all arithmetic is exact: integers are arbitrary
precision and scalars are rational.  Polynomials in the coefficient symbols
live in Q[a1..an, b1..bn]; exponent vectors store the a-block first, then the
b-block.  The canonical term order is graded lex (total degree first, then the
exponent tuple compared a1, .., an, b1, .., bn), fixed once so that every
printed polynomial is byte-reproducible.

Validation happens at the API boundary.  The public constructors
`Monomial(exps)` and `SparsePoly(n, terms)` check and coerce everything they
are given.  `Monomial._raw`, `CoeffMonomial._raw` and `SparsePoly._raw` build
a value unchecked; they are internal, and only for values derived from
already checked ones (products, quotients, graph successors, label counts of
graph paths, sums of polynomials).

The exact identity checks end in one flat dict that maps (outer exponents,
symbol exponents) to a rational, int while integral.  `rewrite.check_certificate`
accumulates into it directly; `dual.verify_annihilation` and
`dual.apply_action` accumulate under packed int keys and unpack only the
nonzero entries into it.  `group_flat_terms` turns it back into one
SparsePoly per outer key.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Mapping, Union

Rational = Union[Fraction, int, str]
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")  # the string form of a Rational


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
            raise ValueError(f"{value!r} has a zero denominator") from None
    kind = ValueError if isinstance(value, str) else TypeError
    raise kind(f'{value!r} is not an exact rational (an int or a "p/q" string)')


@dataclass(frozen=True)
class Monomial:
    """A monomial x1^e1 * ... * xn^en, stored as its exponent vector."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exps = tuple(int(e) for e in self.exponents)
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


def check_monomial_budget(n: int, d: int) -> None:
    """Raise ValueError when the binomial(d + n - 1, n - 1) monomials of
    degree d in n variables exceed MONOMIAL_BUDGET."""
    count = math.comb(d + n - 1, n - 1)
    if count > MONOMIAL_BUDGET:
        raise ValueError(
            f"{count} monomials of degree {d} in {n} variables exceed the budget of {MONOMIAL_BUDGET}"
        )


def monomials_of_degree(n: int, d: int) -> list[Monomial]:
    """All degree-d monomials in n variables, in descending lex order.

    The count is binomial(d + n - 1, n - 1); x1-heavy monomials come first.
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
    out = [Monomial._raw(tuple(e))]
    last = n - 1
    j = 0 if last and d else -1
    while j >= 0:
        rest = e[last]
        e[last] = 0
        e[j] -= 1
        e[j + 1] = rest + 1
        out.append(Monomial._raw(tuple(e)))
        if j + 1 < last:
            j += 1
        else:
            while j >= 0 and not e[j]:
                j -= 1
    return out


def multinomial(d: int, alpha: Iterable[int]) -> int:
    """The multinomial coefficient d! / (alpha_1! * ... * alpha_n!)."""
    parts = tuple(int(a) for a in alpha)
    if any(a < 0 for a in parts):
        raise ValueError("multinomial entries must be nonnegative")
    if sum(parts) != d:
        raise ValueError(f"multinomial degree mismatch: sum{parts} != {d}")
    result = math.factorial(d)
    for a in parts:
        result //= math.factorial(a)
    return result


def falling_product(alpha: Iterable[int], gamma: Iterable[int]) -> int:
    """prod_i alpha_i * (alpha_i - 1) * ... * (alpha_i - gamma_i + 1).

    The factor that differentiating X^alpha by x^gamma puts in front of
    X^(alpha - gamma).
    """
    out = 1
    for a, g in zip(alpha, gamma):
        for j in range(g):
            out *= a - j
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
        a_exp = tuple(int(x) for x in self.a_exp)
        b_exp = tuple(int(x) for x in self.b_exp)
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
        result = self.scalar
        if result == 0:
            return result
        for e, v in zip(self.a_exp, a_vals):
            if e:
                result *= as_fraction(v) ** e
        for e, v in zip(self.b_exp, b_vals):
            if e:
                result *= as_fraction(v) ** e
        return result

    def substitute(self, a_vals: Iterable[Rational | None], b_vals: Iterable[Rational | None]) -> CoeffMonomial:
        """Replace the given symbols by values; None entries stay symbolic."""
        scalar = self.scalar
        if scalar == 0:
            return self
        a_exp, b_exp = list(self.a_exp), list(self.b_exp)
        for exps, vals in ((a_exp, a_vals), (b_exp, b_vals)):
            for i, v in enumerate(vals):
                if v is None or not exps[i]:
                    continue
                value = as_fraction(v)
                if value == 0 and exps[i] < 0:
                    raise ZeroDivisionError("zero substituted into a negative exponent")
                scalar = scalar * value ** exps[i] if value else Fraction(0)
                exps[i] = 0
        return CoeffMonomial(scalar, tuple(a_exp), tuple(b_exp))

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
        num, den = [], []
        for block, sym in ((self.a_exp, "a"), (self.b_exp, "b")):
            for i, e in enumerate(block):
                if e > 0:
                    num.append(f"{sym}{i + 1}" + (f"^{e}" if e > 1 else ""))
                elif e < 0:
                    den.append(f"{sym}{i + 1}" + (f"^{-e}" if e < -1 else ""))
        sign = "-" if self.scalar < 0 else ""
        mag = abs(self.scalar)
        if not num:
            head = str(mag)
        elif mag == 1:
            head = "*".join(num)
        else:
            head = str(mag) + "*" + "*".join(num)
        if den:
            return f"{sign}{head}/(" + "*".join(den) + ")"
        return sign + head


def _checked_n(n: int) -> int:
    if n < 1:
        raise ValueError("need at least one symbol pair")
    return n


def _term_sort_key(key: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(key), key)


def _render_symbols(key: tuple[int, ...], n: int) -> str:
    parts = []
    for i, e in enumerate(key):
        if not e:
            continue
        sym = f"a{i + 1}" if i < n else f"b{i - n + 1}"
        parts.append(sym if e == 1 else f"{sym}^{e}")
    return "*".join(parts)


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
                if coeff == 0:
                    continue
                key = tuple(int(e) for e in key)
                if len(key) != 2 * n:
                    raise ValueError(f"exponent vector must have length {2 * n}")
                if any(e < 0 for e in key):
                    raise ValueError("polynomial exponents must be nonnegative")
                total = acc.get(key, Fraction(0)) + coeff
                if total:
                    acc[key] = total
                elif key in acc:
                    del acc[key]
        self.terms = acc

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
            total = acc.get(key, Fraction(0)) + coeff
            if total:
                acc[key] = total
            elif key in acc:
                del acc[key]
        return SparsePoly._raw(self.n, acc)

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
                total = acc.get(key, Fraction(0)) + c1 * c2
                if total:
                    acc[key] = total
                elif key in acc:
                    del acc[key]
        return SparsePoly._raw(self.n, acc)

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
        vals = [as_fraction(v) for v in a_vals] + [as_fraction(v) for v in b_vals]
        if len(vals) != 2 * self.n:
            raise ValueError("need one value per symbol")
        total = Fraction(0)
        for key, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, key):
                if e:
                    term *= v**e
            total += term
        return total

    def substitute(self, a_vals: Iterable[Rational | None], b_vals: Iterable[Rational | None]) -> SparsePoly:
        """Replace the given symbols by values; None entries stay symbolic."""
        vals = list(a_vals) + list(b_vals)
        if len(vals) != 2 * self.n:
            raise ValueError("need one entry per symbol")
        fixed = [(i, as_fraction(v)) for i, v in enumerate(vals) if v is not None]
        acc: dict[tuple[int, ...], Fraction] = {}
        for key, coeff in self.terms.items():
            hits = [(i, v) for i, v in fixed if key[i]]
            if hits:
                new_key = list(key)
                for i, v in hits:
                    coeff = coeff * v ** key[i]
                    new_key[i] = 0
                key = tuple(new_key)
            total = acc[key] + coeff if key in acc else coeff
            if total:
                acc[key] = total
            elif key in acc:
                del acc[key]
        return SparsePoly._raw(self.n, acc)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in self.sorted_terms():
            syms = _render_symbols(key, self.n)
            mag = abs(coeff)
            if not syms:
                body = str(mag)
            elif mag == 1:
                body = syms
            else:
                body = f"{mag}*{syms}"
            if not parts:
                parts.append(("-" if coeff < 0 else "") + body)
            else:
                parts.append((" - " if coeff < 0 else " + ") + body)
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
