import math
import random
from fractions import Fraction

import pytest

from binomial_ci import algebra
from binomial_ci import (
    CoeffMonomial,
    Monomial,
    SparsePoly,
    monomials_of_degree,
    multinomial,
    poly_divides,
)


def sym(n, name):
    block, i = name[0], int(name[1:])
    return SparsePoly.symbol_a(n, i) if block == "a" else SparsePoly.symbol_b(n, i)


class TestMonomial:
    def test_multiplies_and_divides(self):
        m = Monomial((2, 0, 1))
        m2 = Monomial((1, 3, 0))
        assert (m * m2).exponents == (3, 3, 1)
        assert (m * m2) / m2 == m
        assert not m2.divides(m)

    def test_division_requires_divisibility(self):
        with pytest.raises(ValueError):
            Monomial((1, 0)) / Monomial((0, 1))

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            Monomial((1, -1))

    def test_rendering(self):
        assert str(Monomial((2, 0, 1))) == "x1^2*x3"
        assert str(Monomial((0, 0))) == "1"
        assert Monomial((1, 1)).render("X") == "X1*X2"

    def test_degree_handles_large_exponents(self):
        m = Monomial((10**30, 5))
        assert m.degree == 10**30 + 5


class TestMonomialEnumeration:
    def test_degree_four_in_three_variables_has_fifteen(self):
        assert len(monomials_of_degree(3, 4)) == 15

    def test_one_variable(self):
        assert monomials_of_degree(1, 5) == [Monomial((5,))]

    def test_degree_three_in_four_variables_counts_by_stars_and_bars(self):
        mons = monomials_of_degree(4, 3)
        assert len(mons) == 20
        assert len(set(mons)) == 20
        assert all(m.degree == 3 for m in mons)

    def test_descending_lex_order(self):
        mons = monomials_of_degree(3, 2)
        exps = [m.exponents for m in mons]
        assert exps == sorted(exps, reverse=True)
        assert exps[0] == (2, 0, 0)

    def test_counts_match_binomial(self):
        for n in range(1, 5):
            for d in range(0, 6):
                assert len(monomials_of_degree(n, d)) == math.comb(d + n - 1, n - 1)

    def test_order_matches_recursive_reference(self):
        def reference(n, d):
            if n == 1:
                return [(d,)]
            return [(e,) + rest for e in range(d, -1, -1) for rest in reference(n - 1, d - e)]

        for n, d in [(1, 0), (1, 5), (2, 0), (3, 4), (5, 9), (6, 7), (8, 4)]:
            assert [m.exponents for m in monomials_of_degree(n, d)] == reference(n, d)

    def test_many_variables_do_not_recurse(self):
        mons = monomials_of_degree(1500, 1)
        assert len(mons) == 1500
        assert mons[0].exponents == (1,) + (0,) * 1499
        assert mons[-1].exponents == (0,) * 1499 + (1,)


    def test_budget_is_checked_before_enumeration(self, monkeypatch):
        with pytest.raises(ValueError, match="budget"):
            monomials_of_degree(8, 60)  # C(67, 7), about 8.7e8 monomials
        monkeypatch.setattr(algebra, "MONOMIAL_BUDGET", 15)
        assert len(monomials_of_degree(3, 4)) == 15
        with pytest.raises(ValueError, match="21 monomials of degree 5 in 3 variables exceed the budget of 15"):
            monomials_of_degree(3, 5)


class TestMultinomial:
    def test_known_values(self):
        assert multinomial(3, (1, 1, 1)) == 6
        assert multinomial(3, (2, 1, 0)) == 3
        assert multinomial(5, (5, 0, 0)) == 1

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            multinomial(4, (1, 1, 1))

    def test_grows_exactly(self):
        assert multinomial(60, (20, 20, 20)) == math.factorial(60) // math.factorial(20) ** 3


class TestCoeffMonomial:
    def test_multiplication_adds_exponents(self):
        u = CoeffMonomial(Fraction(2), (1, 0), (0, 2))
        v = CoeffMonomial(Fraction(3, 4), (0, 1), (1, -2))
        w = u * v
        assert w.scalar == Fraction(3, 2)
        assert w.a_exp == (1, 1)
        assert w.b_exp == (1, 0)
        assert u * v == v * u

    def test_canonical_zero(self):
        z = CoeffMonomial(Fraction(0), (3, 1), (0, -2))
        assert z == CoeffMonomial.zero(2)
        assert z.a_exp == (0, 0)

    def test_division_and_evaluation(self):
        coeff = CoeffMonomial.one(2) / CoeffMonomial(Fraction(1), (2, 1), (0, 0))
        coeff = coeff * CoeffMonomial(Fraction(1), (0, 0), (2, 1))
        # b1^2*b2 / (a1^2*a2)
        assert str(coeff) == "b1^2*b2/(a1^2*a2)"
        value = coeff.evaluate([Fraction(2), Fraction(3)], [Fraction(1), Fraction(6)])
        assert value == Fraction(6, 12)

    def test_substitute_partial(self):
        coeff = CoeffMonomial(Fraction(5), (1, -1), (2, 0))
        out = coeff.substitute([None, Fraction(2)], [Fraction(3), None])
        assert out.scalar == Fraction(5 * 9, 2)
        assert out.a_exp == (1, 0)
        assert out.b_exp == (0, 0)

    def test_substituting_zero_into_positive_power_gives_zero(self):
        coeff = CoeffMonomial(Fraction(1), (0, 0), (1, 0))
        assert coeff.substitute([None, None], [Fraction(0), None]).is_zero()

    def test_to_sparse_rejects_laurent(self):
        with pytest.raises(ValueError):
            CoeffMonomial(Fraction(1), (-1, 0), (0, 0)).to_sparse()

    def test_rendering(self):
        assert str(CoeffMonomial(Fraction(6), (2, 1, 1), (0, 0, 0))) == "6*a1^2*a2*a3"
        assert str(CoeffMonomial(Fraction(-3, 2), (0, 0), (1, 0))) == "-3/2*b1"
        assert str(CoeffMonomial.one(2)) == "1"


class TestSparsePoly:
    def test_zero_coefficients_never_stored(self):
        p = sym(2, "a1") - sym(2, "a1")
        assert p.is_zero()
        assert p.terms == {}

    def test_printing_canonical_order(self):
        n = 3
        p = sym(n, "a2") * sym(n, "a3") - sym(n, "b2") * sym(n, "b3")
        assert str(p) == "a2*a3 - b2*b3"
        assert str(p * p) == "a2^2*a3^2 - 2*a2*a3*b2*b3 + b2^2*b3^2"
        assert str(SparsePoly.one(n)) == "1"
        assert str(SparsePoly.zero(n)) == "0"

    def test_pow_matches_repeated_multiplication(self):
        p = sym(2, "a1") + 2 * sym(2, "b2") - 1
        q = SparsePoly.one(2)
        for _ in range(4):
            q = q * p
        assert p**4 == q
        assert p**0 == SparsePoly.one(2)

    def test_ring_axioms_on_random_triples(self):
        rng = random.Random(7)

        def rand_poly():
            terms = []
            for _ in range(rng.randint(0, 5)):
                key = tuple(rng.randint(0, 2) for _ in range(4))
                terms.append((key, Fraction(rng.randint(-4, 4), rng.randint(1, 4))))
            return SparsePoly(2, terms)

        for _ in range(40):
            p, q, r = rand_poly(), rand_poly(), rand_poly()
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p + q == q + p
            assert p * q == q * p

    def test_evaluate_and_substitute_agree(self):
        rng = random.Random(9)
        p = sym(2, "a1") * sym(2, "b2") ** 2 - 3 * sym(2, "a2")
        a = [Fraction(rng.randint(1, 5)) for _ in range(2)]
        b = [Fraction(rng.randint(1, 5)) for _ in range(2)]
        full = p.substitute(a, b)
        assert full.is_constant()
        assert full.constant_value() == p.evaluate(a, b)
        partial = p.substitute([a[0], None], [None, None])
        assert partial.substitute([None, a[1]], b).constant_value() == p.evaluate(a, b)


class TestPolyDivides:
    def test_factor_divides_square(self):
        n = 3
        p = sym(n, "a2") * sym(n, "a3") - sym(n, "b2") * sym(n, "b3")
        assert poly_divides(p, p * p)

    def test_symbol_does_not_divide_binomial(self):
        n = 2
        q = sym(n, "a1") * sym(n, "a2") - sym(n, "b1") * sym(n, "b2")
        assert not poly_divides(sym(n, "a1"), q)

    def test_difference_of_squares(self):
        n = 2
        p = sym(n, "a1") * sym(n, "a2") - sym(n, "b1") * sym(n, "b2")
        q = sym(n, "a1") ** 2 * sym(n, "a2") ** 2 - sym(n, "b1") ** 2 * sym(n, "b2") ** 2
        assert poly_divides(p, q)
        assert q == p * (sym(n, "a1") * sym(n, "a2") + sym(n, "b1") * sym(n, "b2"))

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            poly_divides(SparsePoly.zero(2), SparsePoly.one(2))

    def test_everything_divides_zero(self):
        assert poly_divides(sym(2, "a1"), SparsePoly.zero(2))

    def test_random_products_divide(self):
        rng = random.Random(3)
        for _ in range(20):
            terms_p = [
                (tuple(rng.randint(0, 2) for _ in range(4)), rng.randint(-3, 3))
                for _ in range(rng.randint(1, 3))
            ]
            terms_h = [
                (tuple(rng.randint(0, 2) for _ in range(4)), rng.randint(-3, 3))
                for _ in range(rng.randint(1, 3))
            ]
            p, h = SparsePoly(2, terms_p), SparsePoly(2, terms_h)
            if p.is_zero():
                continue
            assert poly_divides(p, p * h)
            if not h.is_zero() and not (p * h + 1).is_zero():
                # adding 1 to a product with positive degree breaks divisibility
                if (p * h).total_degree() > 0 and p.total_degree() > 0:
                    assert not poly_divides(p, p * h + 1)


def test_poly_divides_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    n = 2
    symbols = sympy.symbols("a1 a2 b1 b2")
    rng = random.Random(20261017)

    def random_poly(max_terms, max_exp):
        return SparsePoly(
            n,
            [
                (tuple(rng.randint(0, max_exp) for _ in range(2 * n)), rng.randint(-3, 3))
                for _ in range(rng.randint(1, max_terms))
            ],
        )

    def to_sympy(p):
        return sympy.Poly.from_dict(
            {key: sympy.Rational(c.numerator, c.denominator) for key, c in p.terms.items()},
            symbols,
            domain="QQ",
        )

    outcomes = {True: 0, False: 0}
    for _ in range(120):
        p, h, r = random_poly(3, 2), random_poly(3, 2), random_poly(2, 3)
        if p.is_zero():
            continue
        for q in (p * h, p * h + r):
            if q.is_zero():
                continue
            sp = to_sympy(p)
            # p | q exactly when gcd(p, q) is p up to a scalar.
            expected = sp.gcd(to_sympy(q)).monic() == sp.monic()
            assert poly_divides(p, q) == expected, (p, q)
            outcomes[expected] += 1
    # Every "no" answer comes from a division stuck on a leading term.
    assert outcomes[True] > 50 and outcomes[False] > 50


class TestBoundaryValidation:
    """The public constructors check everything; the unchecked internal
    values they are compared with must be indistinguishable from checked ones."""

    def test_monomial_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            Monomial((1, -1))

    def test_sparse_poly_rejects_bad_keys(self):
        with pytest.raises(ValueError):
            SparsePoly(2, {(1, 0, 0): 1})  # needs 2n = 4 entries
        with pytest.raises(ValueError):
            SparsePoly(2, {(1, 0, 0, -1): 1})
        with pytest.raises(ValueError):
            SparsePoly(0)
        with pytest.raises(ValueError):
            SparsePoly.zero(0)
        with pytest.raises(ValueError):
            SparsePoly.constant(0, 1)

    def test_sparse_poly_coerces_and_drops_zeros(self):
        p = SparsePoly(1, {(1, 0): "3/2", (0, 1): 2, (1, 1): 0, (2, 0): "0"})
        assert p.terms == {(1, 0): Fraction(3, 2), (0, 1): Fraction(2)}
        assert all(type(c) is Fraction for c in p.terms.values())
        assert SparsePoly.constant(2, "1/2") == SparsePoly(2, {(0, 0, 0, 0): Fraction(1, 2)})

    def test_float_coefficients_raise_type_error(self):
        with pytest.raises(TypeError):
            SparsePoly(1, {(1, 0): 1.5})
        with pytest.raises(TypeError):
            SparsePoly.constant(1, 0.5)
        with pytest.raises(TypeError):
            sym(1, "a1") * 1.5
        with pytest.raises(TypeError):
            sym(1, "a1") + 1.5
        # bool subclasses int, but True is not the rational 1
        for value in (True, False):
            with pytest.raises(TypeError):
                SparsePoly.constant(1, value)

    def test_enumerated_monomials_equal_and_hash_like_checked_ones(self):
        for n, d in ((1, 3), (3, 4), (5, 2)):
            for m in monomials_of_degree(n, d):
                checked = Monomial(m.exponents)
                assert m == checked and hash(m) == hash(checked)
                assert type(m.exponents) is tuple
                assert all(type(e) is int for e in m.exponents)

    def test_products_and_quotients_equal_and_hash_like_checked_ones(self):
        rng = random.Random(11)
        for _ in range(50):
            x = Monomial(tuple(rng.randint(0, 3) for _ in range(4)))
            y = Monomial(tuple(rng.randint(0, 3) for _ in range(4)))
            product = x * y
            expected = Monomial(tuple(a + b for a, b in zip(x.exponents, y.exponents)))
            assert product == expected and hash(product) == hash(expected)
            assert product / y == x and hash(product / y) == hash(x)
            assert {product: 1}[expected] == 1

    def test_derived_polynomials_equal_and_hash_like_checked_ones(self):
        n = 2
        assert SparsePoly.constant(n, 0) == SparsePoly.zero(n) == SparsePoly(n)
        assert hash(SparsePoly.constant(n, 0)) == hash(SparsePoly.zero(n))
        p = sym(n, "a1") * sym(n, "b2") - 3 * sym(n, "a2") + "1/2"
        checked = SparsePoly(
            n, {(1, 0, 0, 1): 1, (0, 1, 0, 0): -3, (0, 0, 0, 0): Fraction(1, 2)}
        )
        assert p == checked and hash(p) == hash(checked)
        assert -p == SparsePoly(n, {k: -c for k, c in checked.terms.items()})
        assert p * 0 == SparsePoly.zero(n) and (p * 0).terms == {}
        assert (p - p).terms == {}
        cm = CoeffMonomial(Fraction(2), (1, 0), (0, 3))
        assert cm.to_sparse() == SparsePoly(n, {(1, 0, 0, 3): 2})
        assert CoeffMonomial.zero(n).to_sparse() == SparsePoly.zero(n)


class TestSubstitute:
    def test_colliding_keys_merge(self):
        n = 2
        p = sym(n, "a1") * sym(n, "b1") + 2 * sym(n, "a1")
        out = p.substitute([None, None], [Fraction(3), None])
        assert out.terms == {(1, 0, 0, 0): Fraction(5)}

    def test_collision_cancelling_to_zero_drops_the_key(self):
        n = 2
        p = sym(n, "a1") * sym(n, "b1") - 2 * sym(n, "a1") + sym(n, "a2")
        out = p.substitute([None, None], ["2", None])
        assert out.terms == {(0, 1, 0, 0): Fraction(1)}

    def test_substituted_zero_drops_terms(self):
        n = 2
        p = sym(n, "a1") * sym(n, "b2") ** 2 + sym(n, "a2")
        assert p.substitute([None, None], [None, 0]) == sym(n, "a2")
        assert p.substitute([None, 0], [None, 0]).is_zero()

    def test_matches_the_checked_constructor(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 3)
            pairs = [
                (tuple(rng.randint(0, 2) for _ in range(2 * n)), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                for _ in range(rng.randint(0, 6))
            ]
            p = SparsePoly(n, pairs)
            vals = [rng.choice([None, None, 0, 1, -2, Fraction(2, 3), "5/4"]) for _ in range(2 * n)]
            expected = []
            for key, coeff in p.terms.items():
                new_key = list(key)
                for i, v in enumerate(vals):
                    if v is not None:
                        coeff *= Fraction(v) ** key[i]
                        new_key[i] = 0
                expected.append((tuple(new_key), coeff))
            out = p.substitute(vals[:n], vals[n:])
            assert out == SparsePoly(n, expected)
            assert all(type(c) is Fraction and c for c in out.terms.values())

    def test_accepts_rational_text(self):
        p = sym(1, "a1") ** 2 * sym(1, "b1")
        assert p.substitute(["2/3"], [None]).terms == {(0, 1): Fraction(4, 9)}

    def test_rejects_floats(self):
        p = sym(2, "a1")
        with pytest.raises(TypeError):
            p.substitute([0.5, None], [None, None])
        with pytest.raises(TypeError):  # even for a symbol the polynomial lacks
            p.substitute([None, 0.5], [None, None])

    def test_rejects_a_wrong_number_of_values(self):
        p = sym(2, "a1")
        with pytest.raises(ValueError):
            p.substitute([1], [None, None])
        with pytest.raises(ValueError):
            p.substitute([1, 2], [None, None, None])


class TestAsFraction:
    @pytest.mark.parametrize("text, value", [("7", 7), ("-3/4", Fraction(-3, 4)), ("+2/6", Fraction(1, 3)), ("0", 0)])
    def test_integer_and_quotient_strings(self, text, value):
        assert algebra.as_fraction(text) == value

    @pytest.mark.parametrize("text", ["0.5", "1e5", "1e3000000", "1.", ".5", " 3", "3 ", "1_0", "3/", "/3", "inf", "\u0663", ""])
    def test_other_strings_are_rejected(self, text):
        with pytest.raises(ValueError, match="not an exact rational"):
            algebra.as_fraction(text)

    @pytest.mark.parametrize("text", ["1/0", "-5/000"])
    def test_zero_denominator(self, text):
        with pytest.raises(ValueError, match="zero denominator"):
            algebra.as_fraction(text)
