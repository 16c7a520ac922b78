import random
from fractions import Fraction

import pytest

from binomial_ci import BinomialFamily, CoeffMonomial, Monomial, is_complete_intersection, monomials_of_degree
from binomial_ci.catalog import (
    five_var_pentagon,
    five_var_pentagon_alt,
    three_var_chain,
    three_var_double_cycle,
    two_var_loop,
)
from binomial_ci.dual import numeric_form


@pytest.fixture
def double_cycle():
    return three_var_double_cycle()


@pytest.fixture
def chain():
    return three_var_chain()


@pytest.fixture
def loop2():
    return two_var_loop()


@pytest.fixture
def pentagon():
    return five_var_pentagon()


@pytest.fixture
def pentagon_alt():
    return five_var_pentagon_alt()


def random_nonzero(rng, bound=10):
    v = 0
    while v == 0:
        v = rng.randint(-bound, bound)
    return Fraction(v, rng.randint(1, bound))


def random_family(rng, numeric=True, n_range=(2, 4), max_degree=3):
    """A random valid family; coefficients are nonzero-a rationals when numeric."""
    n = rng.randint(*n_range)
    degrees = [rng.randint(1, max_degree) for _ in range(n)]
    tails = []
    for i in range(n):
        lead = Monomial.variable(n, i + 1, degrees[i]).exponents
        options = [m for m in monomials_of_degree(n, degrees[i]) if m.exponents != lead]
        tails.append(rng.choice(options))
    if not numeric:
        return BinomialFamily.symbolic(degrees, tails)
    a = [random_nonzero(rng) for _ in range(n)]
    b = [Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(n)]
    return BinomialFamily.numeric(degrees, tails, a, b)


def assert_as_checked(cm):
    """An unchecked coefficient monomial equals, field for field and type for
    type, the checked CoeffMonomial built from the same fields."""
    checked = CoeffMonomial(cm.scalar, cm.a_exp, cm.b_exp)
    assert cm == checked and hash(cm) == hash(checked)
    assert type(cm.scalar) is Fraction and cm.scalar != 0
    assert type(cm.a_exp) is tuple and type(cm.b_exp) is tuple
    assert all(type(e) is int for e in cm.a_exp + cm.b_exp)


@pytest.fixture(scope="session")
def ci_corpus():
    """25 random oracle-certified complete intersections with n <= 4, d_i <= 3."""
    rng = random.Random(20240901)
    families = []
    while len(families) < 25:
        fam = random_family(rng)
        if is_complete_intersection(fam):
            families.append(fam)
    return families


def greedy_differentiation_basis(F, k):
    """The canonical greedy basis by its definition: a RowSpace pass over the
    differentiation rows of every degree-k monomial, in canonical order."""
    from binomial_ci.linalg import RowSpace
    from binomial_ci.oracle import catalecticant_rows

    _, n, _ = numeric_form(F)
    candidates = monomials_of_degree(n, k)
    space = RowSpace()
    rows = catalecticant_rows(F, k, candidates, convention="differentiation")
    return [m for m, row in zip(candidates, rows) if space.add(row)]
