import random
from fractions import Fraction
from itertools import permutations

import pytest

from binomial_ci.linalg import RowSpace, det_sparse, rank_of, to_int_row
from binomial_ci.reference import dense_rank


def test_to_int_row_clears_denominators():
    row = to_int_row({0: Fraction(1, 2), 3: Fraction(-2, 3)})
    assert row == {0: 3, 3: -4}


def test_to_int_row_divides_an_int_row_by_its_gcd_and_drops_zeros():
    assert to_int_row({0: 6, 2: 0, 5: -9}) == {0: 2, 5: -3}
    assert to_int_row({(1, 0): 4, (0, 1): 0}) == {(1, 0): 1}
    assert to_int_row({1: 0}) == {}
    assert to_int_row({0: Fraction(4), 1: 6, 2: Fraction(0)}) == {0: 2, 1: 3}


def test_to_int_row_rejects_values_that_are_not_int_or_fraction():
    with pytest.raises(TypeError, match="int or Fraction, not str"):
        to_int_row({0: 1, 1: "1/2"})
    with pytest.raises(TypeError, match="not float"):
        RowSpace().add({0: 0.5})


def test_integer_rows_go_in_unscaled_and_are_not_shared():
    space = RowSpace()
    row = {0: 2, 1: 4}
    assert space.add(row)
    row[1] = 5  # the space holds its own copy
    assert space.contains({0: 1, 1: 2})
    assert space.add({1: 0, 2: 3})  # an int row with a zero goes through to_int_row
    assert space.contains({0: Fraction(1, 2), 1: 1, 2: Fraction(-6)})
    assert not space.contains({1: 1})
    assert space.rank == 2
    with pytest.raises(TypeError, match="not float"):
        space.contains({0: 1, 1: 1.0})


def test_rowspace_rank_and_membership():
    space = RowSpace()
    assert space.add({0: 1, 1: 2})
    assert space.add({1: 1, 2: 1})
    assert not space.add({0: 1, 1: 4, 2: 2})  # sum of the two
    assert space.rank == 2
    assert space.contains({0: 2, 1: 4})
    assert not space.contains({2: 1})


def test_rank_of_dense_matrix():
    assert dense_rank([[1, 2], [2, 4]]) == 1
    assert dense_rank([[1, 0], [0, 1]]) == 2
    assert rank_of([]) == 0


def test_rank_matches_naive_gaussian_on_random_matrices():
    rng = random.Random(17)

    def naive_rank(rows, cols):
        m = [[Fraction(rows[i].get(j, 0)) for j in range(cols)] for i in range(len(rows))]
        rank = 0
        for c in range(cols):
            pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            for r in range(len(m)):
                if r != rank and m[r][c]:
                    f = m[r][c] / m[rank][c]
                    m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
            rank += 1
        return rank

    for _ in range(25):
        rows = []
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        for _ in range(nrows):
            rows.append(
                {
                    j: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for j in range(ncols)
                    if rng.random() < 0.6
                }
            )
        assert rank_of(rows) == naive_rank(rows, ncols)


def dict_rows(matrix):
    """The rows of a dense matrix as {column: value}, zeros included."""
    return [dict(enumerate(row)) for row in matrix]


def test_det_known_values():
    assert det_sparse([{0: Fraction(2)}], 1) == 2
    assert det_sparse([{0: 1, 1: 2}, {0: 3, 1: 4}], 2) == -2
    assert det_sparse([{0: 0, 1: 1}, {0: 1, 1: 0}], 2) == -1
    assert det_sparse([{0: 1, 1: 2}, {0: 2, 1: 4}], 2) == 0
    assert det_sparse([], 0) == 1


def test_det_with_fractions():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert det_sparse(dict_rows(m), 2) == Fraction(1, 2) * Fraction(1, 7) - Fraction(1, 3) * Fraction(1, 5)


def test_det_matches_permutation_expansion_on_random_matrices():
    rng = random.Random(5)
    from itertools import permutations

    def naive_det(m):
        n = len(m)
        total = Fraction(0)
        for perm in permutations(range(n)):
            sign = 1
            seen = set()
            # count inversions for the sign
            inv = sum(
                1
                for i in range(n)
                for j in range(i + 1, n)
                if perm[i] > perm[j]
            )
            sign = -1 if inv % 2 else 1
            prod = Fraction(1)
            for i in range(n):
                prod *= m[i][perm[i]]
            total += sign * prod
        return total

    for _ in range(15):
        n = rng.randint(1, 4)
        m = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        assert det_sparse(dict_rows(m), n) == naive_det(m)


def test_det_rejects_non_square():
    wide = dict_rows([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="column"):
        det_sparse(wide, 2)
    with pytest.raises(ValueError, match="rows"):
        det_sparse(wide, 3)


def naive_sparse_det(rows, size):
    """Leibniz expansion over all permutations, skipping zero products."""
    total = Fraction(0)
    for perm in permutations(range(size)):
        prod = Fraction(1)
        for r, c in enumerate(perm):
            entry = rows[r].get(c, 0)
            if not entry:
                break
            prod *= entry
        else:
            inversions = sum(1 for i in range(size) for j in range(i + 1, size) if perm[i] > perm[j])
            total += -prod if inversions % 2 else prod
    return total


def random_entry(rng):
    num = 0
    while num == 0:
        num = rng.randint(-5, 5)
    return Fraction(num, rng.randint(1, 4))


def zero_diagonal_matrix(rng, size, density=0.5):
    """Sparse rows with every diagonal entry zero, so pivots leave row order."""
    return [
        {c: random_entry(rng) for c in range(size) if c != r and rng.random() < density}
        for r in range(size)
    ]


def singular_matrix(rng, size):
    """Sparse rows where the last is a combination of the others, then shuffled."""
    rows = [{c: random_entry(rng) for c in range(size) if rng.random() < 0.5} for _ in range(size - 1)]
    last: dict[int, Fraction] = {}
    for row in rows:
        factor = Fraction(rng.randint(-2, 2))
        for c, v in row.items():
            last[c] = last.get(c, 0) + factor * v
    rows.append({c: v for c, v in last.items() if v})
    rng.shuffle(rows)
    return rows


def functional_graph_matrix(rng, size):
    """A nonzero diagonal and one more entry per row on a random successor
    column, which may be the row itself (as in the resultant matrix)."""
    rows = []
    for r in range(size):
        row = {r: random_entry(rng)}
        succ = rng.randrange(size)
        row[succ] = row.get(succ, 0) - random_entry(rng)
        rows.append({c: v for c, v in row.items() if v})
    return rows


@pytest.mark.parametrize("kind", [zero_diagonal_matrix, singular_matrix, functional_graph_matrix])
def test_det_sparse_matches_permutation_expansion(kind):
    rng = random.Random(23)
    for size in range(1, 7):
        for _ in range(12 if size < 6 else 4):
            rows = kind(rng, size)
            assert det_sparse(rows, size) == naive_sparse_det(rows, size)


def test_det_sparse_known_values():
    assert det_sparse([], 0) == 1
    assert det_sparse([{0: 1, 1: 2}, {}], 2) == 0
    assert det_sparse([{0: 1, 1: 2}, {0: 2, 1: 4}], 2) == 0
    assert det_sparse([{1: 1}, {0: 1}], 2) == -1
    assert det_sparse([{2: 2}, {0: 3}, {1: 5}], 3) == 30
    # every row starts in column 0: later rows must pivot further right
    assert det_sparse([{0: 1, 1: 1}, {0: 1, 2: 1}, {0: 1}], 3) == 1


def test_det_sparse_ignores_explicit_zeros():
    rng = random.Random(31)
    for size in range(1, 6):
        rows = zero_diagonal_matrix(rng, size)
        dense = [[row.get(c, 0) for c in range(size)] for row in rows]
        assert det_sparse(dict_rows(dense), size) == det_sparse(rows, size)


def test_det_sparse_rejects_a_column_out_of_range():
    with pytest.raises(ValueError, match="column"):
        det_sparse([{0: 1}, {2: 1}], 2)
    with pytest.raises(ValueError, match="column"):
        det_sparse([{0: 1}, {-1: 1}], 2)


def test_det_sparse_rejects_a_wrong_row_count():
    with pytest.raises(ValueError, match="rows"):
        det_sparse([{0: 1}], 2)


def test_det_sparse_rejects_a_float():
    with pytest.raises(TypeError, match="not float"):
        det_sparse([{0: 0.5}], 1)
    # every row is checked before elimination, even after a zero row
    with pytest.raises(TypeError, match="not float"):
        det_sparse([{}, {0: 0.5}], 2)


def test_reduced_reports_its_scale():
    # reduced = (a_prod / g_prod) * (row - a combination of pivots), so
    # row - (g_prod / a_prod) * reduced lies in the space before the row joins
    rng = random.Random(11)
    space = RowSpace()
    for _ in range(40):
        row = to_int_row({rng.randrange(8): rng.randint(-9, 9) for _ in range(4)})
        reduced, a_prod, g_prod = space._reduced(row)
        scale = Fraction(g_prod, a_prod)
        assert space.contains({k: row.get(k, 0) - scale * reduced.get(k, 0) for k in row.keys() | reduced.keys()})
        space.add(row)


def test_det_sparse_leaves_its_input_unchanged():
    rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(3), 1: Fraction(4)}]
    copy = [dict(row) for row in rows]
    assert det_sparse(rows, 2) == -2
    assert rows == copy


def test_det_sparse_property_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    entries = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    )

    @st.composite
    def sparse_matrices(draw):
        size = draw(st.integers(min_value=1, max_value=5))
        rows = [
            {c: v for c in range(size) if (v := draw(entries))} for _ in range(size)
        ]
        return rows, size

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(sparse_matrices())
    def check(matrix):
        rows, size = matrix
        assert det_sparse(rows, size) == naive_sparse_det(rows, size)

    check()


@pytest.mark.parametrize("size", [30, 45, 60])
def test_det_sparse_agrees_with_sympy(size):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(size)
    if size % 2:
        rows = functional_graph_matrix(rng, size)
    else:
        rows = zero_diagonal_matrix(rng, size, density=3 / size)
    matrix = sympy.Matrix(
        size,
        size,
        lambda r, c: sympy.Rational(rows[r].get(c, 0).numerator, rows[r].get(c, 0).denominator)
        if c in rows[r]
        else 0,
    )
    expected = matrix.det(method="domain-ge")
    got = det_sparse(rows, size)
    assert sympy.Rational(got.numerator, got.denominator) == expected

