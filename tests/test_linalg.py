import random
from fractions import Fraction

import pytest

from binomial_ci.linalg import RowSpace, dense_rank, det_rational, rank_of, to_int_row


def test_to_int_row_clears_denominators():
    row = to_int_row({0: Fraction(1, 2), 3: Fraction(-2, 3)})
    assert row == {0: 3, 3: -4}


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


def test_det_known_values():
    assert det_rational([[Fraction(2)]]) == 2
    assert det_rational([[1, 2], [3, 4]]) == -2
    assert det_rational([[0, 1], [1, 0]]) == -1
    assert det_rational([[1, 2], [2, 4]]) == 0
    assert det_rational([]) == 1


def test_det_with_fractions():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert det_rational(m) == Fraction(1, 2) * Fraction(1, 7) - Fraction(1, 3) * Fraction(1, 5)


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
        assert det_rational([row[:] for row in m]) == naive_det(m)


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det_rational([[1, 2, 3], [4, 5, 6]])


def test_rowspace_copy_is_independent():
    space = RowSpace()
    space.add({0: 1, 1: 2})
    copy = space.copy()
    assert copy.add({1: 1, 2: 1})
    assert copy.rank == 2 and space.rank == 1
    assert not space.contains({1: 1, 2: 1})
    assert copy.contains({0: 1, 1: 2})
