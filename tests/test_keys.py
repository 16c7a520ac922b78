import random

import pytest

from binomial_ci import BinomialFamily, Monomial, monomials_of_degree
from binomial_ci.algebra import exponents_of_degree
from binomial_ci.keys import (
    _guard,
    _lane_bytes,
    _nonzero,
    _pack,
    _pack_all,
    _rule,
    _shifted,
    _unpack_all,
    degree_keys,
    rule,
)

from conftest import random_family


class TestLanes:
    @pytest.mark.parametrize("nb", [1, 2, 4, 8])
    def test_pack_and_unpacked_round_trip(self, nb):
        top = 2 ** (8 * nb) - 1
        vectors = [(0,), (top,), (1, 0, top), (top // 2, top, 0, 1, 2)]
        for v in vectors:
            key = _pack(v, nb)
            assert _unpack_all((key,), len(v), nb) == [v]
            assert [(key >> 8 * nb * j) & top for j in range(len(v))] == list(v)  # lane j at bits 8*nb*j, on any host
        assert _pack_all([(1, 2), (top, 0)], 2, nb) == [_pack((1, 2), nb), _pack((top, 0), nb)]
        assert _nonzero({_pack((1, 2, 3), nb): 5, _pack((3, 2, 1), nb): 0}, 1, 1, nb) == {((1,), (2, 3)): 5}

    @pytest.mark.parametrize("nb", [1, 16])
    def test_nonzero_reads_lanes_of_any_width_and_none(self, nb):
        top = 2 ** (8 * nb - 1) - 1
        assert _nonzero({_shifted((top, 2, 3), nb): 5, _shifted((3, 2, 1), nb): 0}, 1, 1, nb) == {((top,), (2, 3)): 5}
        assert _nonzero({0: 6, 1: 0}, 0, 0, nb) == {((), ()): 6}
        assert _unpack_all(iter([0, 0]), 0, nb) == [(), ()]

    @pytest.mark.parametrize("top, nb", [(0, 1), (63, 1), (64, 2), (16383, 2), (16384, 4), (2**30 - 1, 4), (2**30, 8)])
    def test_lane_switch_points(self, top, nb):
        # twice top fits below the guard bit, which _guard sets in every lane
        assert _lane_bytes(top) == nb
        assert 2 * top < 1 << 8 * nb - 1
        assert _unpack_all((_guard(3, nb),), 3, nb) == [(1 << 8 * nb - 1,) * 3]


def _rule_families():
    """Seeded random families, and two-variable ones whose degrees put the
    keys in 1-, 2- and 4-byte lanes."""
    rng = random.Random(2007)
    families = [random_family(rng, numeric=False, n_range=(2, 5), max_degree=4) for _ in range(30)]
    for d1, d2 in ((5, 3), (40, 30), (9000, 7500)):
        families.append(BinomialFamily.symbolic([d1, d2], [Monomial((1, d1 - 1)), Monomial((d2, 0))]))
    return rng, families


class TestRule:
    def test_labels_rows_and_successors_follow_the_tuple_step(self):
        rng, families = _rule_families()
        widths = set()
        for family in families:
            n, degrees = family.n, family.degrees
            top = 2 * max(degrees) + rng.randint(0, 3)
            nb, guard, bound, deltas = rule(degrees, [t.exponents for t in family.tails], top)
            widths.add(nb)
            for _ in range(40):
                e = tuple(rng.randint(0, top // n) if rng.random() < 0.7 else rng.randint(0, d + 1) for d in degrees)
                key = _pack(e, nb)
                rows = ((key | guard) - bound) & guard
                assert [rows >> 8 * nb * (k + 1) - 1 & 1 for k in range(n)] == [int(x >= d) for x, d in zip(e, degrees)]
                move = family._move(e, n)
                if move is None:
                    assert rows == 0
                else:
                    label, successor = move
                    assert (rows & -rows).bit_length() == 8 * nb * label
                    assert _unpack_all((key + deltas[label - 1],), n, nb) == [successor]
        assert widths == {1, 2, 4}

    def test_the_table_is_built_once_per_family_and_lane_width(self):
        degrees, tails = (3, 2), ((1, 2), (2, 0))
        first = rule(degrees, tails, 4)
        assert rule(list(degrees), list(tails), 63) is first  # the same 1-byte lanes
        assert type(first[3]) is tuple and first == _rule.__wrapped__(degrees, tails, 1)
        wide = rule(degrees, tails, 64)
        assert wide[0] == 2 and wide is rule(degrees, tails, 200) is not first
        assert rule(degrees, ((0, 3), (2, 0)), 4) != first
        assert _rule.cache_info().maxsize == 4

    def test_degree_keys_follow_exponents_of_degree(self):
        for n, d, nb in ((1, 0, 1), (3, 4, 1), (4, 3, 2), (2, 70, 2), (2, 16400, 4)):
            keys, index = degree_keys(n, d, nb)
            exps = exponents_of_degree(n, d)
            assert keys == _pack_all(exps, n, nb)
            assert list(index.items()) == list(zip(keys, range(len(keys))))
            assert [m.exponents for m in monomials_of_degree(n, d)] == _unpack_all(keys, n, nb)
            assert degree_keys(n, d, nb) is degree_keys(n, d, nb)
        assert degree_keys.cache_info().maxsize == 64
