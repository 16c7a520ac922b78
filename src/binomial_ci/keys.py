"""Packed exponent keys and the rewrite step on them.

After Monagan and Pearce's packed monomials ("Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007): an exponent
vector is one int of 1-, 2-, 4- or 8-byte lanes, lane j at bits
[8*nb*j, 8*nb*(j+1)), whose top bits stay free as guards.  With G the guard
bits, ((p | G) - q) & G keeps lane j's guard bit exactly when p_j >= q_j: no
lane borrows from the next.  So one subtract and mask tests divisibility,
and one int add multiplies.

The rewrite step x^e -> x^e * m_i / x_i^{d_i}, for the least i with
x_i^{d_i} | x^e, is `rule`'s table: the reduction graph, the dual's in-tree,
the Macaulay kernel and the rewriting walk all read it.  The walk's lanes are
sized by its start's degree, which may pass the 8 bytes `struct` packs, so
the table's few constants are packed by shifts (`_shifted`, `_rule`) and
`_unpack_all` reads lanes of any width.  `BinomialFamily._move` is the same
step on exponent tuples: `step`'s implementation and the tests' reference.

A step's label depends on the degrees alone; only its successor reads the
tails.  So a degree's monomials have two shared tables: `degree_keys`, the
packed keys and their positions, which `graph.build_graph`,
`oracle.macaulay_kernel` and the catalecticants read, and `degree_labels`,
one table per degrees that every family of those degrees reads: each key's
guard test under `rule`, as its label for `graph.build_graph` and as the
positions of every lane's Macaulay rows for `oracle.macaulay_kernel`.
"""

from array import array
from functools import lru_cache
from itertools import compress, repeat, starmap
from operator import and_, not_
from struct import Struct

from .algebra import exponents_of_degree


def _wide_lane_bytes(top: int) -> int:
    """Bytes per packed lane, a power of two: the fewest with room for the sum
    of two exponents up to top and the lane's top bit still free as a guard.
    1, 2, 4 or 8 below top = 2**62, and 16, 32, ... from there on."""
    return 1 << ((2 * top).bit_length() // 8).bit_length()


def _lane_bytes(top: int) -> int:
    """`_wide_lane_bytes(top)`, which must be 1, 2, 4 or 8: a lane `struct`
    packs."""
    nb = _wide_lane_bytes(top)
    if nb > 8:
        raise ValueError(f"exponent {top} is too large for a packed key")
    return nb


@lru_cache(maxsize=64)
def _layout(size: int, nb: int) -> Struct:
    """size unsigned little-endian lanes of nb bytes (struct codes B, H, I,
    Q): the same widths and lane order on every host."""
    return Struct(f"<{size}{'BHIQ'[nb.bit_length() - 1]}")


def _pack(exps: tuple[int, ...], nb: int) -> int:
    """exps[j] in bytes [j*nb, (j+1)*nb) of one int; every entry must fit an
    unsigned lane of nb bytes."""
    return int.from_bytes(_layout(len(exps), nb).pack(*exps), "little")


def _pack_all(vectors, size: int, nb: int) -> list[int]:
    """[_pack(v, nb) for v in vectors], for vectors of size entries, in C."""
    return list(map(int.from_bytes, starmap(_layout(size, nb).pack, vectors), repeat("little")))


def _unpack_all(keys, size: int, nb: int) -> list[tuple[int, ...]]:
    """The size lanes of each packed key, the inverse of `_pack`, in C: one
    buffer of every key's bytes, read back lane by lane.  Lanes wider than 8
    bytes, which `struct` cannot read, are read from the same buffer by
    int.from_bytes."""
    if not size:  # no lanes: every key is 0, the empty vector
        return [() for _ in keys]
    data = b"".join(map(int.to_bytes, keys, repeat(size * nb), repeat("little")))
    if nb <= 8:
        return list(_layout(size, nb).iter_unpack(data))
    lanes = iter([int.from_bytes(data[j : j + nb], "little") for j in range(0, len(data), nb)])
    return list(zip(*[lanes] * size))


def _shifted(exps, nb: int) -> int:
    """_pack(exps, nb) by shifts, for lanes of any width, also past the 8
    bytes `struct` packs."""
    w = 8 * nb
    return sum(e << w * j for j, e in enumerate(exps))


def _guard(size: int, nb: int) -> int:
    """The top bit of each of size lanes of nb bytes."""
    return _shifted((1 << 8 * nb - 1,) * size, nb)


def _nonzero(acc: dict, n: int, m: int, nb: int) -> dict:
    """{(X exponents, symbol exponents): rational} for the nonzero entries of
    a packed accumulator with n X lanes and 2m symbol lanes of any width."""
    keys = [key for key, c in acc.items() if c]
    return {(lanes[:n], lanes[n:]): acc[key] for key, lanes in zip(keys, _unpack_all(keys, n + 2 * m, nb))}


def rule(degrees, tails, top: int) -> tuple[int, int, int, tuple[int, ...]]:
    """(nb, G, bound, deltas): the rewrite step by x_i^{d_i} -> x^tails[i-1]
    on keys of exponents up to top.

    nb is the lane width, G the guard bits and bound = pack(degrees).  For
    a key of e, ((key | G) - bound) & G keeps lane i's guard bit exactly when
    e_i >= d_i: each set bit is one Macaulay row x^(e - d_i e_i) * f_i, and
    the lowest is the step's label.  key + deltas[i-1] packs the label-i
    successor e - d_i e_i + tail_i.  The tails are exponent tuples.
    """
    return _rule(tuple(degrees), tuple(tails), _lane_bytes(max(top, *degrees)))


# One entry per (degrees, tails, nb) that a request reads: one per lane width
# over its graphs, Macaulay kernels, in-tree, match and walks, and every
# request of the benchmark pools reads one.  One seed-1 pass over a pool in its
# schedule order misses once per job: 960 misses and 7680 hits on `verify`,
# 600 and 5995 on `structure`, 800 and 10,474 on `cli-session`.  A miss packs
# the constants by shifts: 8.4 us at six variables (best of 5, Python 3.11,
# 2 vCPU).
@lru_cache(maxsize=4)
def _rule(
    degrees: tuple[int, ...], tails: tuple[tuple[int, ...], ...], nb: int
) -> tuple[int, int, int, tuple[int, ...]]:
    """`rule`'s table on lanes of nb bytes, of any width: `_shifted` packs its
    constants, so the rewriting walk may take lanes wider than the 8 bytes
    `struct` packs.  Shared: read it only."""
    deltas = tuple(_shifted(t, nb) - (d << 8 * nb * i) for i, (t, d) in enumerate(zip(tails, degrees)))
    return nb, _guard(len(degrees), nb), _shifted(degrees, nb), deltas


# One entry per (n, d, nb) that a request reads: its graph's degree, the
# Macaulay kernels' 0..D+1 and the catalecticants' 0..D.  A seed-1 pass over
# a pool in its interleaved schedule order reads 36 entries on `verify`
# (12,924 hits), 28 on `cli-session` and 5 on `structure`; at 32 entries
# `verify` missed 1979 times.  A miss enumerates and packs the degree's
# monomials: up to 0.50 ms, at 792 six-variable keys (best of 7, Python
# 3.11, 2 vCPU).
@lru_cache(maxsize=64)
def degree_keys(n: int, d: int, nb: int) -> tuple[list[int], dict[int, int]]:
    """(keys, index): the packed degree-d exponent vectors in the order of
    `exponents_of_degree`, and each key's position.

    The one table of a degree's monomials: `graph.build_graph` reads its
    vertices and their positions here (and their labels in `degree_labels`,
    in the same order), and `oracle.macaulay_kernel` and the catalecticant
    rows and columns read theirs, so a graph and a Macaulay kernel of one
    degree (and lane width) share one entry.  Shared: read it only."""
    keys = _pack_all(exponents_of_degree(n, d), n, nb)
    return keys, dict(zip(keys, range(len(keys))))


# One entry per (degrees, d, nb) that a request reads: its graph's degree
# and its Macaulay kernels' 0..D+1.  A seed-1 pass over a pool in its
# interleaved schedule order reads 50 entries on `verify` (7,150 hits), 42
# on `cli-session` and 5 on `structure`.  A miss packs and tests the
# degree's keys: up to 0.83 ms, at 792 six-variable keys (best of 7, Python
# 3.11, 2 vCPU).
@lru_cache(maxsize=64)
def degree_labels(
    degrees: tuple[int, ...], d: int, nb: int
) -> tuple[list[int], tuple[int | None, ...], tuple[int, ...], tuple[array, ...]]:
    """(found, labels, sinks, rows): the label of each key of
    `degree_keys(n, d, nb)`, in its order, under `rule`'s guard test, 0 for
    a sink; the same labels with None for a sink; the sinks' positions, empty
    when there is none; and, per lane k, the positions of the keys u whose
    guard test keeps lane k's bit, in key order: the columns u of the
    Macaulay rows x^(u - d_k e_k) * f_k, as an unsigned int array (4 bytes
    a row, where a tuple would hold an int object for each position past
    256).

    A label is the least i with x_i^{d_i} | x^e: it depends on the degrees
    alone, never on the tails, so every family of these degrees shares one
    table.  The lowest guard bit the test leaves sits at bit 8 * nb * label -
    1, so its bit length over the lane width is the label.  A miss packs the
    keys afresh, so a graph build reads `degree_keys` once.  Shared: read it
    only."""
    n = len(degrees)
    keys = _pack_all(exponents_of_degree(n, d), n, nb)
    guard, bound, width = _guard(n, nb), _shifted(degrees, nb), 8 * nb
    tests = [((key | guard) - bound) & guard for key in keys]
    found = [(t & -t).bit_length() // width for t in tests]
    positions = range(len(keys))
    rows = tuple(array("I", compress(positions, map(and_, tests, repeat(1 << width * k - 1)))) for k in range(1, n + 1))
    return found, tuple([i or None for i in found]), tuple(compress(positions, map(not_, found))), rows
