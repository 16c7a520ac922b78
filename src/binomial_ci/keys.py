"""Packed exponent keys and the rewrite step on them.

After Monagan and Pearce's packed monomials ("Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007): an exponent
vector is one int of 1-, 2-, 4- or 8-byte lanes, lane j at bits
[8*nb*j, 8*nb*(j+1)), whose top bits stay free as guards.  With G the guard
bits, ((p | G) - q) & G keeps lane j's guard bit exactly when p_j >= q_j: no
lane borrows from the next.  So one subtract and mask tests divisibility,
and one int add multiplies.

The rewrite step x^e -> x^e * m_i / x_i^{d_i}, for the least i with
x_i^{d_i} | x^e, is `rule`'s table: the reduction graph, the dual's in-tree
and the Macaulay kernel all read it.  `BinomialFamily._move` is the same step
on exponent tuples, for single monomials whose exponents no lane holds.
"""

from functools import lru_cache
from itertools import repeat, starmap
from struct import Struct

from .algebra import exponents_of_degree


def _lane_bytes(top: int) -> int:
    """Bytes per packed lane, 1, 2, 4 or 8: room for the sum of two exponents
    up to top with the lane's top bit still free as a guard."""
    bits = (2 * top).bit_length() + 1
    for nb in (1, 2, 4, 8):
        if bits <= 8 * nb:
            return nb
    raise ValueError(f"exponent {top} is too large for a packed key")


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


def _unpacked(key: int, size: int, nb: int) -> tuple[int, ...]:
    """The size lanes of a packed key: the inverse of _pack."""
    return _layout(size, nb).unpack(key.to_bytes(size * nb, "little"))


def _unpack_all(keys, size: int, nb: int) -> list[tuple[int, ...]]:
    """[_unpacked(k, size, nb) for k in keys], in C: one buffer of every key's
    bytes, read back lane by lane."""
    width = size * nb
    return list(_layout(size, nb).iter_unpack(b"".join(map(int.to_bytes, keys, repeat(width), repeat("little")))))


def _guard(size: int, nb: int) -> int:
    """The top bit of each of size lanes of nb bytes."""
    return _pack((1 << 8 * nb - 1,) * size, nb)


def _nonzero(acc: dict, n: int, m: int, nb: int) -> dict:
    """{(X exponents, symbol exponents): rational} for the nonzero entries of
    a packed accumulator with n X lanes and 2m symbol lanes."""
    out = {}
    for key, c in acc.items():
        if c:
            lanes = _unpacked(key, n + 2 * m, nb)
            out[lanes[:n], lanes[n:]] = c
    return out


def rule(degrees, tails, top: int) -> tuple[int, int, int, list[int]]:
    """(nb, G, bound, deltas): the rewrite step by x_i^{d_i} -> x^tails[i-1]
    on keys of exponents up to top.

    nb is the lane width, G the guard bits and bound = pack(degrees).  For
    a key of e, ((key | G) - bound) & G keeps lane i's guard bit exactly when
    e_i >= d_i: each set bit is one Macaulay row x^(e - d_i e_i) * f_i, and
    the lowest is the step's label.  key + deltas[i-1] packs the label-i
    successor e - d_i e_i + tail_i.
    """
    nb = _lane_bytes(max(top, *degrees))
    deltas = [_pack(t, nb) - (d << 8 * nb * i) for i, (t, d) in enumerate(zip(tails, degrees))]
    return nb, _guard(len(degrees), nb), _pack(degrees, nb), deltas


@lru_cache(maxsize=32)
def degree_keys(n: int, d: int, nb: int) -> tuple[list[int], dict[int, int]]:
    """(keys, index): the packed degree-d exponent vectors in the order of
    `exponents_of_degree`, and each key's position.

    The one table of a degree's monomials: `graph.build_graph` reads its
    vertices and their positions here, and `oracle.macaulay_kernel` and the
    catalecticant rows and columns read theirs, so a graph and a Macaulay
    kernel of one degree (and lane width) share one entry.  Shared: read it
    only."""
    keys = _pack_all(exponents_of_degree(n, d), n, nb)
    return keys, dict(zip(keys, range(len(keys))))
