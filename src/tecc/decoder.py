"""Syndrome decoding of up to 3 errors against the (x, f(x), g(x)) matrix.

The syndrome of a received word splits into three field elements
(sum of x, sum of f(x), sum of g(x) over the error positions).  Single
errors are located directly (the first block names the position), double
errors through a precomputed pairs table, and triple errors by probing one
position and completing with the pairs table: meet in the middle, so no
C(N,3) table is ever built.  Distance 7 makes all weight <= 3 cosets
disjoint, hence every decode is unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .code import ParityCheckMatrix
from .field import FieldCtx
from .functions import MonomialPair


class CollisionDetected(ValueError):
    """Two weight-2 patterns share a syndrome: the code distance is < 5."""


class Syndrome(NamedTuple):
    s1: int
    sf: int
    sg: int

    def is_zero(self) -> bool:
        return self == (0, 0, 0)


@dataclass
class DecodeResult:
    status: str  # "clean" | "corrected" | "uncorrectable"
    error_positions: frozenset[int]  # column indices = field element values
    corrected_word: int | None


def syndrome_of(H: ParityCheckMatrix, received: int) -> Syndrome:
    """The three n-bit blocks of H * r^T."""
    if received < 0 or received >> H.ncols:
        raise ValueError(f"received word does not fit {H.ncols} bits")
    n = H.n
    bits = [(H.rows[i] & received).bit_count() & 1 for i in range(3 * n)]
    block = lambda lo: sum(bits[lo + i] << i for i in range(n))
    return Syndrome(block(0), block(n), block(2 * n))


def column_syndrome(pair: MonomialPair, x: int) -> Syndrome:
    return Syndrome(x, pair.f_table[x], pair.g_table[x])


def build_pair_index(ctx: FieldCtx, pair: MonomialPair) -> dict[Syndrome, tuple[int, int]]:
    """Syndrome -> unordered position pair, over all C(2^n - 1, 2) pairs.

    Any collision falsifies distance >= 5 and is a hard error.  Refused
    above n = 11: at n = 13 the dict would hold 33.5M entries, about 9 GB.
    """
    if ctx.n > 11:
        raise ValueError(
            f"the syndrome pair index is limited to n <= 11; n={ctx.n} needs "
            f"C({ctx.group_order}, 2) entries (ROADMAP item 3: O(2^n) power-map decoder)"
        )
    f = pair.f_table
    g = pair.g_table
    index: dict[Syndrome, tuple[int, int]] = {}
    for x in range(1, ctx.order):
        fx, gx = f[x], g[x]
        for y in range(x + 1, ctx.order):
            s = Syndrome(x ^ y, fx ^ f[y], gx ^ g[y])
            if s in index:
                raise CollisionDetected(f"pairs {index[s]} and {(x, y)} share syndrome {s}")
            index[s] = (x, y)
    return index


def decode(
    ctx: FieldCtx,
    pair: MonomialPair,
    H: ParityCheckMatrix,
    pair_index: dict[Syndrome, tuple[int, int]],
    received: int,
) -> DecodeResult:
    """Correct up to 3 errors; anything deeper is reported uncorrectable."""
    syn = syndrome_of(H, received)
    if syn.is_zero():
        return DecodeResult("clean", frozenset(), received)

    # Weight 1: the first syndrome block is the error position itself.
    x = syn.s1
    if x != 0 and pair.f_table[x] == syn.sf and pair.g_table[x] == syn.sg:
        return _apply(received, (x,))

    # Weight 2: direct lookup.
    hit = pair_index.get(syn)
    if hit is not None:
        return _apply(received, hit)

    # Weight 3: probe one position, complete the remaining pair.
    f = pair.f_table
    g = pair.g_table
    for z in range(1, ctx.order):
        rest = Syndrome(syn.s1 ^ z, syn.sf ^ f[z], syn.sg ^ g[z])
        hit = pair_index.get(rest)
        if hit is not None:
            return _apply(received, (z, *hit))

    return DecodeResult("uncorrectable", frozenset(), None)


def _apply(received: int, positions: tuple[int, ...]) -> DecodeResult:
    word = received
    for x in positions:
        word ^= 1 << (x - 1)
    return DecodeResult("corrected", frozenset(positions), word)


def word_to_hex(word: int, nbits: int) -> str:
    """Serialize a length-nbits word, LSB-first bit order within bytes."""
    return word.to_bytes((nbits + 7) // 8, "little").hex()


def hex_to_word(text: str, nbits: int) -> int:
    word = int.from_bytes(bytes.fromhex(text), "little")
    if word >> nbits:
        raise ValueError("word wider than the declared bit length")
    return word
