"""Syndrome decoding of up to 3 errors against the (x, f(x), g(x)) matrix.

The syndrome of a received word splits into three field elements
(sum of x, sum of f(x), sum of g(x) over the error positions).  Single
errors are located directly (the first block names the position), double
errors through the pair index, and triple errors by probing every position
z at once and completing each remainder through the same index: meet in
the middle, so no C(N,3) table is ever built.  Distance 7 makes all
weight <= 3 cosets disjoint, hence every decode is unambiguous.

The pair index needs one of f, g to be an APN power map h = x^d.  For
x = s1*u, h(x) + h(x + s1) = s1^d * D(u) with D(u) = u^d + (u + 1)^d, and
APN makes D 2-to-1 (Nyberg), so one table root[t] = u with D(u) = t names
the pair {s1*u, s1*u + s1} of a weight-2 syndrome in O(1), from O(2^n)
memory; the other table confirms the hit.  When neither f nor g is an APN
power map, the index refuses to build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .code import ParityCheckMatrix
from .field import FieldCtx
from .functions import MonomialPair, is_apn, power_exponent


class CollisionDetected(ValueError):
    """Neither f nor g is an APN power map, which the pair index needs to
    tell every weight-2 syndrome apart."""


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
    v = 0
    for row in reversed(H.rows):
        v = (v << 1) | ((row & received).bit_count() & 1)
    mask = (1 << n) - 1
    return Syndrome(v & mask, (v >> n) & mask, v >> (2 * n))


class PairIndex:
    """Weight-2 syndrome -> unordered position pair (x, y), x < y, for all
    C(2^n - 1, 2) pairs, through the root table of the APN power map h.

    `get` and `len` behave as on a dict of every pair's syndrome; `triple`
    completes a weight-3 syndrome.
    """

    def __init__(self, ctx: FieldCtx, pair: MonomialPair) -> None:
        choices = ((1, pair.f_np, pair.g_np, pair.g_table), (2, pair.g_np, pair.f_np, pair.f_table))
        for block, h, other, other_list in choices:
            d = power_exponent(ctx, h)
            if d is not None and is_apn(ctx, h):
                break
        else:
            raise CollisionDetected(
                f"neither x^{pair.d1} nor x^{pair.d2} is an APN power map over GF(2^{ctx.n})"
            )
        self._ctx = ctx
        self._block = block  # the syndrome block h sums into; 3 - block is the other's
        self._neg_d = (ctx.group_order - d) % ctx.group_order
        us = np.arange(ctx.order)
        # D(0) = D(1) = 1, so u in {0, 1} (x or y = 0) is skipped, and 0 marks "no pair".
        self._root = np.zeros(ctx.order, dtype=np.int64)
        self._root[(h[us ^ 1] ^ h)[2:]] = us[2:]
        self._neg_pow = ctx.pow_array(us, self._neg_d)  # s -> s^(-d)
        self._other = other
        self._other_list = other_list
        self._zs = us[1:]
        self._h_z = h[1:]
        self._other_z = other[1:]
        self._size = ctx.group_order * (ctx.group_order - 1) // 2

    def __len__(self) -> int:
        return self._size

    def get(self, syn) -> tuple[int, int] | None:
        """The pair (x, y), x < y, whose syndrome is syn, else None."""
        s1 = syn[0]
        if s1 == 0:
            return None
        ctx = self._ctx
        u = int(self._root[ctx.mul(syn[self._block], ctx.pow(s1, self._neg_d))])
        if u == 0:
            return None
        x = ctx.mul(s1, u)
        y = x ^ s1
        if self._other_list[x] ^ self._other_list[y] != syn[3 - self._block]:
            return None
        return (x, y) if x < y else (y, x)

    def triple(self, syn) -> tuple[int, int, int] | None:
        """(z, x, y) for the smallest z such that syn minus column z is the
        syndrome of the pair (x, y), as `get` names it; else None.

        One array pass over every z: u = root[(sh + h(z)) * (s1 + z)^(-d)].
        """
        ctx = self._ctx
        s1 = syn[0]
        a = self._zs ^ s1
        u = self._root[ctx.mul_array(syn[self._block] ^ self._h_z, self._neg_pow[a])]
        x = ctx.mul_array(a, u)
        other = self._other
        # z = s1 gives a = 0 and t = 0, and root[0] = 0 (no u has D(u) = 0:
        # an APN power map over GF(2^n), n odd, is a permutation), so u = 0
        # drops it with the other z that name no pair.
        ok = (other[x] ^ other[x ^ a] == syn[3 - self._block] ^ self._other_z) & (u != 0)
        i = int(ok.argmax())
        if not ok[i]:
            return None
        x, y = int(x[i]), int(x[i] ^ a[i])
        return (i + 1, x, y) if x < y else (i + 1, y, x)


def build_pair_index(ctx: FieldCtx, pair: MonomialPair) -> PairIndex:
    """The weight-2 syndrome index of a pair; O(2^n) time and memory.

    Raises CollisionDetected when neither f nor g is an APN power map.
    """
    return PairIndex(ctx, pair)


def decode(
    ctx: FieldCtx,
    pair: MonomialPair,
    H: ParityCheckMatrix,
    pair_index: PairIndex,
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

    # Weight 3: probe every position, complete the remaining pair.
    hit = pair_index.triple(syn)
    if hit is not None:
        return _apply(received, hit)

    return DecodeResult("uncorrectable", frozenset(), None)


def _apply(received: int, positions: tuple[int, ...]) -> DecodeResult:
    word = received
    for x in positions:
        word ^= 1 << (x - 1)
    return DecodeResult("corrected", frozenset(positions), word)

