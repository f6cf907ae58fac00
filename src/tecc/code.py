"""Parity-check construction, code parameters, dual weights, distance oracles.

The parity-check matrix H of a pair {f, g} stacks, for every nonzero x in
integer order, the column (x, f(x), g(x)) written as three n-bit coordinate
blocks (LSB first).  H is 3n by 2^n - 1; the code is its nullspace and the
dual code is its row space.  Dual word weights are (2^n - V)/2 where V runs
over the transform values of the corresponding (a, b, c) triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from . import gf2
from .field import FieldCtx
from .functions import MonomialPair
from .spectrum import SpectrumReport, single_table_spectrum

DISTANCE_ORACLE_MAX_N = 7  # the weight-3 syndrome scan, and `tecc distance`, stop here


class RankDefect(ValueError):
    """H does not reach full rank 3n (degenerate pair)."""


@dataclass
class ParityCheckMatrix:
    """3n x (2^n - 1) binary matrix; rows are int bitmasks, bit j-1 = column
    for the field element with integer value j.  Immutable by convention
    after construction."""

    n: int
    ncols: int
    rows: list[int]

    @cached_property
    def echelon(self) -> tuple[int, list[int], list[int]]:
        """`gf2.row_reduce` of the rows: (rank, RREF rows, pivot columns),
        computed once however many stages ask for the rank or the RREF."""
        return gf2.row_reduce(self.rows, self.ncols)

    def to_text(self) -> str:
        """Rows of '0'/'1' characters, leftmost character = column x=1."""
        return "\n".join(
            "".join("1" if (row >> j) & 1 else "0" for j in range(self.ncols))
            for row in self.rows
        )


def build_parity_check(ctx: FieldCtx, pair: MonomialPair) -> ParityCheckMatrix:
    """Stack the coordinate rows of x, f(x), g(x) over all nonzero x."""
    n = ctx.n
    blocks = np.stack((np.arange(1, ctx.order), pair.f_np[1:], pair.g_np[1:])).astype(np.uint32)
    planes = (blocks[:, None, :] >> np.arange(n, dtype=np.uint32)[:, None]) & 1
    rows = [gf2.to_int(plane) for plane in planes.reshape(3 * n, -1).astype(np.uint8)]
    return ParityCheckMatrix(n, ctx.order - 1, rows)


def rank_and_dimension(H: ParityCheckMatrix) -> tuple[int, int]:
    """GF(2) rank of H and the code dimension (2^n - 1) - rank.

    Raises RankDefect when rank < 3n: the parameter formula presumes full
    rank, so a defect is surfaced rather than silently accepted.
    """
    rank = H.echelon[0]
    if rank < 3 * H.n:
        raise RankDefect(f"rank {rank} < 3n = {3 * H.n}")
    return rank, H.ncols - rank


@dataclass
class WeightDistribution:
    """Exact coefficients A_0..A_N of a weight distribution."""

    length: int
    coeffs: list[int]

    def total(self) -> int:
        return sum(self.coeffs)

    def to_pairs(self) -> list[list[int]]:
        """JSON form [[w, A_w], ...] with zero coefficients omitted."""
        return [[w, a] for w, a in enumerate(self.coeffs) if a]

    def min_nonzero_weight(self) -> int:
        return next(w for w in range(1, self.length + 1) if self.coeffs[w])


def dual_weights_from_spectrum(
    ctx: FieldCtx,
    pair: MonomialPair,
    report: SpectrumReport,
    H: ParityCheckMatrix,
) -> WeightDistribution:
    """Weight distribution of the dual code from transform histograms.

    Requires H, the pair's parity-check matrix, at full rank (dual words
    correspond bijectively to (a, b, c) triples).  The strata with b = c = 0
    and with exactly one of b, c zero are computed here; the b, c nonzero
    stratum comes from the report.
    """
    rank_and_dimension(H)

    order = ctx.order
    coeffs = [0] * order  # weights range 0 .. 2^n - 1
    coeffs[0] += 1                      # a = b = c = 0
    coeffs[order // 2] += order - 1     # a != 0, b = c = 0: Tr(ax) is balanced
    for hist in (
        single_table_spectrum(ctx, pair.f_np),   # c = 0 stratum
        single_table_spectrum(ctx, pair.g_np),   # b = 0 stratum
    ):
        for v, cnt in hist.items():
            coeffs[(order - v) // 2] += cnt
    for v, cnt in report.histogram.items():
        coeffs[(order - v) // 2] += cnt

    dist = WeightDistribution(order - 1, coeffs)
    if dist.total() != 1 << (3 * ctx.n):  # pragma: no cover
        raise ArithmeticError("dual distribution mass != 2^(3n)")
    return dist


@dataclass
class SystematicGenerator:
    """Systematic encoder for the nullspace of H, read off H's RREF.

    Encoding places the message bits at the non-pivot columns and sets each
    pivot column of the RREF to the parity of its row over them.
    """

    length: int
    message_cols: np.ndarray
    checks: list[tuple[int, int]]  # (RREF row of H, its pivot column)

    @property
    def dimension(self) -> int:
        return len(self.message_cols)


def systematic_generator(H: ParityCheckMatrix) -> SystematicGenerator:
    rank, rref, pivots = H.echelon
    return SystematicGenerator(H.ncols, np.delete(np.arange(H.ncols), pivots),
                               list(zip(rref[:rank], pivots)))


def encode(gen: SystematicGenerator, message: int) -> int:
    """Codeword for a message int of gen.dimension bits."""
    if message >> gen.dimension:
        raise ValueError("message wider than the code dimension")
    bits = np.zeros(gen.length, dtype=np.uint8)
    bits[gen.message_cols] = gf2.to_bits(message, gen.dimension)
    word = gf2.to_int(bits)
    for check, pivot in gen.checks:
        if (check & word).bit_count() & 1:
            word |= 1 << pivot
    return word


def codeword_weight_distribution(ctx: FieldCtx, pair: MonomialPair) -> WeightDistribution:
    """Weights of all 2^16 codewords (n = 5 only), built by doubling over the unit encodings."""
    if ctx.n != 5:
        raise ValueError("exhaustive enumeration is limited to n = 5")
    H = build_parity_check(ctx, pair)
    rank_and_dimension(H)
    gen = systematic_generator(H)
    words = np.zeros(1 << gen.dimension, dtype=np.uint32)
    for i in range(gen.dimension):
        words[1 << i:2 << i] = words[:1 << i] ^ encode(gen, 1 << i)
    coeffs = np.bincount(np.bitwise_count(words), minlength=H.ncols + 1)
    return WeightDistribution(H.ncols, coeffs.tolist())


def min_distance_bruteforce(ctx: FieldCtx, pair: MonomialPair) -> int:
    """Minimum nonzero codeword weight by exhaustive enumeration (n = 5)."""
    return codeword_weight_distribution(ctx, pair).min_nonzero_weight()


def weight3_syndromes_distinct(ctx: FieldCtx, pair: MonomialPair) -> bool:
    """True iff all error patterns of weight <= 3 have distinct syndromes.

    Equivalent to minimum distance >= 7, independently of any transform
    computation.  Columns are packed as 3n-bit int32 (x, f, g blocks, LSB
    first, at most 21 bits) and every pattern's syndrome goes into one
    preallocated array: the pairs ordered by their larger index, so the
    pairs below l are a prefix of C(l, 2), and the triples of largest
    index l that prefix xored with column l.  The sorted syndromes must
    not repeat.  Kept to n <= DISTANCE_ORACLE_MAX_N (C(127,3) patterns at
    n = 7).
    """
    if ctx.n > DISTANCE_ORACLE_MAX_N:
        raise ValueError(f"triple syndrome scan is limited to n <= {DISTANCE_ORACLE_MAX_N}")
    n = ctx.n
    cols = (np.arange(1, ctx.order) | (pair.f_np[1:] << n) | (pair.g_np[1:] << 2 * n)).astype(np.int32)
    m = cols.size
    pairs_end = 1 + m + comb(m, 2)
    syndromes = np.empty(pairs_end + comb(m, 3), np.int32)
    syndromes[0] = 0
    syndromes[1:1 + m] = cols
    pairs = syndromes[1 + m:pairs_end]
    high, low = np.tril_indices(m, -1)  # row-major: ordered by the larger index
    np.bitwise_xor(cols[high], cols[low], out=pairs)
    start = pairs_end
    for last in range(2, m):
        below = pairs[:comb(last, 2)]
        np.bitwise_xor(below, cols[last], out=syndromes[start:start + below.size])
        start += below.size
    syndromes.sort()
    return bool((syndromes[1:] != syndromes[:-1]).all())
