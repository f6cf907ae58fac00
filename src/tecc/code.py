"""Parity-check construction, code parameters, dual weights, distance oracles.

The parity-check matrix H of a pair {f, g} stacks, for every nonzero x in
integer order, the column (x, f(x), g(x)) written as three n-bit coordinate
blocks (LSB first).  H is 3n by 2^n - 1; the code is its nullspace and the
dual code is its row space.  Dual word weights are (2^n - V)/2 where V runs
over the transform values of the corresponding (a, b, c) triple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .field import FieldCtx
from .functions import MonomialPair
from .spectrum import SpectrumReport, single_table_spectrum


class RankDefect(ValueError):
    """H does not reach full rank 3n (degenerate pair)."""


@dataclass
class ParityCheckMatrix:
    """3n x (2^n - 1) binary matrix; rows are int bitmasks, bit j-1 = column
    for the field element with integer value j."""

    n: int
    ncols: int
    rows: list[int]
    family: str | None = None
    param: int | None = None

    def column(self, x: int) -> int:
        """Column for element x as a 3n-bit int (x, f, g blocks, LSB first)."""
        out = 0
        for i, row in enumerate(self.rows):
            out |= ((row >> (x - 1)) & 1) << i
        return out

    def to_text(self) -> str:
        """Rows of '0'/'1' characters, leftmost character = column x=1."""
        return "\n".join(
            "".join("1" if (row >> j) & 1 else "0" for j in range(self.ncols))
            for row in self.rows
        )


def build_parity_check(ctx: FieldCtx, pair: MonomialPair) -> ParityCheckMatrix:
    """Stack the coordinate rows of x, f(x), g(x) over all nonzero x."""
    n = ctx.n
    ncols = ctx.order - 1
    rows = [0] * (3 * n)
    for j in range(1, ctx.order):
        bit = 1 << (j - 1)
        fx = pair.f_table[j]
        gx = pair.g_table[j]
        for i in range(n):
            if (j >> i) & 1:
                rows[i] |= bit
            if (fx >> i) & 1:
                rows[n + i] |= bit
            if (gx >> i) & 1:
                rows[2 * n + i] |= bit
    return ParityCheckMatrix(n, ncols, rows, pair.family, pair.param)


def rank_and_dimension(H: ParityCheckMatrix) -> tuple[int, int]:
    """GF(2) rank of H and the code dimension (2^n - 1) - rank.

    Raises RankDefect when rank < 3n: the parameter formula presumes full
    rank, so a defect is surfaced rather than silently accepted.
    """
    rank, _, _ = gf2.row_reduce(H.rows, H.ncols)
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

    def support(self) -> list[int]:
        return [w for w, a in enumerate(self.coeffs) if a]

    def to_pairs(self) -> list[list[int]]:
        """JSON form [[w, A_w], ...] with zero coefficients omitted."""
        return [[w, a] for w, a in enumerate(self.coeffs) if a]

    def min_nonzero_weight(self) -> int:
        return next(w for w in range(1, self.length + 1) if self.coeffs[w])


def dual_weights_from_spectrum(
    ctx: FieldCtx,
    pair: MonomialPair,
    report: SpectrumReport,
    H: ParityCheckMatrix | None = None,
) -> WeightDistribution:
    """Weight distribution of the dual code from transform histograms.

    Requires full rank (dual words correspond bijectively to (a, b, c)
    triples).  The strata with b = c = 0 and with exactly one of b, c zero
    are computed here; the b, c nonzero stratum comes from the report.
    """
    if H is None:
        H = build_parity_check(ctx, pair)
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
    """Nullspace basis of H in systematic form.

    Row i has a lone 1 in message column message_cols[i]; encoding xors the
    rows selected by the message bits and messages read back off the
    codeword at those columns.
    """

    length: int
    rows: list[int]
    message_cols: list[int]

    @property
    def dimension(self) -> int:
        return len(self.rows)


def systematic_generator(H: ParityCheckMatrix) -> SystematicGenerator:
    basis, free_cols = gf2.nullspace_basis(H.rows, H.ncols)
    return SystematicGenerator(H.ncols, basis, free_cols)


def encode(gen: SystematicGenerator, message: int) -> int:
    """Codeword for a message int of gen.dimension bits."""
    if message >> gen.dimension:
        raise ValueError("message wider than the code dimension")
    word = 0
    i = 0
    while message:
        if message & 1:
            word ^= gen.rows[i]
        message >>= 1
        i += 1
    return word


def extract_message(gen: SystematicGenerator, word: int) -> int:
    """Read the message bits back off the systematic columns."""
    m = 0
    for i, col in enumerate(gen.message_cols):
        m |= ((word >> col) & 1) << i
    return m


def codeword_weight_distribution(ctx: FieldCtx, pair: MonomialPair) -> WeightDistribution:
    """Exhaustive weight count over all codewords.  n = 5 only (2^16 words)."""
    if ctx.n != 5:
        raise ValueError("exhaustive enumeration is limited to n = 5")
    H = build_parity_check(ctx, pair)
    rank_and_dimension(H)
    gen = systematic_generator(H)
    coeffs = [0] * (H.ncols + 1)
    coeffs[0] = 1
    word = 0
    # Gray-code walk: consecutive messages differ in one generator row.
    for m in range(1, 1 << gen.dimension):
        word ^= gen.rows[(m & -m).bit_length() - 1]
        coeffs[word.bit_count()] += 1
    return WeightDistribution(H.ncols, coeffs)


def min_distance_bruteforce(ctx: FieldCtx, pair: MonomialPair) -> int:
    """Minimum nonzero codeword weight by exhaustive enumeration (n = 5)."""
    return codeword_weight_distribution(ctx, pair).min_nonzero_weight()


def weight3_syndromes_distinct(ctx: FieldCtx, pair: MonomialPair) -> bool:
    """True iff all error patterns of weight <= 3 have distinct syndromes.

    Equivalent to minimum distance >= 7, independently of any transform
    computation.  Columns are packed as 3n-bit ints (x, f, g blocks, LSB
    first); every pattern's syndrome is built by index arithmetic and the
    sorted syndromes must not repeat.  Kept to n <= 7 (C(127,3) patterns).
    """
    if ctx.n > 7:
        raise ValueError("triple syndrome scan is limited to n <= 7")
    n = ctx.n
    cols = np.arange(1, ctx.order) | (pair.f_np[1:] << n) | (pair.g_np[1:] << 2 * n)
    i, j = np.triu_indices(cols.size, 1)
    pairs = cols[i] ^ cols[j]
    # pair (i, j) extends to the triples (i, j, l) with j < l
    reps = cols.size - 1 - j
    offset = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    triples = np.repeat(pairs, reps) ^ cols[np.repeat(j + 1, reps) + offset]
    syndromes = np.sort(np.concatenate(([0], cols, pairs, triples)))
    return bool((syndromes[1:] != syndromes[:-1]).all())
