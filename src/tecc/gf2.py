"""Small GF(2) linear algebra on int bitmasks (bit i = column i)."""

from __future__ import annotations

import numpy as np


def row_reduce(rows: list[int], ncols: int) -> tuple[int, list[int], list[int]]:
    """Reduced row echelon form, pivoting on the lowest-index columns.

    Returns (rank, rref_rows, pivot_columns).  Input is not modified.
    """
    work = list(rows)
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(work)):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and ((work[r] >> col) & 1):
                work[r] ^= work[rank]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return rank, work, pivots


def rank_array(rows, ncols: int) -> np.ndarray:
    """GF(2) rank of every matrix in a batch, by array elimination.

    rows[i] holds the row bitmasks (at most 31 bits, so never negative) of
    matrix i.  Each round takes p, the largest row of each matrix, and
    replaces every row w by min(w, w ^ p).  That xors p into exactly the
    rows holding p's top bit t, p itself included, and keeps the rest: so
    no row keeps bit t, the rows left span a space p is not in, and a
    nonzero p takes one from the rank.  min(ncols, number of rows) rounds
    empty every matrix.
    """
    work = np.array(rows, dtype=np.int32).T.copy()  # work[r] is row r of every matrix
    rank = np.zeros(work.shape[1], dtype=np.int64)
    for _ in range(min(ncols, work.shape[0])):
        pivot = work.max(axis=0)
        np.minimum(work, work ^ pivot, out=work)
        rank += pivot != 0
    return rank


def to_int(bits: np.ndarray) -> int:
    """The int whose bit j is bits[j], for a vector of 0/1 uint8."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def to_bits(word: int, width: int) -> np.ndarray:
    """Bits 0..width-1 of an int (two's complement) as 0/1 uint8, bit j at index j."""
    low = word & ((1 << width) - 1)
    raw = np.frombuffer(low.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=width, bitorder="little")
