"""GF(2) linear algebra: the batched rank against the scalar elimination."""

import random
from functools import reduce
from operator import xor

import numpy as np
import pytest

from tecc.gf2 import rank_array, row_reduce


def _matrices(rng: random.Random, ncols: int) -> list[list[int]]:
    """ncols x ncols matrices: all-zero, duplicate-row, full-rank (the
    identity under random row operations), low-rank and random."""
    size = 1 << ncols
    out = [[0] * ncols, [rng.randrange(1, size)] * ncols]
    for _ in range(4):
        full = [1 << i for i in range(ncols)]
        for _ in range(3 * ncols):
            i, j = rng.randrange(ncols), rng.randrange(ncols)
            if i != j:
                full[i] ^= full[j]
        rng.shuffle(full)
        out.append(full)
    for _ in range(4):
        basis = [rng.randrange(size) for _ in range(rng.randrange(1, ncols + 1))]
        out.append([reduce(xor, (v for v in basis if rng.random() < 0.5), 0)
                    for _ in range(ncols)])
    for _ in range(8):
        rows = [rng.randrange(size) for _ in range(ncols)]
        rows[rng.randrange(ncols)] = rows[rng.randrange(ncols)]
        out.append(rows)
    # every row with its top bit set: at ncols = 17, the widest rows a field
    # degree gives the int32 elimination
    out.append([rng.randrange(size >> 1, size) for _ in range(ncols)])
    return out


@pytest.mark.parametrize("ncols", range(1, 18))
def test_rank_array_matches_row_reduce(ncols):
    rng = random.Random(ncols)
    matrices = _matrices(rng, ncols)
    ranks = rank_array(np.array(matrices, dtype=np.int64), ncols)
    assert ranks.tolist() == [row_reduce(rows, ncols)[0] for rows in matrices]
    assert ranks[0] == 0 and ranks[1] == 1 and (ranks[2:6] == ncols).all()
    # one row; ncols + 3 rows, where the rank stops at ncols; and zero rows
    # among nonzero ones, each shape its own batch
    size = 1 << ncols
    single = [[0], [1 << (ncols - 1)]] + [[rng.randrange(size)] for _ in range(6)]
    tall = [[rng.randrange(size) for _ in range(ncols + 3)] for _ in range(6)]
    tall.append(rng.sample([1 << i for i in range(ncols)] + [0, 0, size - 1], ncols + 3))
    zeroed = [[v if rng.random() < 0.5 else 0 for v in rows] for rows in _matrices(rng, ncols)]
    batches = (single, tall, zeroed)
    got = [rank_array(np.array(batch, dtype=np.int64), ncols).tolist() for batch in batches]
    assert got == [[row_reduce(rows, ncols)[0] for rows in batch] for batch in batches]
    assert got[0][:2] == [0, 1] and got[1][-1] == ncols
