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
    matrices = _matrices(random.Random(ncols), ncols)
    ranks = rank_array(np.array(matrices, dtype=np.int64), ncols)
    assert ranks.tolist() == [row_reduce(rows, ncols)[0] for rows in matrices]
    assert ranks[0] == 0 and ranks[1] == 1 and (ranks[2:6] == ncols).all()
