"""Shared cached builders: expensive artifacts are computed once per run."""

from functools import lru_cache

import numpy as np

from tecc import (
    FamilySpec,
    build_pair_index,
    build_parity_check,
    codeword_weight_distribution,
    dual_weights_from_spectrum,
    full_spectrum,
    instantiate,
    macwilliams_transform,
    make_ctx,
    systematic_generator,
)
from tecc.spectrum import transform_rows

FAMILIES = ("gold2", "gold3", "th", "kasami5")

# pass/fail lines from the acceptance suite; echoed in the terminal summary
ACCEPTANCE_LINES: list[str] = []


def spec_for(family: str, n: int) -> FamilySpec:
    """k = 1 for the gcd families, t = (n-1)/2 for th."""
    k = (n - 1) // 2 if family == "th" else 1
    return FamilySpec(family, k)


@lru_cache(maxsize=None)
def get_ctx(n: int):
    return make_ctx(n)


@lru_cache(maxsize=None)
def get_pair(family: str, n: int):
    return instantiate(spec_for(family, n), get_ctx(n))


@lru_cache(maxsize=None)
def get_report(family: str, n: int):
    return full_spectrum(get_ctx(n), get_pair(family, n))


@lru_cache(maxsize=None)
def get_H(family: str, n: int):
    return build_parity_check(get_ctx(n), get_pair(family, n))


@lru_cache(maxsize=None)
def get_generator(family: str, n: int):
    return systematic_generator(get_H(family, n))


@lru_cache(maxsize=None)
def get_pair_index(family: str, n: int):
    return build_pair_index(get_ctx(n), get_pair(family, n))


@lru_cache(maxsize=None)
def get_dual(family: str, n: int):
    ctx = get_ctx(n)
    return dual_weights_from_spectrum(ctx, get_pair(family, n), get_report(family, n), get_H(family, n))


@lru_cache(maxsize=None)
def get_code_dist(family: str, n: int):
    return macwilliams_transform(get_dual(family, n), 3 * n)


@lru_cache(maxsize=None)
def get_bruteforce_dist(family: str, n: int):
    return codeword_weight_distribution(get_ctx(n), get_pair(family, n))


def direct_spectrum(ctx, pair, b: int, c: int) -> np.ndarray:
    """Transform values for every a by direct summation over x (no FWHT).

    Index-faithful: entry a equals transform_single(ctx, pair, a, b, c).
    """
    xs = np.arange(ctx.order)
    masked = ctx.mul_array(b, pair.f_np) ^ ctx.mul_array(c, pair.g_np)
    ax = ctx.mul_array(xs[:, None], xs[None, :])
    signs = 1 - 2 * ctx.trace_table[ax ^ masked[None, :]].astype(np.int64)
    return signs.sum(axis=1)


def unreduced_histogram(ctx, pair) -> dict[int, int]:
    """The (a, b, c) value histogram over b, c in L*, one row batch per b,
    with no orbit reduction."""
    order = ctx.order
    cs = np.arange(1, order)
    counts = np.zeros(2 * order + 1, dtype=np.int64)
    for b in range(1, order):
        rows = transform_rows(ctx, pair.f_np, pair.g_np, b, cs)
        counts += np.bincount(rows.ravel().astype(np.int64) + order, minlength=2 * order + 1)
    return {v - order: int(cnt) for v, cnt in enumerate(counts) if cnt}
