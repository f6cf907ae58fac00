"""Linearized maps, kernel extraction, and the per-family kernel scans."""

import random
import tracemalloc

import pytest

from tecc import (
    GoldKernelSummary,
    LinearizedMap,
    MonomialPair,
    gold_kernel_scan,
    gold_map,
    kasami_kernel_scan,
    power_table,
    transform_single,
)
from tecc import spectrum

from helpers import (
    eval_matrix,
    get_ctx,
    get_pair,
    gold_quadratic,
    kasami_g_form,
    kasami_identity_residual,
    kasami_map,
    kasami_quadratic,
    kernel_of,
    quadratic_pair_identity,
    scalar_gold_kernel_scan,
    scalar_kasami_kernel_scan,
    scalar_kasami_triple,
)

# s value distribution over all (b, c) in L* x L*, frozen from the
# exhaustive scan; identical for gold2 and gold3 at these sizes.
GOLD_N5_S_COUNTS = {1: 806, 3: 155}
GOLD_N7_S_COUNTS = {1: 13462, 3: 2667}
GOLD_N9_S_COUNTS = {1: 217686, 3: 43435}


def test_identity_map_kernel():
    ctx = get_ctx(5)
    ident = LinearizedMap(ctx, [(1, 0)])
    assert kernel_of(ident) == [0]


def test_zero_map_kernel_is_everything():
    ctx = get_ctx(5)
    zero = LinearizedMap(ctx, [])
    assert kernel_of(zero) == list(range(32))


def test_kernel_closed_under_xor_and_power_of_two():
    ctx = get_ctx(7)
    rng = random.Random(6)
    for _ in range(50):
        b, c = rng.randrange(1, 128), rng.randrange(1, 128)
        kern = kernel_of(gold_map(ctx, 2, 1, b, c))
        size = len(kern)
        assert size & (size - 1) == 0
        members = set(kern)
        assert 0 in members
        for u in kern:
            for v in kern:
                assert u ^ v in members


def test_map_linearity_and_matrix_agreement():
    ctx = get_ctx(5)
    rng = random.Random(7)
    for _ in range(20):
        b, c = rng.randrange(1, 32), rng.randrange(1, 32)
        lmap = gold_map(ctx, 3, 1, b, c)
        for u in range(32):
            assert eval_matrix(lmap, u) == lmap.eval_formula(u)
        for _ in range(50):
            u, v = rng.randrange(32), rng.randrange(32)
            assert lmap.eval_formula(u ^ v) == lmap.eval_formula(u) ^ lmap.eval_formula(v)


def test_kasami_map_matrix_agreement():
    ctx = get_ctx(7)
    rng = random.Random(8)
    for _ in range(10):
        a, b, c = rng.randrange(128), rng.randrange(1, 128), rng.randrange(1, 128)
        lmap = kasami_map(ctx, 1, a, b, c)
        for u in range(128):
            assert eval_matrix(lmap, u) == lmap.eval_formula(u)


def test_all_zero_coefficients_rejected():
    ctx = get_ctx(5)
    with pytest.raises(ValueError):
        gold_map(ctx, 2, 1, 0, 0)
    with pytest.raises(ValueError):
        kasami_map(ctx, 1, 0, 0, 0)


def test_gold_kernel_bound_n5():
    ctx = get_ctx(5)
    summary = gold_kernel_scan(ctx, get_pair("gold2", 5))
    assert summary.max_s <= 4
    assert summary.s_counts == GOLD_N5_S_COUNTS
    assert summary.all_consistent
    assert summary.pairs_checked == 31 * 31


def test_gold3_kernel_bound_n5():
    summary = gold_kernel_scan(get_ctx(5), get_pair("gold3", 5))
    assert summary.max_s <= 3
    assert summary.s_counts == GOLD_N5_S_COUNTS
    assert summary.all_consistent


def test_gold_scan_streams_its_rows(monkeypatch):
    # only the count of each s is kept, and each b's c rows come in batches:
    # 32 rows of 512 cells at a time peak far below the 2 MiB that s at all
    # 511^2 pairs alone would take
    ctx, pair = get_ctx(9), get_pair("gold2", 9)
    monkeypatch.setattr(spectrum, "_BATCH_CELLS", 1 << 14)
    tracemalloc.start()
    try:
        summary = gold_kernel_scan(ctx, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary == GoldKernelSummary("gold2", 9, 1, 2, 511 * 511, 3, GOLD_N9_S_COUNTS, True, [])
    assert peak < 1 << 20


def test_gold_scan_requires_gold_family():
    with pytest.raises(ValueError):
        gold_kernel_scan(get_ctx(5), get_pair("kasami5", 5))


def test_squared_transform_matches_kernel_dimension():
    # F^2 must be 0 or exactly 2^(n+s), with s odd whenever F != 0
    ctx = get_ctx(5)
    pair = get_pair("gold2", 5)
    rng = random.Random(9)
    for _ in range(40):
        b, c = rng.randrange(1, 32), rng.randrange(1, 32)
        s = len(gold_map(ctx, 2, 1, b, c).kernel_basis())
        for a in (0, rng.randrange(32), rng.randrange(32)):
            fw = transform_single(ctx, pair, a, b, c)
            assert fw * fw in (0, 1 << (5 + s))
            if fw:
                assert s % 2 == 1


def test_gold_quadratic_square_identity():
    # (F^w)^2 = 2^n * sum over kernel of (-1)^Tr(Q(u)) for the gold form
    ctx = get_ctx(5)
    pair = get_pair("gold3", 5)
    rng = random.Random(10)
    for _ in range(60):
        a = rng.randrange(32)
        b, c = rng.randrange(1, 32), rng.randrange(1, 32)
        kern = kernel_of(gold_map(ctx, 3, 1, b, c))
        char_sum = sum(1 - 2 * int(ctx.trace_table[gold_quadratic(ctx, 3, 1, a, b, c, u)])
                       for u in kern)
        fw = transform_single(ctx, pair, a, b, c)
        assert fw * fw == 32 * char_sum


def test_kasami_scan_sampled_n7():
    ctx = get_ctx(7)
    summary = kasami_kernel_scan(ctx, get_pair("kasami5", 7), samples=1500, seed=3)
    assert summary.permutation_ok
    assert summary.substitution_ok
    assert summary.all_consistent
    assert summary.s0_sizes_nonzero_fw <= {2, 8}
    assert summary.triples_checked == 1500


def test_kasami_scan_requires_kasami_family():
    with pytest.raises(ValueError):
        kasami_kernel_scan(get_ctx(5), get_pair("gold2", 5))


def test_kasami_reports_roundtrip():
    ctx = get_ctx(5)
    summary = kasami_kernel_scan(ctx, get_pair("kasami5", 5), samples=50, seed=1,
                                 exhaustive=False, keep_reports=10)
    assert len(summary.reports) == 10
    for rep in summary.reports:
        assert rep.consistent
        assert rep.S0_size + rep.S1_size == len(rep.kernel_elements)
        assert rep.S0_size - rep.S1_size in (0, len(rep.kernel_elements))
        assert rep.Fw**2 == 32 * (rep.S0_size - rep.S1_size)
        assert rep.to_json_dict()["s"] == rep.s


def test_substitution_is_permutation():
    # x -> x^(2^k+1) must hit every element exactly once when gcd(k,n)=1
    for n, k in ((5, 1), (7, 2), (9, 4)):
        ctx = get_ctx(n)
        images = {ctx.pow(x, (1 << k) + 1) for x in range(ctx.order)}
        assert len(images) == ctx.order


def test_g_form_flags_kernel_membership():
    ctx = get_ctx(5)
    rng = random.Random(12)
    for _ in range(80):
        a, b, c = rng.randrange(32), rng.randrange(1, 32), rng.randrange(1, 32)
        lmap = kasami_map(ctx, 1, a, b, c)
        kern = set(kernel_of(lmap))
        for u in range(32):
            g = kasami_g_form(ctx, 1, a, b, c, u)
            assert (g in (0, 1)) == (u in kern)
            if u in kern:
                tr_q = int(ctx.trace_table[kasami_quadratic(ctx, 1, a, b, c, u)])
                assert (g == 0) == (tr_q == 0)


def test_g_form_functional_equation():
    # G(u) + G(u)^(2^-k) = u * L(u) for every u, not just kernel members
    ctx = get_ctx(7)
    rng = random.Random(13)
    for _ in range(40):
        a, b, c = rng.randrange(128), rng.randrange(1, 128), rng.randrange(1, 128)
        lmap = kasami_map(ctx, 2, a, b, c)
        for _ in range(30):
            u = rng.randrange(128)
            g = kasami_g_form(ctx, 2, a, b, c, u)
            assert g ^ ctx.frobenius(g, -2) == ctx.mul(u, lmap.eval_formula(u))


def test_polarization_identity_matches_cross_terms():
    ctx = get_ctx(5)
    rng = random.Random(14)
    for _ in range(300):
        a, b, c = rng.randrange(32), rng.randrange(1, 32), rng.randrange(1, 32)
        u, v = rng.randrange(32), rng.randrange(32)
        form = lambda w: kasami_g_form(ctx, 1, a, b, c, w)
        assert quadratic_pair_identity(ctx, form, u, v) == kasami_identity_residual(
            ctx, 1, a, b, c, u, v
        )


def test_polarization_identity_vanishes_on_solution_triples():
    ctx = get_ctx(5)
    rng = random.Random(15)
    seen = 0
    while seen < 200:
        a, b, c = rng.randrange(32), rng.randrange(1, 32), rng.randrange(1, 32)
        kern = kernel_of(kasami_map(ctx, 1, a, b, c))
        s0 = [u for u in kern if kasami_g_form(ctx, 1, a, b, c, u) == 0]
        form = lambda w: kasami_g_form(ctx, 1, a, b, c, w)
        for u in s0:
            for v in s0:
                if u != v and v != 0 and (u ^ v) in s0:
                    assert quadratic_pair_identity(ctx, form, u, v) == 0
                    seen += 1


def _with_g7(family: str):
    """The family's n = 5 f table paired with g = x^7, under the family label."""
    ctx = get_ctx(5)
    pair = get_pair(family, 5)
    return ctx, MonomialPair(5, pair.d1, 7, pair.f_table, power_table(ctx, 7), family, pair.param)


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("family", ["gold2", "gold3"])
def test_gold_scan_matches_scalar_oracle(family, n):
    ctx, pair = get_ctx(n), get_pair(family, n)
    batched = gold_kernel_scan(ctx, pair, seed=n)
    assert batched == scalar_gold_kernel_scan(ctx, pair, seed=n)
    assert batched.s_counts == (GOLD_N5_S_COUNTS if n == 5 else GOLD_N7_S_COUNTS)


@pytest.mark.parametrize("family, count", [("gold2", 867), ("gold3", 869)])
def test_gold_scan_failures_match_scalar_oracle(family, count):
    ctx, bad = _with_g7(family)
    batched = gold_kernel_scan(ctx, bad)
    assert not batched.all_consistent
    assert len(batched.failures) == count
    assert batched == scalar_gold_kernel_scan(ctx, bad)


@pytest.mark.parametrize("n, samples, seed", [(5, 400, 2), (7, 1500, 3)])
def test_kasami_scan_matches_scalar_oracle(n, samples, seed):
    ctx, pair = get_ctx(n), get_pair("kasami5", n)
    batched = kasami_kernel_scan(ctx, pair, samples=samples, seed=seed, exhaustive=False,
                                 keep_reports=-1)
    assert len(batched.reports) == samples
    assert batched == scalar_kasami_kernel_scan(ctx, pair, samples=samples, seed=seed,
                                                exhaustive=False)


def test_kasami_scan_failures_match_scalar_oracle():
    ctx, bad = _with_g7("kasami5")
    batched = kasami_kernel_scan(ctx, bad, samples=200, seed=1, exhaustive=False,
                                 keep_reports=-1)
    assert not batched.substitution_ok
    assert len(batched.failures) == 157
    assert batched == scalar_kasami_kernel_scan(ctx, bad, samples=200, seed=1,
                                                exhaustive=False)


def test_kasami_exhaustive_order_and_reports_n5():
    ctx, pair = get_ctx(5), get_pair("kasami5", 5)
    summary = kasami_kernel_scan(ctx, pair, keep_reports=-1)
    triples = [(r.a, r.b, r.c) for r in summary.reports]
    assert triples == [(a, b, c) for b in range(1, 32) for c in range(1, 32) for a in range(32)]
    for rep in summary.reports[::97]:
        assert rep == scalar_kasami_triple(ctx, pair, 1, rep.a, rep.b, rep.c)[0]
