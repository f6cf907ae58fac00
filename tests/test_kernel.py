"""Linearized maps, kernel extraction, and the per-family kernel scans."""

import random
import tracemalloc

import pytest

from tecc import (
    GoldKernelSummary,
    LinearizedMap,
    gold_kernel_scan,
    gold_map,
    kasami_kernel_scan,
    transform_single,
)
from tecc import kernel, spectrum

import helpers

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
    pair_with_g7,
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
    assert summary == GoldKernelSummary("gold2", 9, 1, 511 * 511, 3, GOLD_N9_S_COUNTS, True, [])
    assert peak < 1 << 20


def test_gold_scan_footprint_at_the_benchmark_size():
    # the default blocks at n = 7 hold 4 values of b against all 127 c
    # (2^16 cells); blocks of a whole spectrum batch would take about 20 MiB
    ctx, pair = get_ctx(7), get_pair("gold2", 7)
    tracemalloc.start()
    try:
        summary = gold_kernel_scan(ctx, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.s_counts == GOLD_N7_S_COUNTS and summary.all_consistent
    assert peak < 2 << 20


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


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("family", ["gold2", "gold3"])
def test_gold_scan_matches_scalar_oracle(family, n):
    ctx, pair = get_ctx(n), get_pair(family, n)
    batched = gold_kernel_scan(ctx, pair, seed=n)
    assert batched == scalar_gold_kernel_scan(ctx, pair, seed=n)
    assert batched.s_counts == (GOLD_N5_S_COUNTS if n == 5 else GOLD_N7_S_COUNTS)


@pytest.mark.parametrize("family, count", [("gold2", 865), ("gold3", 864)])
def test_gold_scan_failures_match_scalar_oracle(family, count):
    ctx, bad = pair_with_g7(family)
    batched = gold_kernel_scan(ctx, bad)
    assert not batched.all_consistent
    assert len(batched.failures) == count
    assert batched == scalar_gold_kernel_scan(ctx, bad)


@pytest.mark.parametrize("family, count", [("gold2", 865), ("gold3", 864)])
def test_gold_scan_failures_keep_their_order_across_blocks(monkeypatch, family, count):
    # c batches of 8 rows and blocks of 8 or 9 values of b at n = 5, so the
    # failing (b, c) of many blocks are gathered back into (b, c) order
    ctx, bad = pair_with_g7(family)
    monkeypatch.setattr(spectrum, "_BATCH_CELLS", 1 << 8)
    monkeypatch.setattr(kernel, "_CHUNK_CELLS", 1 << 11)
    batched = gold_kernel_scan(ctx, bad)
    assert len(batched.failures) == count
    assert batched == scalar_gold_kernel_scan(ctx, bad)


def test_gold_scan_flags_nonzero_values_at_even_s(monkeypatch):
    # a rank one short turns s = 1 and 3 into 2 and 4; every row has some
    # F != 0 (Parseval), so m = 0 at even s must fail every (b, c), although
    # |F| = 2^3 = 2^floor((n + 2)/2) on the rows of true s = 1
    rank_array = kernel.gf2.rank_array
    monkeypatch.setattr(kernel.gf2, "rank_array", lambda cols, n: rank_array(cols, n) - 1)
    summary = gold_kernel_scan(get_ctx(5), get_pair("gold2", 5))
    assert summary.s_counts == {s + 1: count for s, count in GOLD_N5_S_COUNTS.items()}
    assert summary.failures[:31 * 31] == [(b, c) for b in range(1, 32) for c in range(1, 32)]
    assert len(summary.failures) == 31 * 31 + kernel._ORACLE_SAMPLES


@pytest.mark.parametrize("n, samples, seed", [(5, 400, 2), (7, 1500, 3)])
def test_kasami_scan_matches_scalar_oracle(n, samples, seed):
    ctx, pair = get_ctx(n), get_pair("kasami5", n)
    batched = kasami_kernel_scan(ctx, pair, samples=samples, seed=seed, exhaustive=False,
                                 keep_reports=-1)
    assert len(batched.reports) == samples
    assert batched == scalar_kasami_kernel_scan(ctx, pair, samples=samples, seed=seed,
                                                exhaustive=False)


def test_kasami_scan_failures_match_scalar_oracle():
    ctx, bad = pair_with_g7("kasami5")
    batched = kasami_kernel_scan(ctx, bad, samples=200, seed=1, exhaustive=False,
                                 keep_reports=-1)
    assert not batched.substitution_ok
    assert len(batched.failures) == 155
    assert batched == scalar_kasami_kernel_scan(ctx, bad, samples=200, seed=1,
                                                exhaustive=False)


def test_kasami_exhaustive_order_and_reports_n5():
    ctx, pair = get_ctx(5), get_pair("kasami5", 5)
    summary = kasami_kernel_scan(ctx, pair, keep_reports=-1)
    triples = [(r.a, r.b, r.c) for r in summary.reports]
    assert triples == [(a, b, c) for b in range(1, 32) for c in range(1, 32) for a in range(32)]
    for rep in summary.reports[::97]:
        assert rep == scalar_kasami_triple(ctx, pair, 1, rep.a, rep.b, rep.c)[0]


def test_kasami_scan_flags_a_kernel_size_off_its_rank(monkeypatch):
    # a rank one short makes 2^s twice |K| for every triple; only the check
    # of the zero count of L against the rank of its columns can see it
    rank_array = kernel.gf2.rank_array
    monkeypatch.setattr(kernel.gf2, "rank_array", lambda cols, n: rank_array(cols, n) - 1)
    summary = kasami_kernel_scan(get_ctx(5), get_pair("kasami5", 5))
    assert not summary.all_consistent
    assert summary.failures == [(a, b, c) for b in range(1, 32) for c in range(1, 32)
                                for a in range(32)]


def test_kasami_chunk_boundaries_cannot_leak_into_the_kernel_cells(monkeypatch):
    # 2^7 cells make chunks of 4 triples at n = 5, so the kernel cells that
    # np.nonzero gathers span many chunk boundaries
    ctx, pair = get_ctx(5), get_pair("kasami5", 5)
    default = kasami_kernel_scan(ctx, pair, keep_reports=-1)
    monkeypatch.setattr(kernel, "_CHUNK_CELLS", 1 << 7)
    small = kasami_kernel_scan(ctx, pair, keep_reports=-1)
    assert small == default
    assert small.triples_checked == len(small.reports) == 32 * 31 * 31
    assert small == scalar_kasami_kernel_scan(ctx, pair)


def test_kasami_sampled_chunks_draw_what_one_draw_does(monkeypatch):
    # 2^9 cells make chunks of 4 triples at n = 7, one draw each; they must
    # sample the triples that the default chunks of 512 do
    ctx, pair = get_ctx(7), get_pair("kasami5", 7)
    options = dict(samples=1000, seed=4, exhaustive=False, keep_reports=-1)
    default = kasami_kernel_scan(ctx, pair, **options)
    monkeypatch.setattr(kernel, "_CHUNK_CELLS", 1 << 9)
    assert kasami_kernel_scan(ctx, pair, **options) == default


def test_kasami_samples_do_not_depend_on_the_substitution_verdict():
    # the substitution check draws its 32 triples at once and has no early
    # exit, so a pair that fails it samples the triples a sound pair does
    ctx = get_ctx(5)
    options = dict(samples=50, seed=9, exhaustive=False, keep_reports=-1)
    good = kasami_kernel_scan(ctx, get_pair("kasami5", 5), **options)
    bad = kasami_kernel_scan(ctx, pair_with_g7("kasami5")[1], **options)
    assert good.substitution_ok and not bad.substitution_ok
    assert [(r.a, r.b, r.c) for r in good.reports] == [(r.a, r.b, r.c) for r in bad.reports]


def test_kasami_g_check_on_kernel_cells_matches_scalar_oracle(monkeypatch):
    # G without its a-term breaks G in {0, 1} and the S0 split on part of
    # K: the kernel-cell check must flag the triples the scalar one flags
    ctx, pair = get_ctx(5), get_pair("kasami5", 5)
    broken = kernel._G_TERMS[1:]
    monkeypatch.setattr(kernel, "_G_TERMS", broken)
    monkeypatch.setattr(helpers, "_G_TERMS", broken)
    batched = kasami_kernel_scan(ctx, pair, samples=300, seed=4, exhaustive=False,
                                 keep_reports=-1)
    assert 0 < len(batched.failures) < 300
    assert batched == scalar_kasami_kernel_scan(ctx, pair, samples=300, seed=4, exhaustive=False)
