"""Linearized maps, kernel extraction, and the per-family kernel scans."""

import random
import tracemalloc

import numpy as np
import pytest

from tecc import (
    FamilySpec,
    GoldKernelSummary,
    LinearizedMap,
    gold_kernel_scan,
    gold_map,
    instantiate,
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
    kernel_basis,
    kernel_of,
    pair_with_g7,
    quadratic_pair_identity,
    scalar_gold_kernel_scan,
    scalar_kasami_fold,
    scalar_kasami_kernel_scan,
    scalar_kasami_reps,
    scalar_kasami_triple,
    unfolded_kasami_scan,
)

# s value distribution over all (b, c) in L* x L* with k = 1, frozen from
# the exhaustive scan: identical for gold2 and gold3 at n = 5 and 7; the
# n = 9 counts are gold2's.
GOLD_N5_S_COUNTS = {1: 806, 3: 155}
GOLD_N7_S_COUNTS = {1: 13462, 3: 2667}
GOLD_N9_S_COUNTS = {1: 217686, 3: 43435}
# Identical for gold2 and gold3 with k = 1.  The unfolded scan over all
# 2047^2 pairs gave these n = 11 counts in 27-29 s (2 vCPUs); the n = 13
# counts come from the folded scan only.
GOLD_N11_S_COUNTS = {1: 3492182, 3: 698027}
GOLD_N13_S_COUNTS = {1: 55911766, 3: 11180715}


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
    # only the count of each s is kept, and the representatives' rows and
    # the oracle samples come in batches: 32 rows of 512 cells at a time
    # peak far below the 2 MiB that s at all 511^2 pairs alone would take
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
    # the fold leaves 19 rows of 128 cells at n = 7, one batch, and the
    # samples take one batch of 64 naive sums
    ctx, pair = get_ctx(7), get_pair("gold2", 7)
    tracemalloc.start()
    try:
        summary = gold_kernel_scan(ctx, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.s_counts == GOLD_N7_S_COUNTS and summary.all_consistent
    assert peak < 1 << 20


def test_gold_scan_requires_gold_family():
    with pytest.raises(ValueError):
        gold_kernel_scan(get_ctx(5), get_pair("kasami5", 5))


@pytest.mark.parametrize("n", [11, 13])
@pytest.mark.parametrize("family", ["gold2", "gold3"])
def test_gold_scan_keeps_the_pinned_counts_at_larger_n(family, n):
    counts = GOLD_N11_S_COUNTS if n == 11 else GOLD_N13_S_COUNTS
    summary = gold_kernel_scan(get_ctx(n), get_pair(family, n))
    assert summary == GoldKernelSummary(family, n, 1, ((1 << n) - 1) ** 2, 3, counts, True, [])


def test_squared_transform_matches_kernel_dimension():
    # F^2 must be 0 or exactly 2^(n+s), with s odd whenever F != 0
    ctx = get_ctx(5)
    pair = get_pair("gold2", 5)
    rng = random.Random(9)
    for _ in range(40):
        b, c = rng.randrange(1, 32), rng.randrange(1, 32)
        s = len(kernel_basis(gold_map(ctx, 2, 1, b, c)))
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
    summary = kasami_kernel_scan(ctx, get_pair("kasami5", 7), samples=1500, seed=3,
                                 exhaustive=False)
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


@pytest.mark.parametrize("family", ["gold2", "gold3"])
def test_gold_scan_refuses_exponents_off_its_family(family):
    # L and the fold both assume (2^k + 1, 2^(tk) + 1); g = x^7 is neither
    ctx, bad = pair_with_g7(family)
    with pytest.raises(ValueError, match="exponents"):
        gold_kernel_scan(ctx, bad)


def _gold_samples(ctx, seed=0):
    """The (a, b, c) that gold_kernel_scan samples at this seed."""
    drawn = kernel._draw_triples(random.Random(seed), ctx.order, kernel._ORACLE_SAMPLES)
    return list(zip(*(x.tolist() for x in drawn)))


@pytest.mark.parametrize("family", ["gold2", "gold3"])
def test_gold_scan_failures_keep_their_order_across_batches(monkeypatch, family):
    # batches of 4 representatives at n = 7, and every third row doubled,
    # so |F| misses 2^((n+s)/2): the failing (1, c) of many batches come
    # back in ascending c, and the samples, which read no row, all pass
    ctx, pair = get_ctx(7), get_pair(family, 7)
    reps = spectrum.cyclotomic_cosets(ctx)[0]
    bad = reps[::3]
    rows = spectrum.transform_rows
    monkeypatch.setattr(spectrum, "transform_rows", lambda ctx, f, g, b, cs: (
        rows(ctx, f, g, b, cs) * np.where(np.isin(cs, bad), 2, 1)[:, None]))
    monkeypatch.setattr(spectrum, "_BATCH_CELLS", 1 << 9)
    summary = gold_kernel_scan(ctx, pair)
    assert reps.size > 4 * 4
    assert summary.failures == [(1, c) for c in bad.tolist()]
    assert summary.s_counts == GOLD_N7_S_COUNTS


def test_gold_scan_flags_values_off_the_odd_s_magnitude(monkeypatch):
    # a rank two short turns s = 1 and 3 into 3 and 5, still odd, so m
    # doubles and every row, each with some F != 0 (Parseval), must fail;
    # the samples' scalar s no longer matches the scan's either
    ctx = get_ctx(5)
    rank_array = kernel.gf2.rank_array
    monkeypatch.setattr(kernel.gf2, "rank_array", lambda cols, n: rank_array(cols, n) - 2)
    summary = gold_kernel_scan(ctx, get_pair("gold2", 5))
    assert summary.s_counts == {s + 2: count for s, count in GOLD_N5_S_COUNTS.items()}
    reps = spectrum.cyclotomic_cosets(ctx)[0]
    sampled = [(b, c) for _, b, c in _gold_samples(ctx)]
    assert summary.failures == [(1, c) for c in reps.tolist()] + sampled


def test_gold_scan_flags_nonzero_values_at_even_s(monkeypatch):
    # a rank one short turns s = 1 and 3 into 2 and 4; every row has some
    # F != 0 (Parseval), so m = 0 at even s must fail every representative,
    # although |F| = 2^3 = 2^floor((n + 2)/2) on the rows of true s = 1
    ctx = get_ctx(5)
    rank_array = kernel.gf2.rank_array
    monkeypatch.setattr(kernel.gf2, "rank_array", lambda cols, n: rank_array(cols, n) - 1)
    summary = gold_kernel_scan(ctx, get_pair("gold2", 5))
    assert summary.s_counts == {s + 1: count for s, count in GOLD_N5_S_COUNTS.items()}
    reps = spectrum.cyclotomic_cosets(ctx)[0]
    sampled = [(b, c) for _, b, c in _gold_samples(ctx)]
    assert summary.failures == [(1, c) for c in reps.tolist()] + sampled


def test_gold_scan_flags_a_sample_whose_scalar_s_differs(monkeypatch):
    # a rank one short raises every sample's scalar s by one; F^2 against
    # that s misses only where F != 0, the s match fails everywhere
    ctx, pair = get_ctx(7), get_pair("gold3", 7)
    samples = _gold_samples(ctx)
    assert any(transform_single(ctx, pair, a, b, c) == 0 for a, b, c in samples)
    row_reduce = kernel.gf2.row_reduce

    def short_rank(rows, n):
        rank, *rest = row_reduce(rows, n)
        return (rank - 1, *rest)

    monkeypatch.setattr(kernel.gf2, "row_reduce", short_rank)
    summary = gold_kernel_scan(ctx, pair)
    assert summary.s_counts == GOLD_N7_S_COUNTS
    assert summary.failures == [(b, c) for _, b, c in samples]


def test_gold_scan_flags_a_sample_whose_square_misses(monkeypatch):
    # a doubled naive sum leaves every row and every s alone; F^2 = 4 *
    # 2^(n+s) must fail exactly the samples with F != 0
    ctx, pair = get_ctx(7), get_pair("gold2", 7)
    naive = kernel.transform_single
    monkeypatch.setattr(kernel, "transform_single", lambda *args: 2 * naive(*args))
    summary = gold_kernel_scan(ctx, pair)
    expected = [(b, c) for a, b, c in _gold_samples(ctx) if transform_single(ctx, pair, a, b, c)]
    assert 0 < len(expected) < kernel._ORACLE_SAMPLES
    assert summary.failures == expected


def test_gold_scan_checks_the_fold_on_its_samples(monkeypatch):
    # the leader of g * c' instead of c' names a representative of another
    # coset: the samples whose s differs there must fail, the rows must not
    ctx, pair = get_ctx(7), get_pair("gold2", 7)
    leaders = spectrum.coset_leaders
    monkeypatch.setattr(kernel, "coset_leaders", lambda ctx, cs: leaders(
        ctx, ctx.mul_array(cs, ctx.generator)))
    summary = gold_kernel_scan(ctx, pair)
    sampled = [(b, c) for _, b, c in _gold_samples(ctx)]
    assert summary.s_counts == GOLD_N7_S_COUNTS
    assert 0 < len(summary.failures) < len(sampled)
    assert set(summary.failures) <= set(sampled)


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


def _kasami_samples(ctx, seed=0):
    """The (a, b, c) that the exhaustive kasami_kernel_scan samples at this
    seed, drawn after the substitution check's 32."""
    rng = random.Random(seed)
    kernel._draw_triples(rng, ctx.order, 32)
    drawn = kernel._draw_triples(rng, ctx.order, kernel._ORACLE_SAMPLES)
    return list(zip(*(x.tolist() for x in drawn)))


@pytest.mark.parametrize("n, count", [(5, 200), (7, 2324), (9, 29084)])
def test_kasami_reps_stand_for_every_triple(n, count):
    # one (0, 1, c) per cyclotomic coset and one (1, b, c) per Frobenius
    # orbit of L* x L*, ascending by key, weighted to 2^n (2^n - 1)^2 in all;
    # at n = 5 and 7 the Python-tuple orbits give the same list
    ctx = get_ctx(n)
    keys, a, b, c, weights = kernel._kasami_reps(ctx)
    assert keys.size == count and (np.diff(keys) > 0).all()
    assert int(weights.sum()) == ctx.order * ctx.group_order ** 2
    assert (keys == np.where(a == 1, b << n, 0) + c).all()
    if n < 9:
        assert list(zip(a.tolist(), b.tolist(), c.tolist(), weights.tolist())) == (
            scalar_kasami_reps(ctx))


@pytest.mark.parametrize("n", [5, 7, 9, 11])
@pytest.mark.parametrize("k", [1, 2])
def test_kasami_scan_is_exhaustive_by_default_to_n9(n, k):
    # and samples at n = 11, where 20 draws need not meet |S0| = 8
    ctx = get_ctx(n)
    pair = instantiate(FamilySpec("kasami5", k), ctx)
    summary = kasami_kernel_scan(ctx, pair, samples=20)
    assert summary.exhaustive == (n <= 9)
    assert summary.triples_checked == (ctx.order * ctx.group_order ** 2 if n <= 9 else 20)
    assert summary.all_consistent and summary.permutation_ok and summary.substitution_ok
    assert summary.s0_sizes_nonzero_fw <= {2, 8}
    assert summary.s0_sizes_nonzero_fw == {2, 8} or n > 9


def test_kasami_exhaustive_order_and_reports_n5():
    # the representatives in fold order, a = 0 first by ascending c, then
    # a = 1 by ascending (b, c), each report equal to the scalar one (k = 2;
    # the chunk-boundary test below covers k = 1)
    ctx = get_ctx(5)
    pair = instantiate(FamilySpec("kasami5", 2), ctx)
    summary = kasami_kernel_scan(ctx, pair, keep_reports=-1)
    assert [(r.a, r.b, r.c) for r in summary.reports] == [t[:3] for t in scalar_kasami_reps(ctx)]
    for rep in summary.reports:
        assert rep == scalar_kasami_triple(ctx, pair, 2, rep.a, rep.b, rep.c)[0]


@pytest.mark.parametrize("k", [1, 2])
def test_kasami_fold_matches_the_unfolded_scan_n5(k):
    # the representatives and their weights stand for all 30,752 triples
    # that the unfolded (b, c, a) scan checks one by one
    ctx = get_ctx(5)
    pair = instantiate(FamilySpec("kasami5", k), ctx)
    folded = kasami_kernel_scan(ctx, pair)
    unfolded = unfolded_kasami_scan(ctx, pair)
    fields = ("triples_checked", "max_s", "s0_sizes_nonzero_fw", "all_consistent",
              "permutation_ok", "substitution_ok")
    assert {f: getattr(folded, f) for f in fields} == {f: getattr(unfolded, f) for f in fields}
    assert unfolded.triples_checked == 32 * 31 * 31 and unfolded.s0_sizes_nonzero_fw == {2, 8}


def test_kasami_scan_flags_a_kernel_size_off_its_rank(monkeypatch):
    # a rank one short makes 2^s twice |K| for every triple; only the check
    # of the zero count of L against the rank of its columns can see it:
    # every representative fails, in fold order, then every sample
    rank_array = kernel.gf2.rank_array
    monkeypatch.setattr(kernel.gf2, "rank_array", lambda cols, n: rank_array(cols, n) - 1)
    ctx = get_ctx(5)
    summary = kasami_kernel_scan(ctx, get_pair("kasami5", 5))
    assert not summary.all_consistent
    assert summary.failures == [t[:3] for t in scalar_kasami_reps(ctx)] + _kasami_samples(ctx)


def test_kasami_chunk_boundaries_cannot_leak_into_the_kernel_cells(monkeypatch):
    # 2^12 cells make batches of 4 triples at n = 5, so the kernel cells that
    # np.nonzero gathers span many batch boundaries.  The scalar oracle
    # checks every representative and folds every sample by search, those
    # with a = 0 through b as well
    ctx, pair = get_ctx(5), get_pair("kasami5", 5)
    assert any(a == 0 for a, _, _ in _kasami_samples(ctx))
    default = kasami_kernel_scan(ctx, pair, keep_reports=-1)
    monkeypatch.setattr(spectrum, "_BATCH_CELLS", 1 << 12)
    small = kasami_kernel_scan(ctx, pair, keep_reports=-1)
    assert small == default
    assert small.triples_checked == 32 * 31 * 31 and len(small.reports) == 200
    assert small == scalar_kasami_kernel_scan(ctx, pair)


def test_kasami_scan_failures_keep_their_order_across_batches(monkeypatch):
    # batches of 4 representatives at n = 7, and every triple with 3 | c
    # marked failing: the failing representatives of many batches come back
    # in fold order, then the failing samples in draw order
    ctx, pair = get_ctx(7), get_pair("kasami5", 7)
    check = kernel._check_kasami_chunk

    def marked(ctx, pair, k, a, b, c):
        *rest, ok = check(ctx, pair, k, a, b, c)
        return (*rest, ok & (c % 3 != 0))

    monkeypatch.setattr(kernel, "_check_kasami_chunk", marked)
    monkeypatch.setattr(spectrum, "_BATCH_CELLS", 1 << 14)
    summary = kasami_kernel_scan(ctx, pair)
    reps = [t[:3] for t in scalar_kasami_reps(ctx) if t[2] % 3 == 0]
    sampled = [t for t in _kasami_samples(ctx) if t[2] % 3 == 0]
    assert len(reps) > 4 * 4 and sampled
    assert summary.failures == reps + sampled
    assert summary.triples_checked == ctx.order * ctx.group_order ** 2


def test_kasami_scan_checks_the_fold_on_its_samples(monkeypatch):
    # the leaders of (b, g * c) instead of (b, c) still key one triple per
    # orbit, each of which passes, but not the orbit of the sample's fold:
    # the samples whose values differ there must fail, the representatives
    # must not
    ctx, pair = get_ctx(7), get_pair("kasami5", 7)
    leaders = spectrum.coset_leaders
    monkeypatch.setattr(kernel, "coset_leaders", lambda ctx, cs, bs=0: leaders(
        ctx, ctx.mul_array(cs, ctx.generator), bs))
    summary = kasami_kernel_scan(ctx, pair)
    sampled = _kasami_samples(ctx)
    assert summary.triples_checked == ctx.order * ctx.group_order ** 2
    assert 0 < len(summary.failures) < len(sampled)
    assert set(summary.failures) <= set(sampled)


def test_kasami_scan_fails_a_sample_whose_orbit_it_did_not_check(monkeypatch):
    # every other representative dropped: the samples that fold onto a
    # dropped one must fail, even where a neighbour shares their values
    ctx, pair = get_ctx(5), get_pair("kasami5", 5)
    reps = kernel._kasami_reps
    monkeypatch.setattr(kernel, "_kasami_reps", lambda ctx: tuple(x[::2] for x in reps(ctx)))
    summary = kasami_kernel_scan(ctx, pair, keep_reports=-1)
    kept = {(r.a, r.b, r.c) for r in summary.reports}
    dropped = [t for t in _kasami_samples(ctx) if scalar_kasami_fold(ctx, 1, *t) not in kept]
    assert len(summary.reports) == 100 and dropped
    assert summary.failures == dropped


def test_kasami_exhaustive_scan_refuses_exponents_off_its_family():
    # L and the fold both assume the kasami5 exponents; g = x^7 is not one.
    # The sampled scan still takes the pair and reports its failures
    ctx, bad = pair_with_g7("kasami5")
    with pytest.raises(ValueError, match="exponents"):
        kasami_kernel_scan(ctx, bad)
    assert not kasami_kernel_scan(ctx, bad, samples=10, exhaustive=False).substitution_ok


def test_kasami_exhaustive_scan_refuses_n_above_11(monkeypatch):
    # the (b, c) table has 2^(2n) entries: refused before it is built
    def unbuilt(ctx):
        raise AssertionError("the representatives were built")

    monkeypatch.setattr(kernel, "_kasami_reps", unbuilt)
    with pytest.raises(ValueError, match="n <= 11"):
        kasami_kernel_scan(get_ctx(13), get_pair("kasami5", 13), exhaustive=True)


def test_kasami_sampled_chunks_draw_what_one_draw_does(monkeypatch):
    # 2^14 cells make batches of 4 triples at n = 7, one draw each; they
    # must sample the triples that the default batches of 512 do
    ctx, pair = get_ctx(7), get_pair("kasami5", 7)
    options = dict(samples=1000, seed=4, exhaustive=False, keep_reports=-1)
    default = kasami_kernel_scan(ctx, pair, **options)
    monkeypatch.setattr(spectrum, "_BATCH_CELLS", 1 << 14)
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
