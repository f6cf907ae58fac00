"""Linearized maps, kernel extraction, and the per-family kernel scans."""

import dataclasses
import random
import tracemalloc
from collections import Counter

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
    monomial_pair,
    transform_single,
)
from tecc import kernel, spectrum
from tecc.functions import gold_shift

import helpers

from helpers import (
    PerTripleForms,
    eval_matrix,
    get_ctx,
    get_pair,
    get_report,
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
    unfolded_gold_s_counts,
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
        kern = kernel_of(gold_map(ctx, 1, 2, b, c))
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
        lmap = gold_map(ctx, 1, 3, b, c)
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
        gold_map(ctx, 1, 2, 0, 0)
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
    assert summary == GoldKernelSummary("gold2", 9, 1, 3, GOLD_N9_S_COUNTS, 511 * 511, True, [])
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
    assert summary == GoldKernelSummary(family, n, 1, 3, counts, ((1 << n) - 1) ** 2, True, [])


def test_squared_transform_matches_kernel_dimension():
    # F^2 must be 0 or exactly 2^(n+s), with s odd whenever F != 0
    ctx = get_ctx(5)
    pair = get_pair("gold2", 5)
    rng = random.Random(9)
    for _ in range(40):
        b, c = rng.randrange(1, 32), rng.randrange(1, 32)
        s = len(kernel_basis(gold_map(ctx, 1, 2, b, c)))
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
        kern = kernel_of(gold_map(ctx, 1, 3, b, c))
        char_sum = sum(1 - 2 * int(ctx.trace_table[gold_quadratic(ctx, 1, 3, a, b, c, u)])
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
        assert rep.S0 + rep.S1 == len(rep.kernel)
        assert rep.S0 - rep.S1 in (0, len(rep.kernel))
        assert rep.Fw**2 == 32 * (rep.S0 - rep.S1)
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


def test_gold_shift_reads_gold_exponents_only():
    ctx = get_ctx(9)
    assert [gold_shift(ctx, (1 << i) + 1) for i in range(1, 9)] == list(range(1, 9))
    assert gold_shift(ctx, 9 + ctx.group_order) == 3  # exponents count mod 2^n - 1
    assert [gold_shift(ctx, d) for d in (0, 1, 2, 7, 11)] == [None] * 5


@pytest.mark.parametrize("n, d1, d2, i, j", [(7, 5, 9, 2, 3), (9, 3, 33, 1, 5)])
def test_gold_scan_reads_its_shifts_from_the_exponents(n, d1, d2, i, j):
    # pairs of Gold exponents under no family label, neither gold2 nor gold3
    # with k = 1: the folded scan must count what every (b, c) gives
    ctx = get_ctx(n)
    summary = gold_kernel_scan(ctx, monomial_pair(ctx, d1, d2))
    assert (summary.family, summary.k, summary.max_s) == (None, None, 3)
    assert summary.all_consistent and summary.pairs_checked == ctx.group_order ** 2
    assert summary.s_counts == unfolded_gold_s_counts(ctx, i, j)


def test_gold_scan_of_an_unlabelled_gold2_pair():
    ctx = get_ctx(7)
    summary = gold_kernel_scan(ctx, monomial_pair(ctx, 3, 5))
    assert summary.s_counts == GOLD_N7_S_COUNTS and summary.all_consistent


def test_gold_scan_refuses_unlabelled_exponents_off_gold():
    ctx = get_ctx(5)
    with pytest.raises(ValueError, match="exponents"):
        gold_kernel_scan(ctx, monomial_pair(ctx, 3, 7))


def test_records_are_their_fields_in_order():
    # the JSON keys are the field names, in the order table output prints
    ctx = get_ctx(5)
    kasami = kasami_kernel_scan(ctx, get_pair("kasami5", 5), keep_reports=1)
    gold = gold_kernel_scan(ctx, get_pair("gold2", 5))
    for r in (get_report("gold2", 5), gold, kasami, kasami.reports[0]):
        assert list(r.to_json_dict()) == [f.name for f in dataclasses.fields(r)]
    # shallow: a field passed through is the field itself, not a copy
    assert kasami.reports[0].to_json_dict()["kernel"] is kasami.reports[0].kernel


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
    reps = spectrum.frobenius_reps(ctx)[0]
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
    reps = spectrum.frobenius_reps(ctx)[0]
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
    reps = spectrum.frobenius_reps(ctx)[0]
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
    fold = spectrum.fold_keys
    monkeypatch.setattr(kernel, "fold_keys", lambda ctx, pair, a, b, c: fold(
        ctx, pair, a, b, ctx.mul_array(c, ctx.generator)))
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


@pytest.mark.parametrize("n, count", [(5, 224), (7, 2432), (9, 30208)])
def test_kasami_reps_stand_for_every_triple(n, count):
    # every a on the row b = 1 of orbit_rows, one c per cyclotomic coset,
    # in (c, a) order, each cell weighted as its c, 2^n (2^n - 1)^2 in all;
    # they are the Python-tuple cells, and at n = 5 and 7 the scan checks
    # them in that order
    ctx, pair = get_ctx(n), get_pair("kasami5", n)
    cells = scalar_kasami_reps(ctx)
    b, cs, weights = next(spectrum.orbit_rows(ctx, pair.d1))
    assert b == 1 and len(cells) == count
    assert sum(t[3] for t in cells) == ctx.order * ctx.group_order ** 2
    assert cells == [(a, 1, c, w) for c, w in zip(cs.tolist(), weights.tolist())
                     for a in range(ctx.order)]
    if n < 9:
        summary = kasami_kernel_scan(ctx, pair, keep_reports=-1)
        assert [(r.a, r.b, r.c) for r in summary.reports] == [t[:3] for t in cells]
        assert summary.triples_checked == ctx.order * ctx.group_order ** 2


def test_frobenius_orbit_sizes_match_python_orbits_n9():
    # GF(8) lies in GF(2^9): its pairs have orbits of size 3, but the pairs
    # in {0, 1}^2 are fixed; 400 drawn pairs of L x L cover the rest
    ctx = get_ctx(9)
    sub = [0] + [ctx.pow(ctx.generator, 73 * i) for i in range(7)]  # x^8 = x
    rng = random.Random(5)
    pairs = [(b, c) for b in sub for c in sub]
    pairs += [(rng.randrange(ctx.order), rng.randrange(ctx.order)) for _ in range(400)]
    bs, cs = np.array(pairs).T
    leaders, sizes = spectrum.frobenius_orbits(ctx, cs, bs)
    orbits = [{(ctx.frobenius(b, j), ctx.frobenius(c, j)) for j in range(9)} for b, c in pairs]
    assert leaders.tolist() == [min(b << 9 | c for b, c in orbit) for orbit in orbits]
    assert sizes.tolist() == [len(orbit) for orbit in orbits]
    assert sizes[:64].tolist() == [1 if b < 2 and c < 2 else 3 for b, c in pairs[:64]]


def test_kasami_exhaustive_scan_streams_its_cells(monkeypatch):
    # the 30,208 cells at n = 9 come from index arithmetic over (c, a), 8 at
    # a time, with no array over all of them: from building the row of cells
    # to folding the samples, the traced memory grows by less than one int64
    # entry per cell would take.  The per-cell checks, whose temporaries
    # follow the batch, not the cell count, are stubbed out to keep the
    # 3,776 batches fast; the stub still sees every cell once
    ctx, pair = get_ctx(9), get_pair("kasami5", 9)
    rows, fold, traced, seen = spectrum.orbit_rows, spectrum.fold_keys, [], Counter()

    def rows_opening_the_window(ctx, d1):
        tracemalloc.reset_peak()
        traced.append(tracemalloc.get_traced_memory()[0])
        return rows(ctx, d1)

    def fold_closing_the_window(*args):
        traced.append(tracemalloc.get_traced_memory()[1])
        return fold(*args)

    def unchecked(forms, a, b, c):
        seen[a.size] += 1
        zeros = np.zeros_like(a)
        return zeros, zeros[:0], zeros, zeros, zeros, zeros, zeros == 0

    monkeypatch.setattr(kernel, "orbit_rows", rows_opening_the_window)
    monkeypatch.setattr(kernel, "fold_keys", fold_closing_the_window)
    monkeypatch.setattr(kernel, "_check_kasami_chunk", unchecked)
    monkeypatch.setattr(spectrum, "_BATCH_CELLS", 1 << 17)
    tracemalloc.start()
    try:
        summary = kasami_kernel_scan(ctx, pair)
    finally:
        tracemalloc.stop()
    assert summary.triples_checked == ctx.order * ctx.group_order ** 2 and summary.all_consistent
    assert seen == {8: 30208 // 8, kernel._ORACLE_SAMPLES: 2}
    start, peak = traced
    assert peak - start < 30208 * 8


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
    # the cells in (c, a) order, each report equal to the scalar one (k = 2;
    # the chunk-boundary test below covers k = 1)
    ctx = get_ctx(5)
    pair = instantiate(FamilySpec("kasami5", 2), ctx)
    summary = kasami_kernel_scan(ctx, pair, keep_reports=-1)
    assert [(r.a, r.b, r.c) for r in summary.reports] == [t[:3] for t in scalar_kasami_reps(ctx)]
    for rep in summary.reports:
        assert rep == scalar_kasami_triple(ctx, pair, 2, rep.a, rep.b, rep.c)[0]


@pytest.mark.parametrize("k", [1, 2])
def test_kasami_fold_matches_the_unfolded_scan_n5(k):
    # the cells and their weights stand for all 30,752 triples
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
    # every cell fails, in (c, a) order, then every sample
    rank_array = kernel.gf2.rank_array
    monkeypatch.setattr(kernel.gf2, "rank_array", lambda cols, n: rank_array(cols, n) - 1)
    ctx = get_ctx(5)
    summary = kasami_kernel_scan(ctx, get_pair("kasami5", 5))
    assert not summary.all_consistent
    assert summary.failures == [t[:3] for t in scalar_kasami_reps(ctx)] + _kasami_samples(ctx)


def test_kasami_chunk_boundaries_cannot_leak_into_the_kernel_cells(monkeypatch):
    # 2^12 cells make batches of 4 triples at n = 5, so the kernel cells that
    # np.nonzero gathers span many batch boundaries.  The scalar oracle
    # checks every cell and folds every sample by a search through b
    ctx, pair = get_ctx(5), get_pair("kasami5", 5)
    default = kasami_kernel_scan(ctx, pair, keep_reports=-1)
    monkeypatch.setattr(spectrum, "_BATCH_CELLS", 1 << 12)
    small = kasami_kernel_scan(ctx, pair, keep_reports=-1)
    assert small == default
    assert small.triples_checked == 32 * 31 * 31 and len(small.reports) == 224
    assert small == scalar_kasami_kernel_scan(ctx, pair)


@pytest.mark.parametrize("n", [7, 5])
def test_kasami_scan_failures_keep_their_order_across_batches(monkeypatch, n):
    # 2^14 cells make batches of 4 cells at n = 7, with 2-bit chunks, and
    # of 16 at n = 5, in one chunk;
    # every triple with 3 | c marked failing: the failing cells of many
    # batches come back in (c, a) order, then the failing samples in draw order
    ctx, pair = get_ctx(n), get_pair("kasami5", n)
    check = kernel._check_kasami_chunk

    def marked(forms, a, b, c):
        *rest, ok = check(forms, a, b, c)
        return (*rest, ok & (c % 3 != 0))

    monkeypatch.setattr(kernel, "_check_kasami_chunk", marked)
    monkeypatch.setattr(spectrum, "_BATCH_CELLS", 1 << 14)
    summary = kasami_kernel_scan(ctx, pair)
    reps = [t[:3] for t in scalar_kasami_reps(ctx) if t[2] % 3 == 0]
    sampled = [t for t in _kasami_samples(ctx) if t[2] % 3 == 0]
    assert len(reps) > 4 * 4 and sampled
    assert summary.failures == reps + sampled
    assert summary.triples_checked == ctx.order * ctx.group_order ** 2


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("k", [1, 2])
def test_kasami_chunk_widths_agree(monkeypatch, n, k):
    # the chunked tables change only the order in which each value's field
    # products are xored: exhaustive and sampled, every field and report of
    # one chunk (the default budget) is that of several (2^(2n+3) batch
    # cells) and that of the forms evaluated at each triple
    ctx = get_ctx(n)
    pair = instantiate(FamilySpec("kasami5", k), ctx)
    runs = [{}, dict(samples=300, seed=0, exhaustive=False),
            dict(samples=300, seed=3, exhaustive=False)]

    def scans():
        return [kasami_kernel_scan(ctx, pair, keep_reports=-1, **run) for run in runs]

    one_chunk = scans()
    assert kernel._KasamiForms(ctx, pair).width == n
    monkeypatch.setattr(spectrum, "_BATCH_CELLS", 1 << (2 * n + 3))
    assert kernel._KasamiForms(ctx, pair).width < n
    assert scans() == one_chunk
    monkeypatch.setattr(kernel, "_KasamiForms", PerTripleForms)
    assert scans() == one_chunk
    assert one_chunk[0].exhaustive and len(one_chunk[1].reports) == 300


@pytest.mark.parametrize("n, budget", [
    pytest.param(5, None, id="5"),
    pytest.param(7, None, id="7"),
    pytest.param(5, 1 << 13, id="5-chunked"),
    pytest.param(7, 1 << 17, id="7-chunked"),
    pytest.param(9, None, id="9"),
    pytest.param(11, None, id="11"),
])
def test_kasami_slot_tables_match_the_term_oracles(monkeypatch, n, budget):
    # on 64 seeded triples the tables' rows give the L of _eval_terms over
    # _kasami_terms and the F of transform_single, and their cells the Q
    # and G of the scalar forms at one drawn u per triple: in one chunk at
    # the default budget to n = 7, and past it in several, the last partial
    if budget is not None:
        monkeypatch.setattr(spectrum, "_BATCH_CELLS", budget)
    ctx, pair = get_ctx(n), get_pair("kasami5", n)
    k, rng = pair.param, random.Random(n)
    forms = kernel._KasamiForms(ctx, pair)
    assert forms.width == n if n <= 7 and budget is None else n % forms.width > 0
    a, b, c = kernel._draw_triples(rng, ctx.order, 64)
    rows = forms.batch_rows(a, b, c)
    want = kernel._eval_terms(ctx, kernel._kasami_terms(ctx.frobenius_array, k, a, b, c),
                              np.arange(ctx.order))
    assert (forms.ell_rows(rows) == want).all()
    assert (forms.transform(rows) == transform_single(ctx, pair, a, b, c)).all()
    us = np.array([rng.randrange(ctx.order) for _ in range(64)])
    cells = list(zip(a.tolist(), b.tolist(), c.tolist(), us.tolist()))
    assert forms.cells(kernel._Q, rows << n | us).tolist() == [
        kasami_quadratic(ctx, k, *cell) for cell in cells]
    assert forms.cells(kernel._G, rows << n | us).tolist() == [
        kasami_g_form(ctx, k, *cell) for cell in cells]


def test_kasami_chunk_rows_agree_at_every_width(monkeypatch):
    # each coefficient 0..127 alone in each slot, at every point: every chunk
    # width's L rows, F and Q and G cells are the one-chunk tables', which a
    # wrong zero-row remap or a wrongly masked last chunk would break where
    # the seeded scans may not look
    ctx, pair = get_ctx(7), get_pair("kasami5", 7)
    every, zero = np.arange(ctx.order), np.zeros(ctx.order, np.int64)

    def values(forms):
        out = []
        for slot in range(3):
            rows = forms.batch_rows(*[every if j == slot else zero for j in range(3)])
            cells = (rows[..., None] << ctx.n | every).reshape(len(rows), -1)
            out += [forms.ell_rows(rows).copy(), forms.transform(rows),
                    forms.cells(kernel._Q, cells), forms.cells(kernel._G, cells)]
        return out

    one_chunk = values(kernel._KasamiForms(ctx, pair))
    for w in range(1, 8):
        # the zero row and each chunk's nonzero values fill the nine tables
        rows = 1 + sum((1 << min(w, 7 - lo)) - 1 for lo in range(0, 7, w))
        monkeypatch.setattr(spectrum, "_BATCH_CELLS", 9 * rows << ctx.n)
        forms = kernel._KasamiForms(ctx, pair)
        assert forms.width == w and forms.tables.shape[1] == 3 * rows
        for got, want in zip(values(forms), one_chunk, strict=True):
            assert (got == want).all(), w


def test_kasami_scan_frees_the_substitution_check_before_its_cells(monkeypatch):
    # at n = 9 the substitution check's 32 x 512 int64 values of Q (128 KiB)
    # must be gone when the first batch starts, when the tables are all
    # that a scan holds
    ctx, pair = get_ctx(9), get_pair("kasami5", 9)
    check, traced = kernel._check_kasami_chunk, []

    def first_batch(forms, a, b, c):
        tables = forms.tables.nbytes + forms.traces.nbytes
        traced.append(tracemalloc.get_traced_memory()[0] - tables)
        return check(forms, a, b, c)

    monkeypatch.setattr(kernel, "_check_kasami_chunk", first_batch)
    tracemalloc.start()
    try:
        summary = kasami_kernel_scan(ctx, pair, samples=40, exhaustive=False)
    finally:
        tracemalloc.stop()
    assert summary.all_consistent and len(traced) == 1
    assert traced[0] < 64 << 10


def test_kasami_scan_checks_the_fold_on_its_samples(monkeypatch):
    # folding (a, b, g * c) instead of (a, b, c) keys the orbit of
    # (b', g * c') instead of (b', c'): still a representative, which
    # passes, but not the sample's own, so the samples whose values differ
    # there must fail, the representatives must not
    ctx, pair = get_ctx(7), get_pair("kasami5", 7)
    fold = spectrum.fold_keys
    monkeypatch.setattr(kernel, "fold_keys", lambda ctx, pair, a, b, c: fold(
        ctx, pair, a, b, ctx.mul_array(c, ctx.generator)))
    summary = kasami_kernel_scan(ctx, pair)
    sampled = _kasami_samples(ctx)
    assert summary.triples_checked == ctx.order * ctx.group_order ** 2
    assert 0 < len(summary.failures) < len(sampled)
    assert set(summary.failures) <= set(sampled)


def test_kasami_scan_fails_a_sample_whose_orbit_it_did_not_check(monkeypatch):
    # every other c of the row dropped: the samples that fold onto a cell
    # of a dropped c must fail, even where a neighbour shares their values
    ctx, pair = get_ctx(5), get_pair("kasami5", 5)
    rows = spectrum.orbit_rows
    monkeypatch.setattr(kernel, "orbit_rows", lambda ctx, d1: (
        (b, cs[::2], weights[::2]) for b, cs, weights in rows(ctx, d1)))
    summary = kasami_kernel_scan(ctx, pair, keep_reports=-1)
    kept = {(r.a, r.b, r.c) for r in summary.reports}
    dropped = [t for t in _kasami_samples(ctx) if scalar_kasami_fold(ctx, 1, *t) not in kept]
    assert len(summary.reports) == 4 * 32 and dropped
    assert summary.failures == dropped


def test_kasami_exhaustive_scan_refuses_exponents_off_its_family():
    # L and the fold both assume the kasami5 exponents; g = x^7 is not one.
    # The sampled scan still takes the pair and reports its failures
    ctx, bad = pair_with_g7("kasami5")
    with pytest.raises(ValueError, match="exponents"):
        kasami_kernel_scan(ctx, bad)
    assert not kasami_kernel_scan(ctx, bad, samples=10, exhaustive=False).substitution_ok


def test_kasami_exhaustive_scan_refuses_n_above_11(monkeypatch):
    # about 2^(2n)/n cells (a, c), 5M at n = 13, would take about four
    # minutes: refused before the row of cells is built
    def unbuilt(ctx, d1):
        raise AssertionError("the row of cells was built")

    monkeypatch.setattr(kernel, "orbit_rows", unbuilt)
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
