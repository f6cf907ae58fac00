"""Transform values, the row kernel against its oracles, five-value certification."""

import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from tecc import spectrum
from tecc.field import SUPPORTED_DEGREES
from tecc.functions import power_exponent
from tecc.spectrum import frobenius_reps, transform_rows

from tecc import (
    MonomialPair,
    allowed_values,
    full_spectrum,
    monomial_pair,
    power_table,
    single_table_spectrum,
    spectrum_for_bc,
    transform_single,
)

from helpers import (
    FAMILIES,
    direct_spectrum,
    fwht_inplace,
    gather_transform_rows,
    get_ctx,
    get_pair,
    get_report,
    loop_transform,
    reduced_histogram,
    scalar_fold,
    scalar_kasami_fold,
    unreduced_histogram,
    unreduced_witness,
)

# Frozen by the naive oracle (transform_single) for gold2 k=1 over GF(2^5).
GOLD2_N5_F_011 = -8

# Frozen full histogram for every n=5 family instance; the four families
# share it, which the acceptance suite rechecks.
N5_HISTOGRAM = {-16: 155, -8: 4836, 0: 17236, 8: 8060, 16: 465}


def test_transform_all_zero_arguments():
    for n in (5, 7):
        ctx = get_ctx(n)
        pair = get_pair("gold2", n)
        assert transform_single(ctx, pair, 0, 0, 0) == ctx.order


def test_transform_sums_to_order_over_a():
    ctx = get_ctx(5)
    pair = get_pair("gold2", 5)
    rng = random.Random(0)
    for _ in range(10):
        b, c = rng.randrange(1, 32), rng.randrange(1, 32)
        assert sum(transform_single(ctx, pair, a, b, c) for a in range(32)) == 32


def test_pinned_value_gold2_n5():
    ctx = get_ctx(5)
    pair = get_pair("gold2", 5)
    assert transform_single(ctx, pair, 0, 1, 1) == GOLD2_N5_F_011


def test_fwht_multiset_equals_naive_loop():
    rng = random.Random(42)
    for n, rounds in ((5, 100), (7, 25)):
        ctx = get_ctx(n)
        pair = get_pair("gold2", n)
        for _ in range(rounds):
            b, c = rng.randrange(1, ctx.order), rng.randrange(1, ctx.order)
            naive = sorted(transform_single(ctx, pair, a, b, c) for a in range(ctx.order))
            fast = sorted(int(v) for v in spectrum_for_bc(ctx, pair, b, c))
            assert naive == fast


@pytest.mark.parametrize("n", SUPPORTED_DEGREES)
def test_matmul_transform_equals_the_butterfly(n):
    rng = np.random.default_rng(n)
    rows = 1 - 2 * rng.integers(0, 2, size=(3, 1 << n), dtype=np.int64)
    fast = spectrum._walsh_hadamard(rows.astype(np.float32))
    assert np.array_equal(fast, fwht_inplace(rows.copy()))


@pytest.mark.parametrize("n", SUPPORTED_DEGREES)
def test_transform_rows_equal_the_gather_oracle_on_random_tables(n):
    # random tables, no power maps, give random sign rows; int16 up to
    # n = 13, int32 above
    ctx = get_ctx(n)
    rng = np.random.default_rng(100 + n)
    f, g = rng.integers(0, ctx.order, size=(2, ctx.order))
    assert power_exponent(ctx, f) is None and power_exponent(ctx, g) is None
    b = int(rng.integers(1, ctx.order))
    cs = np.concatenate(([0, 1], rng.integers(2, ctx.order, size=2)))
    fast = transform_rows(ctx, f, g, b, cs)
    slow = gather_transform_rows(ctx, f, g, b, cs)
    assert fast.dtype == slow.dtype == (np.int16 if n <= 13 else np.int32)
    assert np.array_equal(fast, slow)


@pytest.mark.parametrize("family,n", [(f, n) for n in (5, 7, 9) for f in FAMILIES])
def test_transform_rows_equal_the_gather_oracle(family, n):
    ctx = get_ctx(n)
    pair = get_pair(family, n)
    cs = np.arange(ctx.order)
    for b in (0, 1, ctx.generator, ctx.group_order):
        fast = transform_rows(ctx, pair.f_np, pair.g_np, b, cs)
        assert np.array_equal(fast, gather_transform_rows(ctx, pair.f_np, pair.g_np, b, cs))


def test_transform_refuses_rows_beyond_exact_float32(monkeypatch):
    # 2^24 is the last width whose +-1 partial sums float32 holds exactly
    assert spectrum._F32_EXACT_WIDTH == 1 << 24
    assert np.float32(2**24 + 1) == np.float32(2**24)
    ctx = get_ctx(7)
    pair = get_pair("gold2", 7)
    monkeypatch.setattr(spectrum, "_F32_EXACT_WIDTH", 1 << 7)
    assert transform_rows(ctx, pair.f_np, pair.g_np, 1, [1]).shape == (1, 128)
    monkeypatch.setattr(spectrum, "_F32_EXACT_WIDTH", 1 << 6)
    with pytest.raises(ArithmeticError, match="exact float32"):
        transform_rows(ctx, pair.f_np, pair.g_np, 1, [1])


def test_batch_cells_bound_a_full_spectrum_batch_at_n13():
    # the 632 coset rows of b = 1 hold 5.2M cells, so the scan takes three
    # batches of at most 2^21; the traced peak stays under 20 bytes a cell
    # of one batch, which a single batch of every row would exceed
    ctx = get_ctx(13)
    pair = get_pair("gold2", 13)
    pair.f_np, pair.g_np  # cached tables, not the scan's own
    tracemalloc.start()
    try:
        report = full_spectrum(ctx, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.five_valued
    assert peak <= 20 * spectrum._BATCH_CELLS


def test_direct_matrix_matches_scalar_oracle():
    ctx = get_ctx(5)
    pair = get_pair("kasami5", 5)
    rng = random.Random(1)
    for _ in range(10):
        b, c = rng.randrange(1, 32), rng.randrange(1, 32)
        direct = direct_spectrum(ctx, pair, b, c)
        for a in range(0, 32, 5):
            assert int(direct[a]) == transform_single(ctx, pair, a, b, c)


@pytest.mark.parametrize("n", [5, 7])
def test_transform_single_broadcasts_like_the_loop(n):
    ctx = get_ctx(n)
    pair = get_pair("gold3", n)
    rng = random.Random(n)
    triples = [(rng.randrange(ctx.order), rng.randrange(ctx.order), rng.randrange(ctx.order))
               for _ in range(40)] + [(0, 0, 0), (5, 0, 0), (0, 3, 0), (0, 0, 9)]
    expected = [loop_transform(ctx, pair, *t) for t in triples]
    assert [transform_single(ctx, pair, *t) for t in triples] == expected
    assert all(type(transform_single(ctx, pair, *t)) is int for t in triples[:3])
    a, b, c = np.array(triples).T
    assert transform_single(ctx, pair, a, b, c).tolist() == expected
    row = transform_single(ctx, pair, np.arange(ctx.order), b[0], c[0])
    assert row.tolist() == direct_spectrum(ctx, pair, int(b[0]), int(c[0])).tolist()


def test_spectrum_for_bc_zero_coefficients():
    ctx = get_ctx(5)
    pair = get_pair("gold2", 5)
    values = sorted(int(v) for v in spectrum_for_bc(ctx, pair, 0, 0))
    assert values == [0] * 31 + [32]


def test_parseval_on_random_bc():
    rng = random.Random(3)
    for n in (5, 7):
        ctx = get_ctx(n)
        pair = get_pair("th", n)
        for _ in range(50):
            b, c = rng.randrange(1, ctx.order), rng.randrange(1, ctx.order)
            values = spectrum_for_bc(ctx, pair, b, c).astype(np.int64)
            assert int((values**2).sum()) == ctx.order**2
            assert int(values.sum()) == ctx.order


def test_values_even_and_bounded():
    ctx = get_ctx(5)
    pair = get_pair("gold3", 5)
    rng = random.Random(4)
    for _ in range(30):
        b, c = rng.randrange(1, 32), rng.randrange(1, 32)
        for v in spectrum_for_bc(ctx, pair, b, c):
            assert v % 2 == 0 and abs(int(v)) <= 32


def test_gold2_bc_11_support():
    ctx = get_ctx(5)
    values = {int(v) for v in spectrum_for_bc(ctx, get_pair("gold2", 5), 1, 1)}
    assert values <= {0, 8, -8, 16, -16}


def test_full_spectrum_gold2_n5():
    report = get_report("gold2", 5)
    assert report.five_valued
    assert report.witness is None
    assert report.histogram == N5_HISTOGRAM
    assert sum(report.histogram.values()) == 32 * 31 * 31


def test_full_spectrum_kasami5_n7():
    report = get_report("kasami5", 7)
    assert report.five_valued
    assert set(report.histogram) <= allowed_values(7)
    assert sum(report.histogram.values()) == 128 * 127 * 127


def test_all_families_share_n5_histogram():
    for family in ("gold2", "gold3", "th", "kasami5"):
        assert get_report(family, 5).histogram == N5_HISTOGRAM


def test_implied_dual_weights_in_five_weight_set():
    for n in (5, 7):
        half = 1 << (n - 1)
        lo = 1 << ((n - 1) // 2)
        hi = 1 << ((n + 1) // 2)
        weight_set = {half, half - lo, half + lo, half - hi, half + hi}
        report = get_report("gold3", n)
        weights = {((1 << n) - v) // 2 for v in report.histogram}
        assert weights <= weight_set


def test_non_five_valued_pair_yields_checkable_witness():
    ctx = get_ctx(5)
    pair = monomial_pair(ctx, 3, 7)
    report = full_spectrum(ctx, pair)
    assert not report.five_valued
    a, b, c = report.witness
    assert b != 0 and c != 0
    assert transform_single(ctx, pair, a, b, c) not in allowed_values(5)


@pytest.mark.parametrize("family,n", [(f, n) for n in (5, 7, 9) for f in FAMILIES])
def test_reduced_scan_matches_unreduced_oracle(family, n):
    # every family has e = gcd(d1, 2^n - 1) = 1: one b row stands for all
    ctx = get_ctx(n)
    pair = get_pair(family, n)
    histogram = get_report(family, n).histogram
    assert histogram == reduced_histogram(ctx, pair)
    assert histogram == unreduced_histogram(ctx, pair)


def test_reduced_scan_with_several_b_orbits():
    # gcd(7, 2^9 - 1) = 7, so the scan needs the rows b = g^0 .. g^6; the
    # witness may differ from the unreduced oracle's, but it offends and
    # lies on a row that orbit_rows yields
    ctx = get_ctx(9)
    pair = monomial_pair(ctx, 7, 3)
    report = full_spectrum(ctx, pair)
    assert report.histogram == reduced_histogram(ctx, pair)
    assert report.histogram == unreduced_histogram(ctx, pair)
    a, b, c = report.witness
    assert transform_single(ctx, pair, a, b, c) not in allowed_values(9)
    rows = {rb: cs.tolist() for rb, cs, _ in spectrum.orbit_rows(ctx, pair.d1)}
    assert len(rows) == 7 and c in rows[b]


@pytest.mark.parametrize("d1,d2,n", [
    (d1, d2, n) for d1, d2 in [(3, 7), (3, 3), (5, 11)] for n in (5, 7, 9, 11)
    if (d1, d2, n) != (5, 11, 7)  # five-valued
])
def test_witness_equals_the_unreduced_oracle(d1, d2, n):
    # gcd(d1, 2^n - 1) = 1: the row b = 1 holds every row's values, and
    # its least offending c is a coset leader, so the fold's first witness
    # is the first in (b, c, a) order over every row; (3, 3) has rank defect
    ctx = get_ctx(n)
    pair = MonomialPair(n, d1, d2, power_table(ctx, d1), power_table(ctx, d2))
    assert np.gcd(d1, ctx.group_order) == 1
    report = full_spectrum(ctx, pair)
    assert not report.five_valued
    assert report.witness == unreduced_witness(ctx, pair)


@pytest.mark.parametrize("family,n", [(f, n) for n in (5, 7) for f in FAMILIES])
def test_single_table_spectrum_matches_rows(family, n):
    ctx = get_ctx(n)
    pair = get_pair(family, n)
    f_rows = Counter(int(v) for b in range(1, ctx.order) for v in spectrum_for_bc(ctx, pair, b, 0))
    g_rows = Counter(int(v) for c in range(1, ctx.order) for v in spectrum_for_bc(ctx, pair, 0, c))
    assert single_table_spectrum(ctx, pair.f_np) == f_rows
    assert single_table_spectrum(ctx, pair.g_np) == g_rows


@pytest.mark.parametrize("n", [5, 7, 9])
def test_cyclotomic_cosets_partition_the_nonzero_elements(n):
    ctx = get_ctx(n)
    reps, sizes = frobenius_reps(ctx)
    orbits = set()
    for c in range(1, ctx.order):
        orbit, x = set(), c
        while x not in orbit:
            orbit.add(x)
            x = ctx.pow(x, 2)
        orbits.add(frozenset(orbit))
    assert sorted(reps.tolist()) == reps.tolist()
    assert sorted((min(o), len(o)) for o in orbits) == list(zip(reps.tolist(), sizes.tolist()))


def test_cyclotomic_cosets_run_frobenius_on_c_alone(monkeypatch):
    # every b is 0: Frobenius may see it as a scalar, never as an array, so
    # the only arrays it maps are the n - 1 images of the cs
    ctx = get_ctx(9)
    want = frobenius_reps(ctx)
    frobenius_array, seen = ctx.frobenius_array, []
    monkeypatch.setattr(ctx, "frobenius_array", lambda x, k: seen.append(x) or frobenius_array(x, k))
    got = frobenius_reps(ctx)
    arrays = [x for x in seen if np.ndim(x)]
    assert len(arrays) == ctx.n - 1 and all(x.all() for x in arrays)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("n", [5, 7, 9])
@pytest.mark.parametrize("family", ["gold2", "gold3", "kasami5"])
def test_fold_keys_match_the_scalar_fold(family, n):
    # x -> lambda*x with b * lambda^d1 = 1 and squaring take each (a, b, c)
    # to a cell (a', 1, c'), keyed c' * 2^n + a', with c' a c of the row
    # b = 1 of orbit_rows.  At n = 9, b and c from GF(8) give c' a coset of
    # size 3 whose stabiliser moves a': the key holds the least of its
    # three images, as the scalar fold takes it
    ctx, pair = get_ctx(n), get_pair(family, n)
    rng = random.Random(n)
    triples = [(rng.randrange(ctx.order), rng.randrange(1, ctx.order),
                rng.randrange(1, ctx.order)) for _ in range(100)]
    if n == 9:
        sub = [ctx.pow(ctx.generator, 73 * i) for i in range(7)]  # GF(8)*
        triples += [(rng.randrange(ctx.order), b, c) for b in sub for c in sub]
    if family == "kasami5":
        want = [scalar_kasami_fold(ctx, pair.param, *t) for t in triples]
    else:
        want = [scalar_fold(ctx, (1, pair.d1, pair.d2), *t) for t in triples]
    keys = spectrum.fold_keys(ctx, pair, *np.array(triples).T)
    assert keys.tolist() == [c << n | a for a, _, c in want]
    _, cs, _ = next(spectrum.orbit_rows(ctx, pair.d1))
    assert np.isin(keys >> n, cs).all()
    if n == 9:
        moved = [a for a, *_ in triples[100:] if len({ctx.frobenius(a, j) for j in (0, 3, 6)}) > 1]
        assert len(moved) > 40


@pytest.mark.parametrize("n,d1,d2", [(5, 3, 7), (9, 7, 3), (7, 5, 11)])
def test_batched_scan_equals_one_batch(monkeypatch, n, d1, d2):
    # at n <= 9 one batch holds every row; shrink it to force several
    ctx = get_ctx(n)
    pair = monomial_pair(ctx, d1, d2)
    tables = (pair.f_np, pair.g_np)
    whole = full_spectrum(ctx, pair)
    whole_strata = [single_table_spectrum(ctx, t) for t in tables]
    monkeypatch.setattr(spectrum, "_BATCH_CELLS", 1 << (n + 2))
    batched = full_spectrum(ctx, pair)
    assert (batched.histogram, batched.witness) == (whole.histogram, whole.witness)
    assert [single_table_spectrum(ctx, t) for t in tables] == whole_strata


@pytest.mark.parametrize("d,e", [(3, 1), (7, 7), (73, 73)])
def test_single_table_spectrum_folds_by_exponent(d, e):
    ctx = get_ctx(9)
    assert np.gcd(d, ctx.group_order) == e
    pair = monomial_pair(ctx, d, 5)
    f_rows = Counter(int(v) for b in range(1, ctx.order) for v in spectrum_for_bc(ctx, pair, b, 0))
    assert single_table_spectrum(ctx, pair.f_np) == f_rows


def test_single_table_spectrum_checks_row_sums():
    # h(0) != 0 turns the row sum into -2^n on every row with Tr(c*h(0)) = 1
    ctx = get_ctx(5)
    table = get_pair("gold2", 5).f_np.copy()
    table[0] = 1
    with pytest.raises(ArithmeticError, match="row sum"):
        single_table_spectrum(ctx, table)


def test_report_json_shape():
    d = get_report("gold2", 5).to_json_dict()
    assert list(d) == ["histogram", "five_valued", "witness"]
    assert d["five_valued"] is True and d["witness"] is None
    assert sum(c for _, c in d["histogram"]) == 30752
