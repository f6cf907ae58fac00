"""Parity-check structure, parameters, dual weights, distance oracles."""

import random
import tracemalloc
from itertools import combinations
from math import gcd

import pytest

import tecc.gf2
from tecc import (
    FamilySpec,
    MonomialPair,
    RankDefect,
    build_parity_check,
    codeword_weight_distribution,
    dual_weights_from_spectrum,
    encode,
    instantiate,
    min_distance_bruteforce,
    power_table,
    rank_and_dimension,
    systematic_generator,
    weight3_syndromes_distinct,
)
from tecc.cli import main
from tecc.decoder import syndrome_of

from helpers import (
    FAMILIES,
    extract_message,
    get_ctx,
    get_generator,
    get_generator_rows,
    get_H,
    get_pair,
    get_report,
    gray_weight_distribution,
    loop_parity_check,
    pair_with_g7,
    scalar_weight3_syndromes_distinct,
    xor_encode,
)

# Weight distribution of every n=5 instance, frozen from the exhaustive
# 2^16 codeword enumeration (the classical [31,16,7] profile).
N5_CODE_DISTRIBUTION = [
    [0, 1], [7, 155], [8, 465], [11, 5208], [12, 8680], [15, 18259],
    [16, 18259], [19, 8680], [20, 5208], [23, 465], [24, 155], [31, 1],
]


def test_matrix_shape_n5():
    H = get_H("gold2", 5)
    assert len(H.rows) == 15
    assert H.ncols == 31


def test_column_for_one_sets_three_block_bits():
    # f(1) = g(1) = 1, so the column of x = 1 has bits 0, n and 2n set
    for family in FAMILIES:
        H = get_H(family, 5)
        column = sum((row & 1) << i for i, row in enumerate(H.rows))
        assert column == (1 << 0) | (1 << 5) | (1 << 10)


def test_no_zero_columns():
    H = get_H("th", 5)
    for x in range(1, 32):
        # the first block holds x itself
        assert any((row >> (x - 1)) & 1 for row in H.rows[:5])


def test_rank_and_dimension_examples():
    assert rank_and_dimension(get_H("gold2", 5)) == (15, 16)
    assert rank_and_dimension(get_H("kasami5", 7)) == (21, 106)


def test_rank_defect_on_forced_duplicate_blocks():
    ctx = get_ctx(5)
    t = power_table(ctx, 3)
    bad = MonomialPair(5, 3, 3, t, t)
    with pytest.raises(RankDefect):
        rank_and_dimension(build_parity_check(ctx, bad))


def test_rows_are_balanced_dual_words():
    # each row of H is a dual codeword of weight 2^(n-1)
    for n in (5, 7):
        H = get_H("gold3", n)
        for row in H.rows:
            assert row.bit_count() == 1 << (n - 1)


def test_matrix_text_export():
    H = get_H("gold2", 5)
    text = H.to_text()
    lines = text.splitlines()
    assert len(lines) == 15
    assert all(len(line) == 31 for line in lines)
    assert set("".join(lines)) == {"0", "1"}
    # leftmost character of row 0 is the low bit of x = 1
    assert lines[0][0] == "1"


def test_generator_rows_are_codewords_exhaustive_n5():
    ctx = get_ctx(5)
    H = get_H("gold2", 5)
    gen = get_generator("gold2", 5)
    assert gen.dimension == 16
    units = [encode(gen, 1 << i) for i in range(16)]
    word = 0
    for m in range(1, 1 << 16):
        word ^= units[(m & -m).bit_length() - 1]
        if m % 1021 == 0 or m < 64:  # spot syndrome checks along the walk
            assert syndrome_of(H, word).is_zero()
    # the Gray walk ends back at the xor of all rows; check that one too
    assert syndrome_of(H, word).is_zero()


def test_all_codewords_satisfy_parity_checks_n5():
    H = get_H("kasami5", 5)
    gen = get_generator("kasami5", 5)
    units = [encode(gen, 1 << i) for i in range(16)]
    rows = H.rows
    word = 0
    for m in range(1, 1 << 16):
        word ^= units[(m & -m).bit_length() - 1]
        for r in rows:
            if (r & word).bit_count() & 1:
                raise AssertionError(f"parity check failed for message index {m}")


def test_encode_extract_roundtrip():
    gen = get_generator("gold2", 7)
    rng = random.Random(17)
    for _ in range(200):
        m = rng.getrandbits(gen.dimension)
        assert extract_message(gen, encode(gen, m)) == m
    with pytest.raises(ValueError):
        encode(gen, 1 << gen.dimension)
    # bits above the code length are not part of the word
    word = encode(gen, 12345)
    assert extract_message(gen, word | (1 << gen.length + 3)) == 12345


def test_dual_distribution_mass_and_support():
    ctx = get_ctx(5)
    for family in FAMILIES:
        pair = get_pair(family, 5)
        dual = dual_weights_from_spectrum(ctx, pair, get_report(family, 5), get_H(family, 5))
        assert dual.total() == 1 << 15
        assert dual.coeffs[0] == 1
        assert [w for w, a in enumerate(dual.coeffs) if a] == [0, 8, 12, 16, 20, 24]
        assert dual.coeffs[16] >= 31  # the b = c = 0, a != 0 stratum alone


def test_dual_distribution_refuses_rank_defect():
    ctx = get_ctx(5)
    t = power_table(ctx, 3)
    bad = MonomialPair(5, 3, 3, t, t)
    with pytest.raises(RankDefect):
        dual_weights_from_spectrum(ctx, bad, get_report("gold2", 5), build_parity_check(ctx, bad))


def test_min_distance_bruteforce_all_families():
    ctx = get_ctx(5)
    for family in FAMILIES:
        assert min_distance_bruteforce(ctx, get_pair(family, 5)) == 7


def test_bruteforce_distribution_pinned():
    dist = codeword_weight_distribution(get_ctx(5), get_pair("gold2", 5))
    assert dist.to_pairs() == N5_CODE_DISTRIBUTION
    assert dist.total() == 1 << 16


@pytest.mark.parametrize("family, g7_distance", [("gold2", 6), ("gold3", 6), ("th", 7),
                                                 ("kasami5", 6)])
def test_array_enumeration_matches_gray_walk(family, g7_distance):
    ctx = get_ctx(5)
    pair = get_pair(family, 5)
    assert codeword_weight_distribution(ctx, pair) == gray_weight_distribution(ctx, pair)
    _, g7 = pair_with_g7(family)
    dist = codeword_weight_distribution(ctx, g7)
    assert dist == gray_weight_distribution(ctx, g7)
    assert dist.min_nonzero_weight() == min_distance_bruteforce(ctx, g7) == g7_distance


def test_bruteforce_rejects_larger_fields():
    with pytest.raises(ValueError):
        min_distance_bruteforce(get_ctx(7), get_pair("gold2", 7))


def test_weight3_syndromes_distinct_n5():
    ctx = get_ctx(5)
    for family in FAMILIES:
        assert weight3_syndromes_distinct(ctx, get_pair(family, 5))


def test_weight3_scan_rejects_large_n():
    with pytest.raises(ValueError):
        weight3_syndromes_distinct(get_ctx(9), get_pair("gold2", 9))


def test_weight3_scan_detects_short_distance():
    # a pair with f = x (d1 = 1) only repeats the first block: distance <= 3
    ctx = get_ctx(5)
    ident = power_table(ctx, 1)
    weak = MonomialPair(5, 1, 3, ident, power_table(ctx, 3))
    assert not weight3_syndromes_distinct(ctx, weak)
    assert not scalar_weight3_syndromes_distinct(ctx, weak)


@pytest.mark.parametrize("n", [5, 7])
def test_weight3_scan_matches_scalar_oracle(n):
    ctx = get_ctx(n)
    for family in FAMILIES:
        pair = get_pair(family, n)
        assert weight3_syndromes_distinct(ctx, pair) == scalar_weight3_syndromes_distinct(ctx, pair)


def test_weight3_scan_peak_memory_n7():
    # int32 syndromes, sorted in place: 341,504 patterns at n = 7
    ctx, pair = get_ctx(7), get_pair("kasami5", 7)
    tracemalloc.start()
    try:
        assert weight3_syndromes_distinct(ctx, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20


def test_weight3_scan_matches_scalar_oracle_on_coset_leader_pairs():
    # every pair of distinct cyclotomic coset leaders mod 31, APN or not:
    # their collisions fall in many of the weight-3 prefix blocks
    ctx = get_ctx(5)
    leaders = sorted({min(d * 2**j % 31 for j in range(5)) for d in range(1, 31)})
    verdicts = []
    for d1, d2 in combinations(leaders, 2):
        pair = MonomialPair(5, d1, d2, power_table(ctx, d1), power_table(ctx, d2))
        verdicts.append(weight3_syndromes_distinct(ctx, pair))
        assert verdicts[-1] == scalar_weight3_syndromes_distinct(ctx, pair), (d1, d2)
    assert len(verdicts) == 15 and set(verdicts) == {True, False}


def test_weight3_scan_detects_double_error_bch():
    # g = f^2 is GF(2)-linear in f, so this is the d = 5 double-error BCH
    # code: weight <= 2 syndromes are distinct and only weight 3 collides.
    ctx = get_ctx(7)
    bch = MonomialPair(7, 3, 6, power_table(ctx, 3), power_table(ctx, 6))
    cols = [(x, bch.f_table[x], bch.g_table[x]) for x in range(1, ctx.order)]
    low = {(0, 0, 0)} | set(cols)
    low |= {(x1 ^ x2, f1 ^ f2, g1 ^ g2) for (x1, f1, g1), (x2, f2, g2) in combinations(cols, 2)}
    assert len(low) == 1 + 127 + 127 * 126 // 2
    assert not weight3_syndromes_distinct(ctx, bch)
    assert not scalar_weight3_syndromes_distinct(ctx, bch)


@pytest.mark.parametrize("family, n", [(f, n) for n in (5, 7, 9, 11) for f in FAMILIES]
                         + [("kasami5", 13)])
def test_parity_check_matches_loop_oracle(family, n):
    # the rows unpacked from the packed columns, and the array rank of those
    # columns, against the bit loop and the Python-int elimination
    ctx, pair = get_ctx(n), get_pair(family, n)
    H = build_parity_check(ctx, pair)
    assert H.rows == loop_parity_check(ctx, pair)
    assert H.rank == tecc.gf2.row_reduce(H.rows, H.ncols)[0] == 3 * n


@pytest.mark.parametrize("n", [5, 7, 9])
def test_rank_defects_keep_their_message(n):
    # f = g drops a block; f = x repeats the first one; f = g = x keeps one
    ctx = get_ctx(n)
    ident, cube = power_table(ctx, 1), power_table(ctx, 3)
    for f, g, rank in ((cube, cube, 2 * n), (ident, cube, 2 * n), (ident, ident, n)):
        H = build_parity_check(ctx, MonomialPair(n, 1, 3, f, g))
        assert H.rank == tecc.gf2.row_reduce(H.rows, H.ncols)[0] == rank
        with pytest.raises(RankDefect) as exc:
            rank_and_dimension(H)
        assert str(exc.value) == f"rank {rank} < 3n = {3 * n}"


@pytest.mark.parametrize("n", [5, 7, 9])
def test_systematic_encode_matches_row_xor(n):
    rng = random.Random(n)
    for family in FAMILIES:
        gen = get_generator(family, n)
        rows = get_generator_rows(family, n)
        messages = [0, (1 << gen.dimension) - 1] + [rng.getrandbits(gen.dimension) for _ in range(50)]
        for m in messages:
            assert encode(gen, m) == xor_encode(rows, m)


def test_systematic_generator_memory_at_n13():
    # the encoder is read off H's RREF; no k-row nullspace basis is built,
    # and H's rows are unpacked from its columns one bit plane at a time
    H = build_parity_check(get_ctx(13), get_pair("gold2", 13))
    tracemalloc.start()
    try:
        gen = systematic_generator(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gen.dimension == (1 << 13) - 3 * 13 - 1
    assert peak < 1 << 20


@pytest.mark.parametrize("n", [5, 7, 9])
@pytest.mark.parametrize("family", ["gold2", "gold3", "kasami5"])
def test_k_and_n_minus_k_give_the_same_code(family, n):
    # 2^(n-k) = 2^(-k) mod 2^n - 1, so both exponents for n - k lie in the
    # cyclotomic cosets of those for k, and Frobenius keeps H's row space
    ctx = get_ctx(n)
    for k in range(1, (n - 1) // 2 + 1):
        if gcd(n, k) != 1:
            continue
        H = build_parity_check(ctx, instantiate(FamilySpec(family, k), ctx))
        mirror = build_parity_check(ctx, instantiate(FamilySpec(family, n - k), ctx))
        assert H.echelon == mirror.echelon


def test_verify_ranks_H_once(monkeypatch, capsys):
    # rank_and_dimension runs twice, in the parameters stage and under the
    # dual strata; the packed columns are eliminated once, and no stage
    # needs the Python-int rows or their RREF
    calls = []
    for name in ("rank_array", "row_reduce"):
        fn = getattr(tecc.gf2, name)
        monkeypatch.setattr(tecc.gf2, name, lambda *a, name=name, fn=fn: calls.append(name) or fn(*a))
    assert main(["verify", "gold2", "--n", "7"]) == 0
    assert calls == ["rank_array"]
