"""Family catalog, exponent reduction, APN and differential spectra."""

import random

import numpy as np
import pytest

from tecc import (
    ConditionViolated,
    DegeneratePair,
    FamilySpec,
    family_exponents,
    instantiate,
    is_apn,
    monomial_pair,
    power_table,
)
from tecc.functions import differential_counts, power_exponent

from helpers import exhaustive_is_apn, get_ctx, get_pair


def test_classic_pair_gold2():
    pair = get_pair("gold2", 5)
    assert (pair.d1, pair.d2) == (3, 5)


def test_kasami5_small_exponents():
    pair = get_pair("kasami5", 5)
    assert (pair.d1, pair.d2) == (3, 11)


def test_th_pair_exponents():
    assert (get_pair("th", 5).d1, get_pair("th", 5).d2) == (5, 19)
    assert family_exponents(FamilySpec("th", 3), 7) == (9, 35)


def test_gold3_exponents():
    assert family_exponents(FamilySpec("gold3", 1), 7) == (3, 9)


def test_gcd_condition_enforced():
    with pytest.raises(ConditionViolated):
        instantiate(FamilySpec("gold2", 3), get_ctx(9))
    with pytest.raises(ConditionViolated):
        family_exponents(FamilySpec("kasami5", 7), 7)


def test_th_requires_matching_degree():
    with pytest.raises(ConditionViolated):
        instantiate(FamilySpec("th", 2), get_ctx(7))


def test_unknown_family_and_bad_parameter():
    with pytest.raises(ValueError):
        FamilySpec("golf2", 1)
    with pytest.raises(ValueError):
        FamilySpec("gold2", 0)


def test_family_names_case_insensitive():
    assert FamilySpec("Gold2", 1).family == "gold2"
    assert FamilySpec("KASAMI5", 2).family == "kasami5"


def test_degenerate_pair_rejected():
    ctx = get_ctx(5)
    with pytest.raises(DegeneratePair):
        monomial_pair(ctx, 3, 3)
    with pytest.raises(DegeneratePair):
        monomial_pair(ctx, 3, 3 + 31)  # congruent mod 2^5 - 1


def test_exponent_collapsing_to_zero_rejected():
    ctx = get_ctx(5)
    with pytest.raises(ValueError):
        monomial_pair(ctx, 31, 3)


def test_exponent_reduction_large_parameter():
    # kasami5 with k = 7 over n = 5: raw exponents far exceed 2^5 - 1
    ctx = get_ctx(5)
    pair = instantiate(FamilySpec("kasami5", 7), ctx)
    assert 1 <= pair.d1 <= 30 and 1 <= pair.d2 <= 30
    assert pair.d1 != pair.d2
    raw1, raw2 = family_exponents(FamilySpec("kasami5", 7), 5)
    assert pair.d1 == raw1 % 31 and pair.d2 == raw2 % 31


def test_exponents_of_a_huge_parameter():
    # 2^(jk) mod 2^n - 1 depends on k mod n alone, and is formed without 2^k
    big = 10**12 + 1  # = 2 mod 7
    for family in ("gold2", "gold3", "kasami5"):
        exps = family_exponents(FamilySpec(family, big), 7)
        assert exps == family_exponents(FamilySpec(family, 2), 7)
        assert all(0 < d < 127 for d in exps)


def test_tables_match_pow_and_fix_zero():
    ctx = get_ctx(5)
    pair = get_pair("gold2", 5)
    assert pair.f_table[0] == 0 and pair.g_table[0] == 0
    for x in range(32):
        assert pair.f_table[x] == ctx.pow(x, 3)
        assert pair.g_table[x] == ctx.pow(x, 5)


def test_instantiate_deterministic():
    a = instantiate(FamilySpec("th", 3), get_ctx(7))
    b = instantiate(FamilySpec("th", 3), get_ctx(7))
    assert (a.d1, a.d2) == (b.d1, b.d2)
    assert a.f_table == b.f_table and a.g_table == b.g_table


def test_gold_exponent_is_apn():
    ctx = get_ctx(5)
    assert is_apn(ctx, get_pair("gold2", 5).f_table)


def test_kasami_exponent_is_apn():
    assert is_apn(get_ctx(5), get_pair("kasami5", 5).f_table)
    assert is_apn(get_ctx(7), get_pair("kasami5", 7).f_table)


def test_linear_map_is_not_apn():
    for n in (5, 7):
        ctx = get_ctx(n)
        assert not is_apn(ctx, power_table(ctx, 2))


def test_family_f_tables_all_apn():
    for family in ("gold2", "gold3", "th", "kasami5"):
        ctx = get_ctx(7)
        pair = get_pair(family, 7)
        assert is_apn(ctx, pair.f_table), family


@pytest.mark.parametrize("n", [5, 7])
def test_is_apn_fast_path_matches_exhaustive_for_every_exponent(n):
    ctx = get_ctx(n)
    verdicts = set()
    for d in range(1, ctx.group_order):
        table = power_table(ctx, d)
        assert power_exponent(ctx, table) == d
        verdicts.add(is_apn(ctx, table))
        assert is_apn(ctx, table) == exhaustive_is_apn(ctx, table), d
    assert verdicts == {True, False}


def test_non_power_tables_take_the_exhaustive_path():
    ctx = get_ctx(5)
    cube = power_table(ctx, 3)
    # x^3 + x is APN (an affine shift keeps every derivative's counts) but no power map
    shifted = [y ^ x for x, y in enumerate(cube)]
    assert power_exponent(ctx, shifted) is None
    assert is_apn(ctx, shifted) and exhaustive_is_apn(ctx, shifted)
    # xor delta onto both points of the pair {2, 3}: D_1 is unchanged, so q = 1
    # alone would still say APN; some delta breaks another derivative
    broken = None
    for delta in range(1, ctx.order):
        table = list(cube)
        table[2] ^= delta
        table[3] ^= delta
        if not exhaustive_is_apn(ctx, table):
            broken = table
            break
    assert broken is not None
    assert power_exponent(ctx, broken) is None
    assert int(differential_counts(ctx, broken, 1).max()) <= 2
    assert not is_apn(ctx, broken)


def test_power_exponent_rejects_non_power_tables():
    ctx = get_ctx(5)
    assert power_exponent(ctx, [0] * ctx.order) is None
    assert power_exponent(ctx, power_table(ctx, 3)[:-1]) is None
    assert power_exponent(ctx, np.arange(ctx.order) * 0 + ctx.order) is None
    assert power_exponent(ctx, [0] + [1] * ctx.group_order) == ctx.group_order


def differential_histogram(ctx, table, q):
    """{solution count: number of p values} of the derivative at q."""
    freq = np.bincount(differential_counts(ctx, table, q))
    return {int(c): int(f) for c, f in enumerate(freq) if f}


def test_differential_spectrum_x3():
    ctx = get_ctx(5)
    table = get_pair("gold2", 5).f_table

    # independent oracle: count solutions of h(x+q)+h(x) = p by brute force
    # over raw arithmetic, then histogram the counts
    def oracle(q):
        counts = {}
        for p in range(32):
            k = sum(1 for x in range(32) if table[x ^ q] ^ table[x] == p)
            counts[k] = counts.get(k, 0) + 1
        return {c: f for c, f in counts.items() if f}

    assert oracle(1) == {0: 16, 2: 16}
    assert differential_histogram(ctx, table, 1) == {0: 16, 2: 16}
    for q in range(1, 32):
        assert differential_histogram(ctx, table, q) == oracle(q)


def test_differential_spectrum_apn_shape_all_q():
    ctx = get_ctx(5)
    table = get_pair("kasami5", 5).f_table
    for q in range(1, 32):
        assert differential_histogram(ctx, table, q) == {0: 16, 2: 16}


def test_differential_spectrum_linear_map():
    ctx = get_ctx(5)
    sq = power_table(ctx, 2)
    for q in (1, 5, 30):
        assert differential_histogram(ctx, sq, q) == {0: 31, 32: 1}


def test_differential_spectrum_counts_even_and_total():
    ctx = get_ctx(7)
    rng = random.Random(11)
    table = power_table(ctx, 11)
    for _ in range(20):
        q = rng.randrange(1, 128)
        hist = differential_histogram(ctx, table, q)
        assert all(c % 2 == 0 for c in hist)
        assert sum(c * f for c, f in hist.items()) == 128


def test_differential_spectrum_rejects_zero_q():
    ctx = get_ctx(5)
    with pytest.raises(ValueError):
        differential_histogram(ctx, get_pair("gold2", 5).f_table, 0)


@pytest.mark.parametrize("n", [5, 7])
def test_power_table_matches_scalar_pow_for_every_exponent(n):
    # e = 0 and e = 2^n - 1 both give the constant map x -> 1, 0 included
    ctx = get_ctx(n)
    for e in range(2 * ctx.order):
        table = power_table(ctx, e)
        assert table == [ctx.pow(x, e % ctx.group_order) for x in range(ctx.order)], e
        assert all(type(v) is int for v in table)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_family_tables_match_scalar_pow(n):
    ctx = get_ctx(n)
    for family in ("gold2", "gold3", "th", "kasami5"):
        pair = get_pair(family, n)
        assert pair.f_table == [ctx.pow(x, pair.d1) for x in range(ctx.order)]
        assert pair.g_table == [ctx.pow(x, pair.d2) for x in range(ctx.order)]
        assert all(type(v) is int for v in pair.f_table + pair.g_table)
