"""Krawtchouk tables and the dual-to-code distribution transform."""

from math import comb

import pytest

from tecc import (
    KrawtchoukTable,
    NonIntegralResult,
    WeightDistribution,
    macwilliams_transform,
    verify_distance7,
)
from tecc.macwilliams import krawtchouk_direct

from helpers import FAMILIES, get_bruteforce_dist, get_code_dist, get_dual


def test_krawtchouk_base_cases():
    table = KrawtchoukTable(31)
    for w in range(32):
        assert table.value(0, w) == 1
    for k in range(32):
        assert table.value(k, 0) == comb(31, k)


def test_krawtchouk_recurrence_matches_direct_sum():
    # the recurrence-built table must agree with the binomial formula
    for N in (5, 12, 31):
        table = KrawtchoukTable(N)
        for v in range(N + 1):
            for k in range(N + 1):
                assert table.value(k, v) == krawtchouk_direct(k, v, N)


def test_trivial_dual_gives_full_space():
    dual = WeightDistribution(15, [1] + [0] * 15)
    out = macwilliams_transform(dual, 0)
    assert out.coeffs == [comb(15, w) for w in range(16)]


def test_full_space_dual_gives_zero_code():
    N = 15
    dual = WeightDistribution(N, [comb(N, w) for w in range(N + 1)])
    out = macwilliams_transform(dual, N)
    assert out.coeffs == [1] + [0] * N


def test_transform_matches_bruteforce_enumeration():
    for family in FAMILIES:
        assert get_code_dist(family, 5).coeffs == get_bruteforce_dist(family, 5).coeffs


def test_involution_returns_dual_exactly():
    for family in ("gold2", "kasami5"):
        dual = get_dual(family, 5)
        code = get_code_dist(family, 5)
        back = macwilliams_transform(code, 31 - 15)
        assert back.coeffs == dual.coeffs


def test_distributions_identical_across_families():
    for n in (5, 7):
        dists = [get_code_dist(family, n).coeffs for family in FAMILIES]
        assert all(d == dists[0] for d in dists)


def test_verify_distance7_on_families():
    for family in FAMILIES:
        assert verify_distance7(get_code_dist(family, 5))
        assert verify_distance7(get_code_dist(family, 7))


def test_verify_distance7_rejects_full_space():
    N = 31
    full = WeightDistribution(N, [comb(N, w) for w in range(N + 1)])
    assert not verify_distance7(full)  # A_1 = N != 0


def test_mass_mismatch_rejected():
    dual = WeightDistribution(15, [1] + [0] * 15)
    with pytest.raises(ValueError):
        macwilliams_transform(dual, 3)


def test_non_integral_result_detected():
    # no linear code has this dual: the transform turns negative
    bogus = WeightDistribution(5, [0, 0, 0, 0, 1, 1])
    with pytest.raises(NonIntegralResult):
        macwilliams_transform(bogus, 1)
    # fractional case: A_1 comes out as 2/4
    fractional = WeightDistribution(5, [0, 0, 3, 1, 0, 0])
    with pytest.raises(NonIntegralResult):
        macwilliams_transform(fractional, 2)


def test_length_from_2_17_minus_1_refused():
    N = (1 << 17) - 1
    dual = WeightDistribution(N, [1] + [0] * N)
    with pytest.raises(ValueError, match="ROADMAP item 2"):
        macwilliams_transform(dual, 0)


def test_weight_distribution_helpers():
    dist = get_code_dist("gold2", 5)
    assert dist.min_nonzero_weight() == 7
    assert dist.to_pairs()[0] == [0, 1]
    assert dist.support()[0] == 0
