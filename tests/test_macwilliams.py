"""Krawtchouk tables and the dual-to-code distribution transform."""

import random
from math import comb

import pytest

from tecc import (
    NonIntegralResult,
    WeightDistribution,
    macwilliams_transform,
    verify_distance7,
)
from tecc.gf2 import row_reduce

from helpers import (
    FAMILIES,
    KrawtchoukTable,
    cached_macwilliams_transform,
    get_bruteforce_dist,
    get_code_dist,
    get_dual,
    krawtchouk_direct,
    span,
)


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


def _same_outcome(dual, dual_dim):
    """Both transforms return equal distributions or raise the same error:
    NonIntegralResult, or the output-mass ArithmeticError when A_0 != 1."""
    try:
        expected = cached_macwilliams_transform(dual, dual_dim).coeffs
    except ArithmeticError as exc:
        with pytest.raises(ArithmeticError) as got:
            macwilliams_transform(dual, dual_dim)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return False
    assert macwilliams_transform(dual, dual_dim).coeffs == expected
    return True


@pytest.mark.parametrize("n", [5, 7, 9])
def test_streaming_transform_matches_cached_oracle(n):
    for family in FAMILIES:
        assert _same_outcome(get_dual(family, n), 3 * n)


@pytest.mark.parametrize("N", [10, 11, 12, 13])
def test_streaming_transform_on_codes_with_odd_weights(N):
    # random linear codes: their weights include odd ones (so O_w != 0), and
    # even N has the midpoint w = N/2 that maps to itself
    rng = random.Random(N)
    odd_seen = False
    for dim in (3, 5, 6):
        rows = [rng.getrandbits(N) for _ in range(dim)]
        if row_reduce(rows, N)[0] < dim:
            continue
        coeffs = [0] * (N + 1)
        for word in span(rows):
            coeffs[word.bit_count()] += 1
        odd_seen |= any(coeffs[1::2])
        code = WeightDistribution(N, coeffs)
        assert _same_outcome(code, dim)
        dual = macwilliams_transform(code, dim)
        assert macwilliams_transform(dual, N - dim).coeffs == coeffs
    assert odd_seen


def test_non_integral_only_in_mirrored_half_detected():
    # A_0..A_2 are non-negative integers; only A_4 = -4/4 fails (N = 5)
    bogus = WeightDistribution(5, [1, 2, 0, 0, 1, 0])
    with pytest.raises(NonIntegralResult, match=r"A_4 = -4/4"):
        macwilliams_transform(bogus, 2)
    # A_5 and A_6 both fail (N = 7): the smaller w is named, as at w <= N/2
    twice = WeightDistribution(7, [1, 3, 1, 1, 2, 0, 0, 0])
    with pytest.raises(NonIntegralResult, match=r"A_5 = -8/8"):
        macwilliams_transform(twice, 3)
    assert not _same_outcome(bogus, 2) and not _same_outcome(twice, 3)


def test_streaming_transform_matches_oracle_on_random_distributions():
    rng = random.Random(2024)
    outcomes = {True: 0, False: 0}
    for _ in range(400):
        N = rng.randrange(1, 10)
        dual_dim = rng.randrange(0, min(N, 4) + 1)
        coeffs = [0] * (N + 1)
        for _ in range(1 << dual_dim):
            coeffs[rng.randrange(N + 1)] += 1
        outcomes[_same_outcome(WeightDistribution(N, coeffs), dual_dim)] += 1
    assert min(outcomes.values()) > 20