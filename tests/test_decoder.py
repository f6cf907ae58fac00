"""Syndromes, the pairs table, and three-error decoding."""

import random
from itertools import combinations

import pytest

from tecc import (
    CollisionDetected,
    MonomialPair,
    Syndrome,
    build_pair_index,
    build_parity_check,
    column_syndrome,
    decode,
    encode,
    monomial_pair,
    syndrome_of,
)

from helpers import (
    FAMILIES,
    dict_decode,
    dict_pair_index,
    get_ctx,
    get_dict_pair_index,
    get_H,
    get_generator,
    get_pair,
    get_pair_index,
)


def test_codeword_syndrome_is_zero():
    H = get_H("gold2", 5)
    gen = get_generator("gold2", 5)
    rng = random.Random(20)
    for _ in range(100):
        cw = encode(gen, rng.getrandbits(gen.dimension))
        assert syndrome_of(H, cw).is_zero()


def test_single_error_reads_off_the_column():
    H = get_H("th", 5)
    pair = get_pair("th", 5)
    for x in range(1, 32):
        syn = syndrome_of(H, 1 << (x - 1))
        assert syn == Syndrome(x, pair.f_table[x], pair.g_table[x])
        assert syn == column_syndrome(pair, x)


def test_syndrome_linearity():
    H = get_H("gold3", 5)
    rng = random.Random(21)
    for _ in range(200):
        r = rng.getrandbits(31)
        e = rng.getrandbits(31)
        sr, se, sre = syndrome_of(H, r), syndrome_of(H, e), syndrome_of(H, r ^ e)
        assert sre == Syndrome(sr.s1 ^ se.s1, sr.sf ^ se.sf, sr.sg ^ se.sg)


def test_syndrome_rejects_oversized_words():
    with pytest.raises(ValueError):
        syndrome_of(get_H("gold2", 5), 1 << 31)


def test_pair_index_sizes():
    assert len(get_pair_index("gold2", 5)) == 465       # C(31, 2)
    assert len(get_pair_index("gold2", 7)) == 8001      # C(127, 2)


def test_pair_index_has_no_zero_syndrome():
    assert Syndrome(0, 0, 0) not in get_pair_index("kasami5", 5)


def test_collision_detected_on_degenerate_tables():
    ctx = get_ctx(5)
    zero = [0] * 32
    with pytest.raises(CollisionDetected):
        build_pair_index(ctx, MonomialPair(5, 1, 2, zero, zero))


def test_collision_detected_when_neither_map_is_apn():
    # x and x^2 are linear, so neither is APN
    with pytest.raises(CollisionDetected, match="APN power map"):
        build_pair_index(get_ctx(5), monomial_pair(get_ctx(5), 1, 2))


def _random_word(rng, ctx, weight: int) -> int:
    word = 0
    for x in rng.sample(range(1, ctx.order), weight):
        word ^= 1 << (x - 1)
    return word


def _assert_matches_dict_oracle(ctx, pair, H, index, oracle, rng, words: int):
    assert len(index) == len(oracle)
    for syn, hit in oracle.items():
        assert index.get(syn) == hit
        assert syn in index
    for _ in range(20_000):
        syn = Syndrome(rng.randrange(ctx.order), rng.randrange(ctx.order), rng.randrange(ctx.order))
        assert index.get(syn) == oracle.get(syn)
        assert (syn in index) == (syn in oracle)
    for _ in range(words):
        received = _random_word(rng, ctx, rng.randrange(6))
        assert decode(ctx, pair, H, index, received) == dict_decode(ctx, pair, H, oracle, received)


@pytest.mark.parametrize("n", [5, 7, 9])
@pytest.mark.parametrize("family", FAMILIES)
def test_pair_index_matches_dict_oracle(family, n):
    ctx, pair = get_ctx(n), get_pair(family, n)
    oracle = get_dict_pair_index(family, n)
    _assert_matches_dict_oracle(ctx, pair, get_H(family, n), get_pair_index(family, n), oracle,
                                random.Random(f"{family}:{n}"), words=2_000)


@pytest.mark.parametrize("n", [5, 7])
def test_pair_index_swaps_to_g_when_f_is_not_apn(n):
    # f = x is not APN, g = x^3 is, so the index is built on g and checked by f
    ctx = get_ctx(n)
    pair = monomial_pair(ctx, 1, 3)
    H = build_parity_check(ctx, pair)
    _assert_matches_dict_oracle(ctx, pair, H, build_pair_index(ctx, pair),
                                dict_pair_index(ctx, pair), random.Random(n), words=2_000)


@pytest.mark.parametrize("n", [5, 7])
def test_pair_index_len_counts_resolved_pairs(n):
    ctx, pair = get_ctx(n), get_pair("th", n)
    index = get_pair_index("th", n)
    f, g = pair.f_table, pair.g_table
    resolved = set()
    for x, y in combinations(range(1, ctx.order), 2):
        hit = index.get(Syndrome(x ^ y, f[x] ^ f[y], g[x] ^ g[y]))
        assert hit == (x, y)
        resolved.add(hit)
    assert len(index) == len(resolved) == ctx.group_order * (ctx.group_order - 1) // 2


def test_pair_index_roundtrips_at_n13():
    ctx, pair = get_ctx(13), get_pair("gold2", 13)
    H, gen, index = get_H("gold2", 13), get_generator("gold2", 13), get_pair_index("gold2", 13)
    assert len(index) == 8191 * 8190 // 2
    rng = random.Random(13)
    for weight in (1, 2, 3):
        for _ in range(4):
            codeword = encode(gen, rng.getrandbits(gen.dimension))
            error = _random_word(rng, ctx, weight)
            res = decode(ctx, pair, H, index, codeword ^ error)
            assert res.status == "corrected"
            assert res.corrected_word == codeword
            assert len(res.error_positions) == weight


def test_decode_clean_word():
    ctx = get_ctx(5)
    pair = get_pair("gold2", 5)
    H, gen, index = get_H("gold2", 5), get_generator("gold2", 5), get_pair_index("gold2", 5)
    cw = encode(gen, 0xBEEF)
    res = decode(ctx, pair, H, index, cw)
    assert res.status == "clean"
    assert res.corrected_word == cw
    assert res.error_positions == frozenset()


def test_decode_roundtrip_all_weights():
    ctx = get_ctx(5)
    pair = get_pair("gold2", 5)
    H, gen, index = get_H("gold2", 5), get_generator("gold2", 5), get_pair_index("gold2", 5)
    rng = random.Random(22)
    for e in (1, 2, 3):
        for _ in range(300):
            cw = encode(gen, rng.getrandbits(gen.dimension))
            positions = rng.sample(range(1, 32), e)
            received = cw
            for x in positions:
                received ^= 1 << (x - 1)
            res = decode(ctx, pair, H, index, received)
            assert res.status == "corrected"
            assert res.error_positions == frozenset(positions)
            assert res.corrected_word == cw
            assert len(res.error_positions) <= 3
            assert syndrome_of(H, res.corrected_word).is_zero()


def test_decode_deterministic():
    ctx = get_ctx(7)
    pair = get_pair("gold2", 7)
    H, gen, index = get_H("gold2", 7), get_generator("gold2", 7), get_pair_index("gold2", 7)
    received = encode(gen, 123456789) ^ (1 << 5) ^ (1 << 77) ^ (1 << 100)
    first = decode(ctx, pair, H, index, received)
    second = decode(ctx, pair, H, index, received)
    assert first == second
    assert first.error_positions == frozenset({6, 78, 101})


def test_weight4_pattern_outside_all_cosets_is_uncorrectable():
    # exhaustively scan weight-4 patterns at n=5 for one whose syndrome
    # matches no pattern of weight <= 3, then check the decoder gives up
    ctx = get_ctx(5)
    pair = get_pair("kasami5", 5)
    H, index = get_H("kasami5", 5), get_pair_index("kasami5", 5)
    f, g = pair.f_table, pair.g_table

    reachable = {Syndrome(0, 0, 0)}
    reachable.update(column_syndrome(pair, x) for x in range(1, 32))
    reachable.update(get_dict_pair_index("kasami5", 5))
    for x, y, z in combinations(range(1, 32), 3):
        reachable.add(Syndrome(x ^ y ^ z, f[x] ^ f[y] ^ f[z], g[x] ^ g[y] ^ g[z]))

    found = None
    for quad in combinations(range(1, 32), 4):
        s1 = sf = sg = 0
        for x in quad:
            s1 ^= x
            sf ^= f[x]
            sg ^= g[x]
        if Syndrome(s1, sf, sg) not in reachable:
            found = quad
            break
    assert found is not None, "every weight-4 coset merged with a lighter one"

    received = 0
    for x in found:
        received ^= 1 << (x - 1)
    res = decode(ctx, pair, H, index, received)
    assert res.status == "uncorrectable"
    assert res.corrected_word is None
