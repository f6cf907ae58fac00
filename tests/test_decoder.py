"""Syndromes, the pairs table, and three-error decoding."""

import random
from itertools import combinations

import pytest

from tecc import (
    CollisionDetected,
    MonomialPair,
    Syndrome,
    build_pair_index,
    column_syndrome,
    decode,
    encode,
    hex_to_word,
    syndrome_of,
    word_to_hex,
)

from helpers import get_ctx, get_H, get_generator, get_pair, get_pair_index


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


def test_pair_index_refused_above_n11():
    with pytest.raises(ValueError, match="ROADMAP item 3"):
        build_pair_index(get_ctx(13), get_pair("gold2", 13))


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
    reachable.update(index)
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


def test_hex_serialization_roundtrip():
    rng = random.Random(23)
    for nbits in (31, 127, 511):
        for _ in range(50):
            w = rng.getrandbits(nbits)
            text = word_to_hex(w, nbits)
            assert len(text) == 2 * ((nbits + 7) // 8)
            assert hex_to_word(text, nbits) == w
    # LSB-first byte order: bit 0 lands in the first byte's low bit
    assert word_to_hex(1, 31) == "01000000"
    assert word_to_hex(1 << 8, 31) == "00010000"
    with pytest.raises(ValueError):
        hex_to_word("ffffffff", 31)
