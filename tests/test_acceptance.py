"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Everything is exact integer arithmetic; tolerances are
zero throughout.
"""

import random
from math import gcd

from tecc import (
    allowed_values,
    gold_kernel_scan,
    is_apn,
    kasami_kernel_scan,
    macwilliams_transform,
    power_table,
    rank_and_dimension,
    spectrum_for_bc,
    transform_single,
    verify_distance7,
    weight3_syndromes_distinct,
)
from tecc.code import encode
from tecc.decoder import decode
from tecc.cli import fork_seed

from helpers import (
    ACCEPTANCE_LINES,
    FAMILIES,
    direct_spectrum,
    get_bruteforce_dist,
    get_code_dist,
    get_ctx,
    get_dual,
    get_generator,
    get_H,
    get_pair,
    get_pair_index,
    get_report,
)

NS = (5, 7, 9)


def _report(num: int, name: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {verdict}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert not failures, f"criterion {num} ({name}): {failures[:8]}"


def test_criterion_01_five_valued_spectrum():
    failures = []
    for family in FAMILIES:
        for n in NS:
            report = get_report(family, n)
            support = set(report.histogram)
            if not (report.five_valued and support <= allowed_values(n)):
                failures.append((family, n, sorted(support)))
            if sum(report.histogram.values()) != (1 << n) * ((1 << n) - 1) ** 2:
                failures.append((family, n, "mass"))
    _report(1, "five-valued spectrum", failures)


def test_criterion_02_code_parameters():
    failures = []
    for family in FAMILIES:
        for n in NS:
            rank, dim = rank_and_dimension(get_H(family, n))
            if (rank, dim) != (3 * n, (1 << n) - 3 * n - 1):
                failures.append((family, n, rank, dim))
    _report(2, "code parameters [2^n-1, 2^n-3n-1]", failures)


def test_criterion_03_minimum_distance_oracle():
    failures = []
    for family in FAMILIES:
        brute = get_bruteforce_dist(family, 5)
        derived = get_code_dist(family, 5)
        if brute.min_nonzero_weight() != 7:
            failures.append((family, "d", brute.min_nonzero_weight()))
        if brute.coeffs != derived.coeffs:
            failures.append((family, "distribution mismatch"))
    _report(3, "n=5 brute-force distance = 7, matches MacWilliams", failures)


def test_criterion_04_syndrome_distinctness():
    failures = []
    for family in FAMILIES:
        for n in (5, 7):
            if not weight3_syndromes_distinct(get_ctx(n), get_pair(family, n)):
                failures.append((family, n))
    _report(4, "weight<=3 syndromes pairwise distinct (n=5,7)", failures)


def test_criterion_05_macwilliams_signature():
    failures = []
    for n in NS:
        dists = []
        for family in FAMILIES:
            dist = get_code_dist(family, n)
            if not verify_distance7(dist):
                failures.append((family, n, "signature"))
            dists.append(dist.coeffs)
        if any(d != dists[0] for d in dists):
            failures.append((n, "families differ"))
    _report(5, "A_1..A_6 = 0, A_7 > 0, identical across families", failures)


def test_criterion_06_gold_kernel_bounds():
    failures = []
    bounds = {"gold2": 4, "gold3": 3}
    for family, bound in bounds.items():
        for n in (5, 7):
            summary = gold_kernel_scan(get_ctx(n), get_pair(family, n), seed=n)
            if summary.max_s > bound:
                failures.append((family, n, "max_s", summary.max_s))
            if not summary.all_consistent:
                failures.append((family, n, "consistency", summary.failures[:3]))
            if summary.pairs_checked != ((1 << n) - 1) ** 2:
                failures.append((family, n, "coverage"))
    _report(6, "kernel bounds: s <= 4 (gold2), s <= 3 (gold3), F^2 = 2^(n+s)", failures)


def test_criterion_07_kasami_kernel_machinery():
    failures = []
    for n in NS:
        ctx = get_ctx(n)
        pair = get_pair("kasami5", n)
        summary = kasami_kernel_scan(
            ctx, pair,
            samples=10_000,
            seed=fork_seed(0, f"acceptance7:{n}"),
            exhaustive=(n == 5),
        )
        if n == 5 and summary.triples_checked != 32 * 31 * 31:
            failures.append((n, "coverage", summary.triples_checked))
        if n > 5 and summary.triples_checked < 10_000:
            failures.append((n, "samples", summary.triples_checked))
        if not summary.permutation_ok:
            failures.append((n, "substitution not bijective"))
        if not summary.substitution_ok:
            failures.append((n, "substituted sum mismatch"))
        if not summary.all_consistent:
            failures.append((n, "per-triple checks", summary.failures[:3]))
        if not summary.s0_sizes_nonzero_fw <= {2, 8}:
            failures.append((n, "S0 sizes", sorted(summary.s0_sizes_nonzero_fw)))
    _report(7, "kasami5 kernels: S1 = 0, S0 in {2,8}, F = +-sqrt(2^n |S0|)", failures)


def test_criterion_08_apn_checks():
    failures = []
    for n in NS:
        ctx = get_ctx(n)
        for k in range(1, n):
            if gcd(n, k) != 1:
                continue
            gold = power_table(ctx, (1 << k) + 1)
            kasami = power_table(ctx, (1 << (2 * k)) - (1 << k) + 1)
            if not is_apn(ctx, gold):
                failures.append((n, k, "gold"))
            if not is_apn(ctx, kasami):
                failures.append((n, k, "kasami"))
        if is_apn(ctx, power_table(ctx, 2)):
            failures.append((n, "x^2 flagged APN"))
    _report(8, "APN: x^(2^k+1) and Kasami exponent yes, x^2 no", failures)


def test_criterion_09_decoder_roundtrips():
    failures = []
    for family in FAMILIES:
        for n in NS:
            ctx = get_ctx(n)
            pair = get_pair(family, n)
            H = get_H(family, n)
            gen = get_generator(family, n)
            index = get_pair_index(family, n)
            for errors in (0, 1, 2, 3):
                label = f"acceptance9:{family}:{n}:{errors}"
                rng = random.Random(fork_seed(0, label))
                bad = 0
                for _ in range(1000):
                    codeword = encode(gen, rng.getrandbits(gen.dimension))
                    received = codeword
                    for x in rng.sample(range(1, ctx.order), errors):
                        received ^= 1 << (x - 1)
                    result = decode(ctx, pair, H, index, received)
                    if result.corrected_word != codeword:
                        bad += 1
                if bad:
                    failures.append((family, n, errors, f"{1000 - bad}/1000"))
    _report(9, "decoder: 1000/1000 exact recoveries per (family, n, e)", failures)


def test_criterion_10_property_suites():
    failures = []
    # Parseval and sum-over-a hold inline for every (b, c) scanned by
    # full_spectrum; recomputing any report would have raised otherwise.
    for family in FAMILIES:
        for n in NS:
            get_report(family, n)

    # FWHT vs direct-summation multisets on >= 100 random (b, c) per config.
    for family in FAMILIES:
        for n in NS:
            ctx = get_ctx(n)
            pair = get_pair(family, n)
            rng = random.Random(fork_seed(0, f"acceptance10:{family}:{n}"))
            for _ in range(100):
                b = rng.randrange(1, ctx.order)
                c = rng.randrange(1, ctx.order)
                fast = sorted(int(v) for v in spectrum_for_bc(ctx, pair, b, c))
                direct = sorted(int(v) for v in direct_spectrum(ctx, pair, b, c))
                if fast != direct:
                    failures.append((family, n, b, c, "multiset"))
                    break

    # scalar-oracle spot checks tie the vectorized direct sum to the loop
    ctx = get_ctx(7)
    pair = get_pair("gold2", 7)
    rng = random.Random(fork_seed(0, "acceptance10:scalar"))
    for _ in range(5):
        b, c = rng.randrange(1, 128), rng.randrange(1, 128)
        direct = direct_spectrum(ctx, pair, b, c)
        for a in range(0, 128, 17):
            if int(direct[a]) != transform_single(ctx, pair, a, b, c):
                failures.append(("scalar", a, b, c))

    # MacWilliams involution, exact, at every n
    for n in NS:
        dual = get_dual("gold2", n)
        code = get_code_dist("gold2", n)
        back = macwilliams_transform(code, ((1 << n) - 1) - 3 * n)
        if back.coeffs != dual.coeffs:
            failures.append((n, "involution"))
    _report(10, "Parseval, sum rule, FWHT vs naive, involution", failures)
