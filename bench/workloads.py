"""The benchmark's three workloads: certify, decode and crosscheck.

Each workload derives all of its inputs from the seed, does its expensive
preparation in `setup()`, and repeats `run_pass()` over the same inputs, so
every pass does the same work and yields the same exact counts.  Every
operation's output is checked; a failed check is recorded, never raised.
Calls into the library go through module attributes at call time, so a
traced pass reaches the span wrappers that `tracing.Tracer` installs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from array import array
from collections import Counter
from dataclasses import dataclass, field
from math import gcd
from time import perf_counter_ns

import tecc
from tecc import cli

FAMILIES = ("gold2", "gold3", "th", "kasami5")
CERTIFY_NS = (5, 7, 9)

# One block of received words per family: weights 0-3 in equal shares and
# one word in ten of weight 4, beyond the decoding radius.
WEIGHT_BLOCK = (0,) * 9 + (1,) * 9 + (2,) * 9 + (3,) * 9 + (4,) * 4
DECODE_BLOCKS = 100  # blocks per family: 4 x 4000 words per pass
DECODE_CODEWORDS = 64  # distinct codewords per family under the error patterns

KASAMI_SAMPLES = 10_000
GOLD_MAX_S = {"gold2": 4, "gold3": 3}


def default_k(family: str, n: int) -> int:
    """k = 1 for the gcd families, t = (n - 1)/2 for th (the CLI default)."""
    return (n - 1) // 2 if family == "th" else 1


def admissible_k(family: str, n: int) -> list[int]:
    """Every parameter the family accepts at degree n."""
    if family == "th":
        return [(n - 1) // 2]
    return [k for k in range(1, n) if gcd(n, k) == 1]


@dataclass
class PassResult:
    """Operations attempted, the failed checks, counts that must repeat and,
    for a workload whose requests are single calls, each call's latency."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    latencies_ns: array | None = None

    def merge(self, other: "PassResult") -> None:
        self.attempted += other.attempted
        self.failures += other.failures


def _cli_json(command: str, family: str, n: int, k: int) -> tuple[int, dict]:
    """Run one `tecc <command> ... --format json` in-process."""
    out = io.StringIO()
    argv = [command, family, "--n", str(n), "--k", str(k), "--format", "json"]
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    try:
        return rc, json.loads(out.getvalue())
    except ValueError:
        return rc, {}


class Workload:
    """Defaults for workloads with no check that needs the traced pass."""

    def attach(self, tracer) -> None:
        """Register hooks on a tracer before a traced pass."""

    def check_traced(self) -> PassResult:
        """Checks on what `attach` captured, run after the traced pass."""
        return PassResult()


class Certify(Workload):
    name = "certify"
    request = "one pass over the 12-config grid"
    why = "the paper's pipeline through the `tecc verify` CLI"
    stresses = "spectrum.full_spectrum (the transform scan, ~95% of a pass)"
    bypasses = "decoder"

    def __init__(self, seed: int, max_n: int) -> None:
        rng = random.Random(f"certify:{seed}")
        self.grid = [
            (family, n, rng.choice(admissible_k(family, n)))
            for n in CERTIFY_NS if n <= max_n
            for family in FAMILIES
        ]
        rng.shuffle(self.grid)
        self.captured: list = []

    def setup(self) -> None:
        """Nothing to build: each `verify` call constructs its own field."""

    def run_pass(self) -> PassResult:
        res = PassResult()
        for family, n, k in self.grid:
            rc, payload = _cli_json("verify", family, n, k)
            res.attempted += 1
            code = f"[{(1 << n) - 1},{(1 << n) - 3 * n - 1},7]"
            stages = payload.get("stages") or [{"pass": False}]
            if rc != 0 or not all(s["pass"] for s in stages) or payload.get("code") != code:
                res.failures.append(f"verify {family} n={n} k={k}: exit {rc}, code {payload.get('code')}")
        return res

    def attach(self, tracer) -> None:
        """Capture the code distribution the traced pipeline computes."""
        self.captured = []
        tracer.hooks["macwilliams.transform"].append(
            lambda name, args, result: self.captured.append(result.to_pairs())
        )

    def check_traced(self) -> PassResult:
        """The traced library path's distributions must equal the ones the
        `tecc macwilliams` command prints, config by config."""
        res = PassResult()
        if len(self.captured) != len(self.grid):
            res.attempted += 1
            res.failures.append(f"traced pass captured {len(self.captured)} distributions "
                                f"for {len(self.grid)} configs")
        for (family, n, k), dist in zip(self.grid, self.captured):
            rc, payload = _cli_json("macwilliams", family, n, k)
            res.attempted += 1
            if rc != 0 or payload.get("code_distribution") != dist:
                res.failures.append(f"macwilliams {family} n={n} k={k}: CLI distribution differs")
        return res


class Decode(Workload):
    name = "decode"
    request = "one decode() call"
    why = "closed-loop decode of seeded words, 10% beyond the radius"
    stresses = "decoder.decode (p50: weight <= 2; p99: weight-4 probe scans)"
    bypasses = "spectrum"

    def __init__(self, seed: int, max_n: int) -> None:
        self.seed = seed
        self.n = min(9, max_n)

    def setup(self) -> None:
        """Build H, the generator and the pair index for every family, then
        encode the pool of received words, so no pass encodes anything."""
        rng = random.Random(f"decode:{self.seed}")
        ctx = tecc.make_ctx(self.n)
        self.codes = []
        self.words = []
        for family in FAMILIES:
            pair = tecc.instantiate(tecc.FamilySpec(family, default_k(family, self.n)), ctx)
            H = tecc.build_parity_check(ctx, pair)
            gen = tecc.systematic_generator(H)
            index = tecc.build_pair_index(ctx, pair)
            self.codes.append((family, ctx, pair, H, index))
            codewords = [tecc.encode(gen, rng.getrandbits(gen.dimension))
                         for _ in range(DECODE_CODEWORDS)]
            for _ in range(DECODE_BLOCKS):
                for weight in WEIGHT_BLOCK:
                    codeword = rng.choice(codewords)
                    received = codeword
                    for x in rng.sample(range(1, ctx.order), weight):
                        received ^= 1 << (x - 1)
                    self.words.append((len(self.codes) - 1, weight, codeword, received))
        rng.shuffle(self.words)
        self.pair_index_entries = sum(len(code[4]) for code in self.codes)

    def run_pass(self) -> PassResult:
        res = PassResult(latencies_ns=array("q"))
        latencies_ns = res.latencies_ns
        decode = tecc.decode
        for code_i, weight, codeword, received in self.words:
            family, ctx, pair, H, index = self.codes[code_i]
            t0 = perf_counter_ns()
            result = decode(ctx, pair, H, index, received)
            latencies_ns.append(perf_counter_ns() - t0)
            res.counts["decoder." + result.status] += 1
            word = result.corrected_word
            if weight <= 3:
                ok = word == codeword
            else:
                # Beyond the radius: give up, or land on a codeword within 3.
                ok = result.status == "uncorrectable" or (
                    word is not None
                    and tecc.syndrome_of(H, word).is_zero()
                    and (word ^ received).bit_count() <= 3
                )
            if not ok:
                res.failures.append(f"decode {family} weight {weight}: {result.status}")
        res.attempted = len(self.words)
        res.counts["decoder.pair_index_entries"] = self.pair_index_entries
        return res


class Crosscheck(Workload):
    name = "crosscheck"
    request = "one pass over the 23 oracle calls"
    why = "the independent oracles behind PASS verdicts, called as a library"
    stresses = "spectrum_for_bc and transform_single rows, gf2, kernel scans, is_apn"
    bypasses = "spectrum.full_spectrum and decoder"

    def __init__(self, seed: int, max_n: int) -> None:
        self.seed = seed
        self.n_scan = min(7, max_n)
        self.n_apn = min(9, max_n)

    def setup(self) -> None:
        rng = random.Random(f"crosscheck:{self.seed}")
        ctx5 = tecc.make_ctx(5)
        ctx = tecc.make_ctx(self.n_scan)
        ctx_apn = tecc.make_ctx(self.n_apn)

        def pair(family, c):
            return tecc.instantiate(tecc.FamilySpec(family, default_k(family, c.n)), c)

        ops = []
        for family, bound in GOLD_MAX_S.items():
            p, s = pair(family, ctx), rng.getrandbits(64)
            ops.append((f"gold_kernel_scan {family}",
                        lambda p=p, s=s: tecc.gold_kernel_scan(ctx, p, seed=s),
                        lambda r, bound=bound: (r.max_s <= bound and r.all_consistent
                                                and r.pairs_checked == ctx.group_order ** 2),
                        lambda r: {"kernel.pairs_checked": r.pairs_checked}))
        p, s = pair("kasami5", ctx), rng.getrandbits(64)
        ops.append(("kasami_kernel_scan",
                    lambda p=p, s=s: tecc.kasami_kernel_scan(ctx, p, samples=KASAMI_SAMPLES,
                                                             seed=s, exhaustive=False),
                    lambda r: (r.s0_sizes_nonzero_fw <= {2, 8} and r.all_consistent
                               and r.permutation_ok and r.substitution_ok
                               and r.triples_checked == KASAMI_SAMPLES),
                    lambda r: {"kernel.triples_checked": r.triples_checked}))
        for family in FAMILIES:
            p = pair(family, ctx)
            ops.append((f"weight3_syndromes_distinct {family}",
                        lambda p=p: tecc.weight3_syndromes_distinct(ctx, p),
                        lambda r: r is True, _no_counts))
        for family in FAMILIES:
            p = pair(family, ctx5)
            ops.append((f"min_distance_bruteforce {family}",
                        lambda p=p: tecc.min_distance_bruteforce(ctx5, p),
                        lambda r: r == 7, _no_counts))
        for k in admissible_k("gold2", ctx_apn.n):
            for label, e in (("gold", (1 << k) + 1), ("kasami", (1 << (2 * k)) - (1 << k) + 1)):
                table = tecc.power_table(ctx_apn, e)
                ops.append((f"is_apn {label} k={k}",
                            lambda table=table: tecc.is_apn(ctx_apn, table),
                            lambda r: r is True, _no_counts))
        self.ops = ops

    def run_pass(self) -> PassResult:
        res = PassResult()
        for label, call, check, tally in self.ops:
            result = call()
            res.attempted += 1
            if not check(result):
                res.failures.append(f"{label}: check failed")
            res.counts.update(tally(result))
        return res


def _no_counts(result) -> dict:
    return {}


WORKLOADS = {w.name: w for w in (Certify, Decode, Crosscheck)}
