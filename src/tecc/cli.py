"""Command-line front end: construct, certify and exercise the codes.

Subcommands: verify, spectrum, kernel, build, distance, macwilliams,
decode-sim.  Each accepts the shared options and only the others it
reads.  Runs are deterministic: the sampling commands take one seed per
run, forked per subtask by a fixed label, so identical configurations give
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import random
import sys

from .code import (
    RankDefect,
    build_parity_check,
    dual_weights_from_spectrum,
    min_distance_bruteforce,
    rank_and_dimension,
    systematic_generator,
    encode,
    weight3_syndromes_distinct,
)
from .decoder import build_pair_index, decode
from .field import FieldCtx, make_ctx
from .functions import (FAMILY_NAMES, ConditionViolated, DegeneratePair, FamilySpec, MonomialPair,
                        instantiate, is_apn)
from .kernel import gold_kernel_scan, kasami_kernel_scan
from .macwilliams import NonIntegralResult, check_length, macwilliams_transform, verify_distance7
from .spectrum import full_spectrum


def fork_seed(seed: int, label: str) -> int:
    """Derive a subtask seed from the run seed and a fixed label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _emit(config: argparse.Namespace, payload: dict, table=None) -> None:
    """Print the payload in the chosen format, or write it to --out.  table
    formats the table format, one key/value line per entry by default."""
    if config.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2)
    elif config.format == "csv":
        lines = [f"{k},{_flat(v)}" for k, v in sorted(payload.items())]
        text = "\n".join(lines)
    elif table is not None:
        text = table(payload)
    else:
        lines = [f"{k:24s} {_flat(v)}" for k, v in payload.items()]
        text = "\n".join(lines)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _flat(v) -> str:
    if isinstance(v, (dict, list, tuple)):
        return json.dumps(v, sort_keys=True)
    return str(v)


def _certify(ctx: FieldCtx, pair: MonomialPair,
             printed: bool = False) -> tuple[dict, tuple | None, Exception | None]:
    """The paper's chain to d = 7: records {stage: (pass, detail)}, then the
    (dual, code) distributions or the RankDefect/NonIntegralResult of the
    stage that failed.  Before the scan it refuses a length the transform
    refuses and, when the distributions are `printed`, too many digits."""
    check_length(ctx.group_order)
    if printed:
        # Every A_w <= 2^(N - 3n), so this bounds the digits of the widest one.
        digits = int((ctx.group_order - 3 * ctx.n) * math.log10(2)) + 1
        limit = sys.get_int_max_str_digits()
        if 0 < limit < digits:
            raise ValueError(
                f"the code distribution's coefficients reach up to {digits} digits, beyond the "
                f"int-to-str limit of {limit} (sys.get_int_max_str_digits)"
            )
    stages = {"instantiate": (True, f"exponents ({pair.d1}, {pair.d2})")}
    apn = is_apn(ctx, pair.f_table)
    stages["apn"] = (apn, f"x^{pair.d1} differential uniformity <= 2: {apn}")
    report = full_spectrum(ctx, pair)
    stages["five_valued"] = (report.five_valued,
                             f"support {sorted(report.histogram)} witness {report.witness}")
    H = build_parity_check(ctx, pair)
    try:
        rank, dim = rank_and_dimension(H)  # raises unless rank = 3n
        stages["parameters"] = (True, f"rank {rank}, dimension {dim}")
        dual = dual_weights_from_spectrum(ctx, pair, report, H)
        dist = macwilliams_transform(dual, 3 * ctx.n)
    except RankDefect as exc:
        stages["parameters"] = (False, str(exc))
        stages["distance7"] = (False, "skipped (earlier stage failed)")
        return stages, None, exc
    except NonIntegralResult as exc:
        stages["distance7"] = (False, str(exc))
        return stages, None, exc
    ok = verify_distance7(dist)
    stages["distance7"] = (ok, f"A_1..A_6 = 0: {ok}, A_7 = {dist.coeffs[7]}")
    return stages, (dual, dist), None


def cmd_verify(config: argparse.Namespace, ctx: FieldCtx, pair: MonomialPair) -> int:
    """Run the whole pipeline and print one verdict per stage."""
    stages, _, _ = _certify(ctx, pair)
    all_ok = all(ok for ok, _ in stages.values())
    payload = {
        "family": config.family,
        "n": config.n,
        "k": config.k,
        "code": f"[{ctx.group_order},{ctx.group_order - 3 * ctx.n},7]" if all_ok else None,
        "stages": [{"stage": s, "pass": ok, "detail": d} for s, (ok, d) in stages.items()],
        "pass": all_ok,
    }
    _emit(config, payload, table=_verdict_table)
    return 0 if all_ok else 1


def _verdict_table(payload: dict) -> str:
    """verify's table: one PASS/FAIL line per stage, then the overall verdict."""
    lines = [f"{'PASS' if st['pass'] else 'FAIL'}  {st['stage']:12s} {st['detail']}"
             for st in payload["stages"]]
    lines.append(f"{'PASS' if payload['pass'] else 'FAIL'}  overall      {payload['code'] or ''}")
    return "\n".join(lines)


def cmd_spectrum(config: argparse.Namespace, ctx: FieldCtx, pair: MonomialPair) -> int:
    report = full_spectrum(ctx, pair)
    _emit(config, {"n": config.n, "family": config.family, "k": config.k,
                   **report.to_json_dict()})
    return 0 if report.five_valued else 1


def cmd_kernel(config: argparse.Namespace, ctx: FieldCtx, pair: MonomialPair) -> int:
    if config.family in ("gold2", "gold3"):
        if config.samples is not None:
            raise ValueError(f"--samples: the {config.family} scan checks every (b, c)")
        summary = gold_kernel_scan(ctx, pair, seed=fork_seed(config.seed, "kernel"))
        _emit(config, summary.to_json_dict())
        return 0 if summary.all_consistent else 1
    if config.family == "kasami5":
        # the scan is exhaustive at n <= 9 and samples above
        if config.samples is not None and config.n <= 9:
            raise ValueError("--samples: the kasami5 scan at n <= 9 checks every (a, b, c)")
        summary = kasami_kernel_scan(
            ctx, pair,
            samples=10_000 if config.samples is None else config.samples,
            seed=fork_seed(config.seed, "kernel"),
            keep_reports=32,
        )
        payload = summary.to_json_dict()
        payload["reports"] = [r.to_json_dict() for r in summary.reports]
        _emit(config, payload)
        ok = summary.all_consistent and summary.permutation_ok and summary.substitution_ok
        return 0 if ok else 1
    raise ConditionViolated("kernel scans cover the gold2, gold3 and kasami5 families")


def cmd_build(config: argparse.Namespace, ctx: FieldCtx, pair: MonomialPair) -> int:
    H = build_parity_check(ctx, pair)
    rank, dim = rank_and_dimension(H)
    meta = {"n": config.n, "family": config.family, "k": config.k, "rank": rank, "dim": dim}
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(H.to_text() + "\n")
        print(json.dumps(meta, sort_keys=True))
    elif config.format == "json":
        print(json.dumps(meta, sort_keys=True, indent=2))
    else:
        print(H.to_text())
    return 0


def cmd_distance(config: argparse.Namespace, ctx: FieldCtx, pair: MonomialPair) -> int:
    if config.n > 7:
        raise ValueError(f"both distance oracles are limited to n <= 7; got n={config.n}")
    payload: dict = {"family": config.family, "n": config.n, "k": config.k}
    ok = True
    if config.n == 5:
        d = min_distance_bruteforce(ctx, pair)
        payload["min_distance_bruteforce"] = d
        ok &= d == 7
    distinct = weight3_syndromes_distinct(ctx, pair)
    payload["weight3_syndromes_distinct"] = distinct
    ok &= distinct
    _emit(config, payload)
    return 0 if ok else 1


def cmd_macwilliams(config: argparse.Namespace, ctx: FieldCtx, pair: MonomialPair) -> int:
    stages, dists, error = _certify(ctx, pair, printed=True)
    if error is not None:
        raise error
    dual, dist = dists
    ok = stages["distance7"][0]
    _emit(config, {
        "family": config.family,
        "n": config.n,
        "k": config.k,
        "dual_distribution": dual.to_pairs(),
        "code_distribution": dist.to_pairs(),
        "distance7": ok,
    })
    return 0 if ok else 1


def cmd_decode_sim(config: argparse.Namespace, ctx: FieldCtx, pair: MonomialPair) -> int:
    if config.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {config.trials}")
    H = build_parity_check(ctx, pair)
    gen = systematic_generator(H)
    index = build_pair_index(ctx, pair)
    label = f"decode-sim:{config.family}:{config.n}:{config.k}:{config.errors}"
    rng = random.Random(fork_seed(config.seed, label))
    successes = 0
    for _ in range(config.trials):
        message = rng.getrandbits(gen.dimension)
        codeword = encode(gen, message)
        received = codeword
        for x in rng.sample(range(1, ctx.order), config.errors):
            received ^= 1 << (x - 1)
        result = decode(ctx, pair, H, index, received)
        successes += result.corrected_word == codeword
    rate = successes / config.trials
    _emit(config, {
        "family": config.family, "n": config.n, "k": config.k,
        "errors": config.errors, "trials": config.trials, "seed": config.seed,
        "successes": successes, "success_rate": rate,
    })
    return 0 if successes == config.trials else 1


_SEED = ("--seed", {"type": int, "default": 0})

# name -> (command, the options it reads beyond the shared ones)
_COMMANDS = {
    "verify": (cmd_verify, ()),
    "spectrum": (cmd_spectrum, ()),
    "kernel": (cmd_kernel, (_SEED, ("--samples", {"type": int}))),
    "build": (cmd_build, ()),
    "distance": (cmd_distance, ()),
    "macwilliams": (cmd_macwilliams, ()),
    "decode-sim": (cmd_decode_sim, (
        _SEED,
        ("--trials", {"type": int, "default": 1000}),
        ("--errors", {"type": int, "default": 3, "choices": (0, 1, 2, 3)}),
    )),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors also print the JSON error record on stdout, then exit 2
    with the usage text on stderr as argparse does."""

    def error(self, message: str):
        print(json.dumps({"error": "ArgumentError", "message": message}, sort_keys=True))
        super().error(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first `main` call and shared by later ones; it depends on no input."""
    parser = _Parser(
        prog="tecc",
        description="triple-error-correcting codes from power-function pairs over GF(2^n)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("family_pos", nargs="?", metavar="FAMILY",
                       help="family name (alternative to --family)")
        p.add_argument("--family", help=f"one of {', '.join(FAMILY_NAMES)}")
        p.add_argument("--n", type=int, required=True, help="field degree (odd, 5..17)")
        p.add_argument("--k", type=int, help="family parameter k (default 1)")
        p.add_argument("--t", type=int, help="parameter t for family th (default (n-1)/2)")
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        p.add_argument("--out")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


def _config_from_args(args: argparse.Namespace) -> None:
    """Settle the family name and the family parameter k in place."""
    if args.family is not None and args.family_pos is not None:
        raise ValueError("give the family either as FAMILY or as --family, not both")
    args.family = (args.family or args.family_pos or "").lower()
    if not args.family:
        raise ValueError("a family is required (positional or --family)")
    if args.t is not None and args.family != "th":
        raise ValueError(f"--t is the parameter of family th; family {args.family} takes --k")
    if args.t is not None and args.k is not None:
        raise ValueError("give either --k or --t, not both")
    if args.k is None:
        args.k = args.t
    if args.k is None:
        args.k = (args.n - 1) // 2 if args.family == "th" else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _config_from_args(args)
        ctx = make_ctx(args.n)
        pair = instantiate(FamilySpec(args.family, args.k), ctx)
        status = _COMMANDS[args.command][0](args, ctx, pair)
        sys.stdout.flush()  # a reader that has gone away shows up here, not at exit
        return status
    except BrokenPipeError:
        # Nothing more can reach the reader: send the rest of stdout, and the
        # flush at exit, to devnull rather than into a second traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ConditionViolated, DegeneratePair, RankDefect, NonIntegralResult, ValueError,
            OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True))
        return 2


if __name__ == "__main__":
    sys.exit(main())
