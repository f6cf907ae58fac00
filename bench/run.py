"""Benchmark for tecc: one workload per run, end to end or traced per layer.

    python3 bench/run.py --workload {certify,decode,crosscheck} --seed N \\
        --seconds S --trace {0,1} [--max-n 5]

Run it from the repository root; it imports `tecc` from `src/` and needs no
build.  `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
ones.  Every output is checked.  The run prints `provenance` and `metric`
lines, the failed checks, and as its last line one JSON object with the keys
correct, attempted, failed and metrics; it exits 0 only when no check failed.
It also writes the result, with its exact counts, to `bench/results/`; a
later run with the same seed and the same sources must reproduce the counts.
`--max-n 5` shrinks every workload to n = 5 for the smoke test.
See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from math import ceil
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_PROBES = 5  # setup_s is the median over this many fresh processes
PROBE_TIMEOUT_S = 60

# The workload-specific names of the same numbers: (alias, metric, scale, unit).
ALIASES = {
    "certify": [("certify_s", "request_us_p50", 1e-6, "s")],
    "crosscheck": [("crosscheck_s", "request_us_p50", 1e-6, "s")],
    "decode": [("decode_words_per_s", "requests_per_s", 1, "1/s"),
               ("decode_us_p50", "request_us_p50", 1, "us"),
               ("decode_us_p99", "request_us_p99", 1, "us")],
}
CALL_COUNTS = ("functions.is_apn", "spectrum.spectrum_for_bc",
               "spectrum.transform_single", "gf2.row_reduce")
EXACT_COUNTS = ("spectrum.bc_rows", "spectrum.fwht_ops_computed",
                "kernel.pairs_checked", "kernel.triples_checked",
                "decoder.pair_index_entries", "decoder.clean",
                "decoder.corrected", "decoder.uncorrectable")


def load_tecc() -> str | None:
    """Import tecc from this checkout's src/, never from an installed copy.
    Returns an error message, or None on success."""
    sys.path.insert(0, str(SRC))
    try:
        import tecc
    except ImportError as exc:
        return f"cannot import tecc from {SRC}: {exc}"
    where = Path(tecc.__file__).resolve().parent
    if where != SRC / "tecc":
        return f"tecc was imported from {where}, not from {SRC}"
    return None


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[max(0, ceil(q / 100 * len(ordered)) - 1)]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def agree(expected: dict | None, got: dict, total, what: str) -> dict:
    """Exact counts must repeat; a mismatch is a failed check."""
    if expected is None:
        return got
    total.attempted += 1
    if got != expected:
        diff = {k: (expected.get(k), got.get(k)) for k in sorted({*expected, *got})
                if expected.get(k) != got.get(k)}
        total.failures.append(f"exact counts differ ({what}): {diff}")
    return expected


def probe_setup(name: str, seed: int, max_n: int) -> float:
    """Seconds from starting a fresh interpreter to the end of the
    workload's setup, import of tecc included.  perf_counter is the
    system-wide monotonic clock, so the child's reading is comparable."""
    t0 = perf_counter()
    out = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed), str(max_n)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT,
    )
    return float(out.stdout.split()[-1]) - t0


def untraced_run(wl, seconds: float, seed: int, max_n: int):
    """Set up in fresh processes for setup_s, then repeat whole passes until
    `seconds` have been measured.  A request is one timed call where the
    pass reports call latencies (decode), otherwise the whole pass.  Rate
    and percentiles are taken per pass and the run reports the best pass for
    each: load from other processes on a shared machine only ever slows a
    pass down, so the best pass is the least disturbed estimate."""
    from workloads import PassResult

    setup = [probe_setup(wl.name, seed, max_n) for _ in range(SETUP_PROBES)]
    wl.setup()
    per_pass: list[tuple[float, float, float]] = []
    n_requests = 0
    total, counts = PassResult(), None
    start = perf_counter()
    while not per_pass or perf_counter() - start < seconds:
        t0 = perf_counter_ns()
        res = wl.run_pass()
        elapsed = perf_counter_ns() - t0
        ordered = sorted(res.latencies_ns if res.latencies_ns is not None else [elapsed])
        per_pass.append((len(ordered) / (elapsed / 1e9),
                         percentile(ordered, 50) / 1000, percentile(ordered, 99) / 1000))
        n_requests += len(ordered)
        total.merge(res)
        counts = agree(counts, dict(res.counts), total, "between passes")
    rates, p50s, p99s = zip(*per_pass)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "requests_per_s": (max(rates), "1/s"),
        "request_us_p50": (min(p50s), "us"),
        "request_us_p99": (min(p99s), "us"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    timed = f"{n_requests} requests in {len(per_pass)} passes"
    samples = {"setup_s": f"{len(setup)} processes", "requests_per_s": timed,
               "request_us_p50": timed, "request_us_p99": timed, "peak_rss_mib": "1 process"}
    return metrics, samples, total, counts or {}


def traced_run(wl, seconds: float):
    """Alternate untraced and traced units (setup plus one pass) until
    `seconds` have been measured; per-layer values are medians over units."""
    from tracing import TARGETS, Tracer
    from workloads import PassResult

    units = []
    total, counts = PassResult(), None
    start = perf_counter()
    while not units or perf_counter() - start < seconds:
        t0 = perf_counter()
        wl.setup()
        ref = wl.run_pass()
        ref_s = perf_counter() - t0
        tracer = Tracer()
        wl.attach(tracer)
        with tracer.installed():
            t0 = perf_counter()
            wl.setup()
            res = wl.run_pass()
            traced_s = perf_counter() - t0
        total.merge(ref)
        total.merge(res)
        agree(dict(ref.counts), dict(res.counts), total, "untraced vs traced pass")
        unit_counts = {name: 0 for name in EXACT_COUNTS}
        unit_counts.update(res.counts)
        unit_counts.update(tracer.counts)
        unit_counts.update({f"{name}_calls": tracer.calls[name] for name in CALL_COUNTS})
        counts = agree(counts, unit_counts, total, "between traced units")
        units.append((ref_s, traced_s, tracer))
    total.merge(wl.check_traced())

    def med(f):
        return statistics.median(f(*unit) for unit in units)

    metrics = {f"{name}_s": (med(lambda r, t, tr: tr.self_s.get(name, 0.0)), "s")
               for name in TARGETS}
    for name, value in counts.items():
        metrics[name] = (value, "ops" if name.endswith("fwht_ops_computed") else "count")
    metrics["trace.coverage"] = (med(lambda r, t, tr: tr.top_s / t), "ratio")
    metrics["trace.overhead"] = (med(lambda r, t, tr: t / r), "ratio")
    samples = {name: f"{len(units)} units" for name in metrics}
    return metrics, samples, total, counts


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Fingerprint of the program and benchmark sources; exact counts are
    only compared between runs of identical sources."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_record(args, counts: dict, provenance: dict, metrics: dict, total) -> None:
    """Compare the exact counts with the last run of the same seed and
    sources, then store this run's result in their place."""
    path = RESULTS / f"{args.workload}-seed{args.seed}-maxn{args.max_n}-trace{args.trace}.json"
    digest = source_digest()
    if path.exists():
        try:
            old = json.loads(path.read_text())
        except ValueError:
            old = {}
        if old.get("source_digest") == digest:
            agree(old.get("exact_counts"), counts, total, f"vs the previous run in {path.name}")
    RESULTS.mkdir(exist_ok=True)
    record = {"source_digest": digest, "exact_counts": counts, "provenance": provenance,
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "decode", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-n", type=int, choices=(5, 9), default=9,
                        help="largest field degree; 5 shrinks every workload for the smoke test")
    args = parser.parse_args(argv)

    error = load_tecc()
    if error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    import numpy
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.max_n)
    if args.trace:
        metrics, samples, total, counts = traced_run(wl, args.seconds)
    else:
        metrics, samples, total, counts = untraced_run(wl, args.seconds, args.seed, args.max_n)

    provenance = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": args.seed,
        "workload": wl.name,
        "why": wl.why,
        "stresses": wl.stresses,
        "bypasses": wl.bypasses,
        "request": wl.request,
        "max_n": args.max_n,
        "trace": args.trace,
    }
    check_record(args, counts, provenance, metrics, total)

    failed = len(total.failures)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} [{samples[name]}]")
    for alias, name, scale, unit in ALIASES[wl.name] if not args.trace else ():
        print(f"alias {alias} = {metrics[name][0] * scale:.6g} {unit} [= {name}]")
    print(f"metric fail_ratio = {failed / total.attempted:.6g} ratio "
          f"[{failed} failed / {total.attempted} attempted]")
    for failure in total.failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": total.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
