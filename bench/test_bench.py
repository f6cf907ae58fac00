"""Smoke test of the benchmark: every workload at n = 5, untraced and traced.

    python -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = ("field", "functions", "spectrum", "code", "gf2", "macwilliams", "kernel", "decoder")
ALIASES = {
    "certify": ["certify_s"],
    "crosscheck": ["crosscheck_s"],
    "decode": ["decode_words_per_s", "decode_us_p50", "decode_us_p99"],
}


def run(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--max-n", "5"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc


@pytest.fixture(scope="module")
def outputs():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(workload, trace)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            lines = proc.stdout.splitlines()
            out[workload, trace] = lines, json.loads(lines[-1])
    return out


def _check_metrics(result: dict, spec: list) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(outputs, workload):
    lines, result = outputs[workload, 0]
    _check_metrics(result, SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    assert any(line.startswith("metric fail_ratio = 0 ratio [0 failed / ") for line in lines)
    for alias in ALIASES[workload]:
        assert any(line.startswith(f"alias {alias} = ") for line in lines), alias
    assert any(line.startswith("provenance ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted_with_units(outputs, workload):
    lines, result = outputs[workload, 1]
    _check_metrics(result, SPEC["per_layer"])
    assert result["metrics"]["trace.coverage"]["value"] > 0
    assert result["metrics"]["trace.overhead"]["value"] > 0


def test_every_layer_has_a_span(outputs):
    spanned = set()
    for workload in WORKLOADS:
        _, result = outputs[workload, 1]
        spanned |= {name.split(".")[0] for name, m in result["metrics"].items()
                    if name.endswith("_s") and m["value"] > 0}
    assert spanned >= set(LAYERS)


def test_changed_exact_count_fails_the_run():
    record = BENCH / "results" / "decode-seed991-maxn5-trace1.json"
    try:
        assert run("decode", 1, seed=991).returncode == 0
        again = run("decode", 1, seed=991)
        assert again.returncode == 0, again.stdout
        data = json.loads(record.read_text())
        data["exact_counts"]["decoder.clean"] += 1
        record.write_text(json.dumps(data))
        bad = run("decode", 1, seed=991)
        assert bad.returncode == 1
        assert json.loads(bad.stdout.splitlines()[-1])["failed"] == 1
        assert "exact counts differ" in bad.stdout
    finally:
        record.unlink(missing_ok=True)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run("decode", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
