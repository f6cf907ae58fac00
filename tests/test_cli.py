"""CLI subcommands: exit codes, report content, determinism."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tecc import FamilySpec, instantiate, kernel, make_ctx
from tecc import code as tecc_code
from tecc.cli import fork_seed, main

# The options each command reads besides FAMILY and the shared ones.
SHARED_OPTIONS = {"--family", "--n", "--k", "--t", "--format", "--out"}
OWN_OPTIONS = {
    "verify": set(),
    "spectrum": set(),
    "kernel": {"--seed", "--samples"},
    "build": set(),
    "distance": set(),
    "macwilliams": set(),
    "decode-sim": {"--seed", "--trials", "--errors"},
}
UNREAD_OPTIONS = [(command, option) for command, own in OWN_OPTIONS.items()
                  for option in ("--seed", "--samples", "--trials", "--errors")
                  if option not in own]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_gold2_n5(capsys):
    code, out = run_cli(capsys, "verify", "gold2", "--n", "5", "--k", "1")
    assert code == 0
    assert "[31,16,7]" in out
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def test_verify_condition_violation(capsys):
    code, out = run_cli(capsys, "verify", "gold2", "--n", "9", "--k", "3")
    assert code == 2
    record = json.loads(out)
    assert record["error"] == "ConditionViolated"
    assert "gcd" in record["message"]


def test_verify_json_payload(capsys):
    code, out = run_cli(capsys, "verify", "--family", "kasami5", "--n", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["code"] == "[31,16,7]"
    assert {s["stage"] for s in payload["stages"]} == {
        "instantiate", "apn", "five_valued", "parameters", "distance7",
    }


def test_spectrum_th_defaults_t(capsys):
    # t defaults to (n-1)/2 for the th family
    code, out = run_cli(capsys, "spectrum", "--family", "th", "--n", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["five_valued"] is True
    assert payload["k"] == 2
    assert sum(c for _, c in payload["histogram"]) == 30752


def test_kernel_gold3(capsys):
    code, out = run_cli(capsys, "kernel", "gold3", "--n", "5", "--k", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_s"] <= 3
    assert payload["all_consistent"] is True


def test_kernel_kasami_reports(capsys):
    code, out = run_cli(capsys, "kernel", "kasami5", "--n", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["permutation_ok"] and payload["substitution_ok"]
    assert payload["s0_sizes_nonzero_fw"] == [2, 8]
    assert len(payload["reports"]) == 32
    assert all(r["consistent"] for r in payload["reports"])


@pytest.mark.parametrize("command", [["verify"], ["kernel"]])
def test_huge_k_runs_as_k_mod_n(capsys, command):
    # every 2^(jk) is taken mod 2^n - 1 as it is formed, so k near 10^12
    # costs what k mod n does and prints the same apart from "k"
    big = 10**12 + 1  # = 2 mod 7
    payloads = []
    for k in (big, big % 7):
        code, out = run_cli(capsys, command[0], "kasami5", "--n", "7", "--k", str(k),
                            *command[1:], "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload.pop("k") == k
        payloads.append(payload)
    assert payloads[0] == payloads[1]


def test_kernel_rejects_th(capsys):
    code, out = run_cli(capsys, "kernel", "th", "--n", "5", "--format", "json")
    assert code == 2
    assert json.loads(out)["error"] == "ConditionViolated"


def test_distance_command(capsys):
    code, out = run_cli(capsys, "distance", "kasami5", "--n", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["min_distance_bruteforce"] == 7
    assert payload["weight3_syndromes_distinct"] is True


def test_macwilliams_command(capsys):
    code, out = run_cli(capsys, "macwilliams", "gold2", "--n", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["distance7"] is True
    assert [7, 155] in payload["code_distribution"]


def test_decode_sim_perfect_rate(capsys):
    code, out = run_cli(capsys, "decode-sim", "gold2", "--n", "5", "--errors", "3",
                        "--trials", "250", "--seed", "42", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["success_rate"] == 1.0
    assert payload["successes"] == 250


def test_build_writes_matrix(tmp_path, capsys):
    out_file = tmp_path / "H.txt"
    code, out = run_cli(capsys, "build", "gold2", "--n", "5", "--out", str(out_file))
    assert code == 0
    meta = json.loads(out)
    assert meta == {"dim": 16, "family": "gold2", "k": 1, "n": 5, "rank": 15}
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 15 and all(len(l) == 31 for l in lines)


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("command", ["verify", "spectrum", "macwilliams"])
def test_out_file_holds_what_stdout_would(tmp_path, capsys, command, fmt):
    # with --out the command writes to the file what it would have printed,
    # verify's PASS/FAIL table included, and stdout stays empty
    argv = [command, "gold2", "--n", "5", "--format", fmt]
    code, printed = run_cli(capsys, *argv)
    target = tmp_path / "out.txt"
    assert run_cli(capsys, *argv, "--out", str(target)) == (code, "")
    assert target.read_text() == printed


@pytest.mark.parametrize("family", ["gold2", "gold3", "th", "kasami5"])
@pytest.mark.parametrize("command", ["verify", "spectrum", "macwilliams", "distance"])
def test_csv_rows_hold_one_key_and_one_value(capsys, command, family):
    # a value with commas (a histogram, a code's [N, k, d], the stages) is
    # quoted, so a csv reader splits each row into its key and its value
    code, out = run_cli(capsys, command, family, "--n", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows and all(len(row) == 2 for row in rows), rows
    nested = [value for _, value in rows if value[:1] in ("[", "{")]
    assert all(json.loads(value) is not None for value in nested)
    assert nested or command == "distance"


def test_missing_family_is_an_error(capsys):
    code, out = run_cli(capsys, "spectrum", "--n", "5")
    assert code == 2
    assert "family" in json.loads(out)["message"]


def test_conflicting_k_and_t_rejected(capsys):
    code, out = run_cli(capsys, "spectrum", "th", "--n", "5", "--k", "1", "--t", "2")
    assert code == 2


@pytest.mark.parametrize("family", ["gold2", "gold3", "kasami5"])
def test_t_refused_outside_th(capsys, family):
    # --t is th's parameter; on another family it is refused, not read as k
    code, out = run_cli(capsys, "spectrum", family, "--n", "5", "--t", "2")
    assert code == 2
    record = json.loads(out)
    assert record["error"] == "ValueError"
    assert "--t" in record["message"] and family in record["message"]


def test_family_given_twice_rejected(capsys):
    code, out = run_cli(capsys, "spectrum", "gold2", "--family", "th", "--n", "5")
    assert code == 2
    record = json.loads(out)
    assert record["error"] == "ValueError"
    assert "--family" in record["message"]


def test_json_output_byte_identical(capsys):
    args = ["decode-sim", "gold2", "--n", "5", "--errors", "2",
            "--trials", "100", "--seed", "7", "--format", "json"]
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_fork_seed_stable_and_label_sensitive():
    assert fork_seed(42, "decode-sim") == fork_seed(42, "decode-sim")
    assert fork_seed(42, "decode-sim") != fork_seed(42, "kernel")
    assert fork_seed(1, "kernel") != fork_seed(2, "kernel")


def test_decode_sim_rejects_no_trials(capsys):
    code, out = run_cli(capsys, "decode-sim", "gold2", "--n", "5", "--trials", "0")
    assert code == 2
    assert "--trials" in json.loads(out)["message"]


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_kernel_rejects_empty_sample(capsys, samples):
    code, out = run_cli(capsys, "kernel", "kasami5", "--n", "11", "--samples", samples)
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"


@pytest.mark.parametrize("family, n", [("gold2", 5), ("gold3", 7), ("kasami5", 5),
                                       ("kasami5", 7), ("kasami5", 9)])
def test_kernel_refuses_samples_where_the_scan_checks_everything(capsys, family, n):
    # gold2/gold3 check every (b, c), and kasami5 every (a, b, c) at n <= 9
    code, out = run_cli(capsys, "kernel", family, "--n", str(n), "--samples", "5")
    assert code == 2
    record = json.loads(out)
    assert record["error"] == "ValueError"
    assert "--samples" in record["message"]


def test_kernel_samples_refusal_moves_with_the_exhaustive_threshold(capsys, monkeypatch):
    # one constant sets both where the kasami5 scan stops checking every
    # triple and where --samples is refused
    monkeypatch.setattr(kernel, "KASAMI_EXHAUSTIVE_MAX_N", 7)
    code, out = run_cli(capsys, "kernel", "kasami5", "--n", "9", "--samples", "50",
                        "--format", "json")
    assert code == 0
    assert json.loads(out)["exhaustive"] is False
    code, out = run_cli(capsys, "kernel", "kasami5", "--n", "7", "--samples", "5")
    assert code == 2
    assert "n <= 7" in json.loads(out)["message"]


def test_distance_refusals_move_with_the_oracle_limit(capsys, monkeypatch):
    # one constant sets where `tecc distance` refuses and where the
    # weight-3 syndrome scan does
    monkeypatch.setattr(tecc_code, "DISTANCE_ORACLE_MAX_N", 5)
    code, out = run_cli(capsys, "distance", "gold2", "--n", "7")
    assert code == 2
    assert json.loads(out)["message"] == "both distance oracles are limited to n <= 5; got n=7"
    ctx = make_ctx(7)
    with pytest.raises(ValueError, match="limited to n <= 5"):
        tecc_code.weight3_syndromes_distinct(ctx, instantiate(FamilySpec("gold2", 1), ctx))


def test_distance_beyond_oracle_limit_rejected(capsys):
    code, out = run_cli(capsys, "distance", "gold2", "--n", "9")
    assert code == 2
    assert "n <= 7" in json.loads(out)["message"]


def test_decode_sim_at_n13(capsys):
    code, out = run_cli(capsys, "decode-sim", "gold2", "--n", "13", "--trials", "20",
                        "--format", "json")
    assert code == 0
    assert json.loads(out)["success_rate"] == 1.0


@pytest.mark.parametrize("command", ["verify", "macwilliams"])
def test_length_beyond_macwilliams_limit_refused_before_scan(capsys, command):
    start = time.perf_counter()
    code, out = run_cli(capsys, command, "gold2", "--n", "17")
    assert time.perf_counter() - start < 10  # the spectrum scan alone takes about a minute
    assert code == 2
    record = json.loads(out)
    assert record["error"] == "ValueError"
    assert "ROADMAP item 2" in record["message"]


@pytest.fixture
def default_int_str_digits():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_macwilliams_refuses_unprintable_coefficients_before_scan(capsys, default_int_str_digits):
    # at n = 15 the widest A_w may reach 9851 digits, past the 4300-digit limit
    start = time.perf_counter()
    code, out = run_cli(capsys, "macwilliams", "gold2", "--n", "15", "--format", "json")
    assert time.perf_counter() - start < 2  # the scan alone takes seconds
    assert code == 2
    record = json.loads(out)
    assert record["error"] == "ValueError"
    assert "int-to-str limit of 4300" in record["message"]


def test_macwilliams_prints_n13(capsys, default_int_str_digits):
    code, out = run_cli(capsys, "macwilliams", "gold2", "--n", "13", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["distance7"] is True
    assert [7, 892155569955] in payload["code_distribution"]


def test_unwritable_out_path_rejected(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out = run_cli(capsys, "spectrum", "gold2", "--n", "5", "--format", "json",
                        "--out", str(target))
    assert code == 2
    assert json.loads(out)["error"] == "FileNotFoundError"
    assert not target.exists()


@pytest.mark.parametrize("argv, needle", [
    (["verify", "gold2", "--n", "five"], "invalid int value"),
    (["verify", "gold2", "--n", "5", "--workers", "2"], "unrecognized arguments"),
    (["decode-sim", "gold2", "--n", "5", "--errors", "5"], "invalid choice"),
] + [([command, "gold2", "--n", "5", option, "1"], "unrecognized arguments")
     for command, option in UNREAD_OPTIONS])
def test_usage_errors_print_json_record(capsys, argv, needle):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    record = json.loads(captured.out)
    assert record["error"] == "ArgumentError"
    assert needle in record["message"]
    assert captured.err.startswith("usage:")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


@pytest.mark.parametrize("command", OWN_OPTIONS)
def test_help_lists_exactly_the_options_read(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    assert set(re.findall(r"--[a-z]+", out)) == {"--help"} | SHARED_OPTIONS | OWN_OPTIONS[command]


def _cli_env(**extra) -> dict:
    src = Path(__file__).resolve().parents[1] / "src"
    return {**os.environ, "PYTHONPATH": str(src), **extra}


def test_shared_parser_leaks_no_state_between_calls(capsys):
    # one process: a usage error, then --seed 5, then a call with no seed
    calls = [
        ["decode-sim", "gold2", "--n", "5", "--errors", "7"],
        ["decode-sim", "th", "--n", "5", "--trials", "20", "--seed", "5", "--format", "json"],
        ["decode-sim", "gold2", "--n", "5", "--trials", "20", "--format", "json"],
    ]
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "tecc.cli", *argv], env=_cli_env(),
                              capture_output=True, text=True, timeout=120)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == fresh
    assert json.loads(in_process[1][1])["seed"] == 5
    assert json.loads(in_process[2][1])["seed"] == 0


def test_closed_pipe_exits_1_without_traceback():
    # the reader stops after 300 bytes of a ~1 MB record, as `| head -c 300` does
    proc = subprocess.Popen(
        [sys.executable, "-m", "tecc.cli", "macwilliams", "gold2", "--n", "11",
         "--format", "json"],
        env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(300)
    proc.stdout.close()
    err = proc.communicate(timeout=120)[1]
    assert proc.returncode == 1
    assert head.startswith(b"{")
    assert err == b""


def test_blas_thread_count_cannot_change_a_result():
    # the transform's float32 products are exact, so no blocking or thread
    # split of the BLAS products can round a value
    runs = [
        subprocess.run(
            [sys.executable, "-m", "tecc.cli", "spectrum", "gold2", "--n", "11",
             "--format", "json"],
            env=_cli_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, timeout=300)
        for threads in ("1", "2")
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["five_valued"] is True
