"""Golden CLI digests: stdout bytes and exit codes of a fixed command table.

`cli_golden.json` maps each command line to its exit code and the sha256 of
its stdout.  The test replays every command in-process through `cli.main`,
so a change that alters any printed byte or exit code fails here.  Rewrite
the table only for a change whose output is meant to differ:

    PYTHONPATH=src python tests/test_cli_golden.py

It prints each command line whose exit code or digest changed (or that was
added to or dropped from the table), so the rewrite can be checked.
"""

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

from tecc.cli import main

from helpers import FAMILIES

TABLE = Path(__file__).resolve().parent / "cli_golden.json"
NS = (5, 7)


def command_lines() -> list[str]:
    lines = [f"{command} {family} --n {n} --format json"
             for command in ("verify", "spectrum", "macwilliams", "distance")
             for family in FAMILIES for n in NS]
    lines += [f"kernel {family} --n {n} --format json"
              for family in ("gold2", "gold3", "kasami5") for n in NS]
    lines += [f"decode-sim {family} --n {n} --errors 3 --format json"
              for family in ("gold2", "kasami5") for n in NS]
    lines += [f"{command} {family} --n 5 --format {fmt}"
              for command in ("verify", "spectrum", "macwilliams", "distance")
              for family in FAMILIES for fmt in ("table", "csv")]
    lines += [
        "build gold2 --n 5",
        "build gold2 --n 5 --format json",
        "kernel gold2 --n 5 --seed 3",
        "kernel kasami5 --n 11 --seed 3 --samples 200",
        "decode-sim gold2 --n 5 --seed 7 --trials 50 --errors 2",
        # refusals, each for one fault
        "distance gold2 --n 9",
        "decode-sim gold2 --n 5 --trials 0",
        "verify gold2 --n 17",
        "macwilliams gold2 --n 15",
        "verify gold2 --n 9 --k 3",
    ]
    return lines


def digest(line: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(line.split())
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def test_cli_stdout_and_exit_codes_match_the_golden_table():
    table = json.loads(TABLE.read_text())
    assert sorted(table) == sorted(command_lines())
    start = time.perf_counter()
    changed = [line for line in command_lines() if digest(line) != table[line]]
    elapsed = time.perf_counter() - start
    assert changed == []
    assert elapsed < 3.0


if __name__ == "__main__":
    old = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    new = {line: digest(line) for line in command_lines()}
    for line in sorted(old.keys() | new.keys()):
        if old.get(line) != new.get(line):
            print(line)
    TABLE.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
