"""The FAIL paths of `verify` and `macwilliams`, pinned byte for byte.

No family fails a stage, so these call the commands directly on pairs built
to fail: the gold2 f table with g = x^7 (not five-valued, d < 7), the
degenerate pair {x^3, x^3} (rank 10 < 15), and a transform forced to
return a non-integral coefficient.
"""

import argparse
import json

import pytest

from tecc import MonomialPair, NonIntegralResult, RankDefect, cli, power_table

from helpers import get_ctx, get_pair, pair_with_g7

STAGES = ("instantiate", "apn", "five_valued", "parameters", "distance7")
APN = "x^3 differential uniformity <= 2: True"
RANK_OK = "rank 15, dimension 16"
NON_INTEGRAL = "A_3 = 5/32768 is not a non-negative integer"

# pair -> (exponents, five_valued detail, parameters, distance7), each stage
# as (pass, detail)
VERIFY_CASES = {
    "g7": ("exponents (3, 7)",
           (False, "support [-20, -12, -8, -4, 0, 4, 8, 12, 16] witness (0, 1, 1)"),
           (True, RANK_OK),
           (False, "A_1..A_6 = 0: False, A_7 = 0")),
    "rank_defect": ("exponents (3, 3)",
                    (False, "support [-8, 0, 8, 32] witness (0, 1, 1)"),
                    (False, "rank 10 < 3n = 15"),
                    (False, "skipped (earlier stage failed)")),
    "non_integral": ("exponents (3, 5)",
                     (True, "support [-16, -8, 0, 8, 16] witness None"),
                     (True, RANK_OK),
                     (False, NON_INTEGRAL)),
}

G7_DUAL = [[0, 1], [8, 310], [10, 1271], [12, 4340], [14, 8060], [16, 9393], [18, 5890],
           [20, 2852], [22, 620], [26, 31]]
G7_CODE = [[0, 1], [6, 31], [8, 310], [9, 775], [10, 1116], [11, 2852], [12, 4340],
           [13, 5580], [14, 8370], [15, 9393], [16, 9393], [17, 8370], [18, 5580],
           [19, 4340], [20, 2852], [21, 1116], [22, 775], [23, 310], [25, 31], [31, 1]]


def make_case(name, monkeypatch):
    """(ctx, pair) for the named case; non_integral patches the transform."""
    if name == "g7":
        return pair_with_g7("gold2")
    ctx = get_ctx(5)
    if name == "rank_defect":
        t = power_table(ctx, 3)
        return ctx, MonomialPair(5, 3, 3, t, t)

    def non_integral(dual, dual_dim):
        raise NonIntegralResult(NON_INTEGRAL)

    monkeypatch.setattr(cli, "macwilliams_transform", non_integral)
    return ctx, get_pair("gold2", 5)


def run(capsys, command, ctx, pair, fmt):
    config = argparse.Namespace(family=pair.family, n=5, k=pair.param, format=fmt, out=None)
    code = command(config, ctx, pair)
    return code, capsys.readouterr().out


def expected_stages(name):
    exponents, *rest = VERIFY_CASES[name]
    return [(True, exponents), (True, APN), *rest]


@pytest.mark.parametrize("name", VERIFY_CASES)
def test_verify_fail_table(capsys, monkeypatch, name):
    stages = expected_stages(name)
    code, out = run(capsys, cli.cmd_verify, *make_case(name, monkeypatch), "table")
    assert code == 1
    expected = [f"{'PASS' if ok else 'FAIL'}  {s:12s} {d}" for s, (ok, d) in zip(STAGES, stages)]
    assert out == "\n".join(expected + ["FAIL  overall      ", ""])


@pytest.mark.parametrize("name", VERIFY_CASES)
def test_verify_fail_json(capsys, monkeypatch, name):
    stages = expected_stages(name)
    ctx, pair = make_case(name, monkeypatch)
    code, out = run(capsys, cli.cmd_verify, ctx, pair, "json")
    assert code == 1
    payload = {
        "code": None, "family": pair.family, "k": pair.param, "n": 5, "pass": False,
        "stages": [{"detail": d, "pass": ok, "stage": s} for s, (ok, d) in zip(STAGES, stages)],
    }
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_macwilliams_fail_table(capsys):
    code, out = run(capsys, cli.cmd_macwilliams, *pair_with_g7("gold2"), "table")
    assert code == 1
    assert out == (
        "family                   gold2\n"
        "n                        5\n"
        "k                        1\n"
        f"dual_distribution        {json.dumps(G7_DUAL)}\n"
        f"code_distribution        {json.dumps(G7_CODE)}\n"
        "distance7                False\n"
    )


def test_macwilliams_fail_json(capsys):
    code, out = run(capsys, cli.cmd_macwilliams, *pair_with_g7("gold2"), "json")
    assert code == 1
    payload = {"code_distribution": G7_CODE, "distance7": False, "dual_distribution": G7_DUAL,
               "family": "gold2", "k": 1, "n": 5}
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name, error, message", [
    ("rank_defect", RankDefect, "rank 10 < 3n = 15"),
    ("non_integral", NonIntegralResult, NON_INTEGRAL),
])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_macwilliams_raises_the_failing_stage(capsys, monkeypatch, name, error, message, fmt):
    # main turns the exception into the exit-2 JSON error record
    with pytest.raises(error) as exc:
        run(capsys, cli.cmd_macwilliams, *make_case(name, monkeypatch), fmt)
    assert str(exc.value) == message
    assert capsys.readouterr().out == ""
