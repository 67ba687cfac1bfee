import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from altruns import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "--n-max", "5")
    assert code == 0
    assert out.splitlines() == [
        "n=2: 2",
        "n=3: 2 4",
        "n=4: 2 12 10",
        "n=5: 2 28 58 32",
    ]


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--n-max", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["2,1,2", "3,1,2", "3,2,4", "4,1,2", "4,2,12", "4,3,10"]


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--n-max", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == 1
    assert obj["command"] == "table"
    assert obj["rows"] == [["2"], ["2", "4"]]
    assert obj["n_max"] == "3"


def test_table_bounds(capsys):
    assert run(capsys, "table", "--n-max", "1")[0] == 2
    assert run(capsys, "table", "--n-max", "201")[0] == 2


def test_count_all_methods_agree(capsys):
    values = set()
    for method in ("brute", "recurrence", "genfun", "closed-form", "census"):
        code, out, _ = run(capsys, "count", "--n", "7", "--s", "4", "--method", method)
        assert code == 0
        values.add(out.strip())
    assert values == {"1852"}


def test_count_json_and_csv(capsys):
    code, out, _ = run(capsys, "count", "--n", "6", "--s", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == "236" and obj["method"] == "recurrence"
    code, out, _ = run(capsys, "count", "--n", "6", "--s", "3", "--format", "csv")
    assert out.strip() == "6,3,236"


def test_count_large_n_small_s(capsys):
    code, out, _ = run(capsys, "count", "--n", "40", "--s", "2")
    assert code == 0
    assert out.strip() == str(2**40 - 4)


def test_count_usage_errors(capsys):
    assert run(capsys, "count", "--n", "11", "--s", "2", "--method", "brute")[0] == 2
    assert run(capsys, "count", "--n", "1", "--s", "1")[0] == 2
    assert run(capsys, "count", "--n", "5", "--s", "0")[0] == 2
    assert run(capsys, "count", "--n", "5", "--s", "13", "--method", "genfun")[0] == 2
    assert run(capsys, "count", "--n", "4", "--s", "4", "--method", "closed-form")[0] == 2
    code, _, err = run(capsys, "count", "--n", "30", "--s", "3", "--method", "census")
    assert code == 2 and "budget" in err


def test_count_zero_outside_triangle(capsys):
    code, out, _ = run(capsys, "count", "--n", "4", "--s", "7")
    assert code == 0 and out.strip() == "0"


def test_formula_text(capsys):
    code, out, _ = run(capsys, "formula", "--s", "4")
    assert code == 0
    assert out.strip() == "P(n,4) = 4^(n-1) - 3^n + (6-n)*2^(n-1) + (2n-7)  [n >= 2]"


def test_formula_json(capsys):
    code, out, _ = run(capsys, "formula", "--s", "2", "--format", "json")
    obj = json.loads(out)
    assert obj["display"] == "P(n,2) = 2^n - 4  [n >= 2]"
    assert obj["terms"] == [
        {"base": "2", "psi": ["1"]},
        {"base": "1", "psi": ["-4"]},
    ]


def test_formula_no_csv(capsys):
    code, _, err = run(capsys, "formula", "--s", "2", "--format", "csv")
    assert code == 2


def test_gf_text(capsys):
    code, out, _ = run(capsys, "gf", "--s", "3")
    assert code == 0
    assert out.strip() == "u_3 = 2x^4(5-6x) / ((1-3x)(1-2x)(1-x)^2)"


def test_gf_json(capsys):
    code, out, _ = run(capsys, "gf", "--s", "2", "--format", "json")
    obj = json.loads(out)
    assert obj["numerator"] == ["0", "0", "0", "4"]
    assert obj["denominator"] == [["2", "1"], ["1", "1"]]


def test_pfd_text(capsys):
    code, out, _ = run(capsys, "pfd", "--s", "4")
    assert code == 0
    assert out.strip() == (
        "u_4 = (1/4)/(1-4x) - 1/(1-3x) - (1/2)/(1-2x)^2 + (7/2)/(1-2x)"
        " + 2/(1-x)^2 - 9/(1-x) + 19/4 + 2x"
    )


def test_pfd_json(capsys):
    code, out, _ = run(capsys, "pfd", "--s", "4", "--format", "json")
    obj = json.loads(out)
    assert obj["terms"] == [
        {"k": "4", "m": "1", "c": "1/4"},
        {"k": "3", "m": "1", "c": "-1"},
        {"k": "2", "m": "2", "c": "-1/2"},
        {"k": "2", "m": "1", "c": "7/2"},
        {"k": "1", "m": "2", "c": "2"},
        {"k": "1", "m": "1", "c": "-9"},
    ]
    assert obj["poly_part"] == ["19/4", "2"]


def test_census_text_and_csv(capsys):
    code, out, _ = run(capsys, "census", "--n", "5", "--s", "4")
    assert code == 0
    assert "128 of 1024" in out and "-1892" in out
    code, out, _ = run(capsys, "census", "--n", "5", "--s", "4", "--format", "csv")
    assert out.strip() == "5,4,128,1024,-1892"


def test_census_budget(capsys):
    code, _, err = run(capsys, "census", "--n", "8", "--s", "3", "--budget", "100")
    assert code == 2 and "budget" in err


def test_trace_success(capsys):
    code, out, _ = run(capsys, "trace", "--blocks", "1;2,3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "blocks: {1} {2,3}"
    assert lines[1] == "step 1 adjacent unions: {1,2,3}"
    assert lines[2] == "step 2 recovered endpoints: 3"
    assert lines[3] == "step 3 choice sequence: 1"
    assert lines[4] == "step 4 candidate: {1,3} {2,3} -> valid"
    assert lines[5] == "outcome: preimage found"


def test_trace_failure(capsys):
    code, out, _ = run(capsys, "trace", "--blocks", "1,2,3;;4,5,6")
    assert code == 0
    assert "endpoint_mismatch" in out
    assert "no preimage" in out


def test_trace_empty_union(capsys):
    code, out, _ = run(capsys, "trace", "--blocks", "1,2;;;3,4")
    assert code == 0
    assert "empty adjacent union" in out
    assert "no preimage (empty_union)" in out


def test_trace_json(capsys):
    code, out, _ = run(capsys, "trace", "--blocks", "1;2,3", "--format", "json")
    obj = json.loads(out)
    assert obj["preimage_exists"] is True
    assert obj["candidate"] == [["1", "3"], ["2", "3"]]
    assert obj["choices"] == ["1"]


def test_trace_usage_errors(capsys):
    assert run(capsys, "trace", "--blocks", "1,2;2,3")[0] == 2  # overlap
    assert run(capsys, "trace", "--blocks", "1,2;4")[0] == 2  # gap in cover
    assert run(capsys, "trace", "--blocks", "a,b")[0] == 2
    assert run(capsys, "trace", "--blocks", ";;")[0] == 2


def test_verify_single_suites(capsys):
    for suite in ("triangle", "genfun", "closed-form", "polynomial"):
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == 0, out
        assert "checks passed" in out
        assert "[FAIL]" not in out


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "polynomial", "--format", "csv")
    assert code == 0
    for line in out.splitlines():
        assert line.split(",")[0] == "polynomial"
        assert line.split(",")[2] == "pass"


def test_verify_reports_failures(capsys, monkeypatch):
    def broken():
        raise AssertionError("forced")

    patched = tuple(
        (suite, name, broken if name == "degree audits pass" else fn)
        for suite, name, fn in cli.CHECKS
    )
    monkeypatch.setattr(cli, "CHECKS", patched)
    code, out, _ = run(capsys, "verify", "--suite", "genfun")
    assert code == 1
    assert "[FAIL] genfun: degree audits pass" in out
    code, out, _ = run(capsys, "verify", "--suite", "genfun", "--format", "json")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_unknown_arguments(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys, "count", "--n", "5")[0] == 2  # missing --s
    assert run(capsys, "verify", "--suite", "nope")[0] == 2
    assert run(capsys, "count", "--n", "x", "--s", "1")[0] == 2


def test_table_deterministic(capsys):
    first = run(capsys, "table", "--n-max", "8", "--format", "json")
    second = run(capsys, "table", "--n-max", "8", "--format", "json")
    assert first == second


# sha256 (first 16 hex digits) of `count --n N --s S` stdout in text, json and
# csv, recorded from the full-triangle implementation the column path replaced
COUNT_GOLDEN = {
    (2, 1): ('53c234e5e8472b6a', 'a810005f4d281637', '11fcc94bbfe9b5ba'),
    (2, 2): ('9a271f2a916b0b6e', '2b8851d18822e243', '9e6a9ad6407d5015'),
    (2, 12): ('9a271f2a916b0b6e', '64222a632f8ac3d2', 'c38942d94702499e'),
    (3, 1): ('53c234e5e8472b6a', '2d15aad51fa52386', '7d383417d210753a'),
    (3, 2): ('7de1555df0c27003', '40e1877183f8104c', '305a35c836323ad5'),
    (3, 3): ('9a271f2a916b0b6e', 'abb8d540abbb4593', '4b26f4fccdf0d6a2'),
    (3, 12): ('9a271f2a916b0b6e', 'c1efd9fd53ed43ae', '65d5abc3dcb87e62'),
    (420, 1): ('53c234e5e8472b6a', 'a2120fe8a92ad755', '9c313d5d1ffee6be'),
    (420, 2): ('2fb08af2cce92eed', '6bc43f160d82917d', '0b4f489caff6539e'),
    (420, 12): ('c89681257fa3e7a4', 'bbc14996da21065d', '08310526f550a12e'),
    (420, 419): ('4858eaf5ca4f0544', 'c45a9692bbd66eff', 'fe0330422ef7a6b3'),
    (420, 420): ('9a271f2a916b0b6e', 'cd7e869b956cead7', '641c5c2fc73ea1bb'),
    (550, 1): ('53c234e5e8472b6a', 'e74ca9887413e4ed', 'c7f170f8ed435bc1'),
    (550, 2): ('6cc1fd1f1a2c0804', '5323cc5f70c735b5', '6242c0cf7508d75e'),
    (550, 12): ('40056345a71bd692', 'ef5665ad303ee04f', '704d1e417199c46e'),
    (550, 549): ('209e63d20f8b06be', '0e56b963633b0473', '76e615a87c228bf8'),
    (550, 550): ('9a271f2a916b0b6e', 'def9e218621614c0', '98d620375c2194d3'),
    (1000, 1): ('53c234e5e8472b6a', 'c35af739d3b53516', '46e962d926b0cd60'),
    (1000, 2): ('fa6de63dae75b384', '4694531dd0976388', '285bb5ea241afac3'),
    (1000, 12): ('9badb9aaf459e76a', '3497648ca42d800e', 'fc57c00f346a1130'),
    (1000, 999): ('ae1d75ab81004951', '8db0b0c717ae4ff3', '577e95be143d75d4'),
    (1000, 1000): ('9a271f2a916b0b6e', '813e27dade7c0a3c', 'd2193431ebaf73d1'),
}


@pytest.mark.parametrize("n, s", sorted(COUNT_GOLDEN))
def test_count_output_golden(capsys, n, s):
    for fmt, expected in zip(("text", "json", "csv"), COUNT_GOLDEN[(n, s)]):
        code, out, _ = run(capsys, "count", "--n", str(n), "--s", str(s), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == expected, fmt


VERIFY_WITH_WRONG_BRUTE_FORCE = """
import sys
from altruns import cli, run_counts
assert sys.flags.optimize, "must run under python -O"
right = run_counts.brute_force_row
run_counts.brute_force_row = lambda n: tuple(reversed(right(n)))
sys.exit(cli.main(["verify", "--suite", "triangle"]))
"""


def test_verify_fails_under_python_O():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", VERIFY_WITH_WRONG_BRUTE_FORCE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "[FAIL] triangle: brute force matches the recurrence" in proc.stdout
