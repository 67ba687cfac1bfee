import csv
import hashlib
import json
import os
import re
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
    code, _, err = run(capsys, "count", "--n", "30", "--s", "3", "--method", "census")
    assert code == 2 and "budget" in err


def test_count_zero_outside_triangle(capsys):
    code, out, _ = run(capsys, "count", "--n", "4", "--s", "7")
    assert code == 0 and out.strip() == "0"
    for s in ("4", "7"):
        code, out, _ = run(capsys, "count", "--n", "4", "--s", s, "--method", "closed-form")
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
    obj = json.loads(run(capsys, "formula", "--s", "4", "--format", "json")[1])
    assert obj["terms"][0] == {"base": "4", "psi": ["1/4"]}
    assert obj["terms"][2] == {"base": "2", "psi": ["3", "-1/2"]}


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


def test_census_failures(capsys):
    code, out, _ = run(capsys, "census", "--n", "5", "--s", "4", "--failures")
    assert code == 0
    assert out.splitlines()[1] == "failures: empty_union 94, small_set 786, endpoint_mismatch 16"
    for n, s in ((2, 1), (3, 2), (5, 4), (6, 3), (4, 5), (7, 3)):
        argv = ("census", "--n", str(n), "--s", str(s), "--failures", "--format", "json")
        obj = json.loads(run(capsys, *argv)[1])
        failures = {c: int(k) for c, k in obj["failures"].items()}
        assert list(failures) == ["empty_union", "small_set", "endpoint_mismatch"]
        assert obj["total"] == str(s**n)
        assert sum(failures.values()) == s**n - int(obj["successes"])
        plain = json.loads(run(capsys, *argv[:5], "--format", "json")[1])
        assert {k: v for k, v in obj.items() if k != "failures"} == plain


def test_census_at_the_budget_edge(capsys):
    code, out, _ = run(capsys, "census", "--n", "2", "--s", "4096", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert (obj["successes"], obj["total"]) == ("0", str(4096**2))


def test_census_budget(capsys):
    code, out, err = run(capsys, "census", "--n", "25", "--s", "2")
    assert (code, out) == (2, "")
    assert "enumeration budget exceeded: 2^25 > 16777216" in err


def test_budget_is_not_an_option(capsys):
    # the cap is fixed; --budget is refused as an unknown argument
    for command, n, s in (("count", "7", "4"), ("census", "30", "3")):
        code, out, err = run(capsys, command, "--n", n, "--s", s, "--budget", "5")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --budget 5" in err


def test_census_n_is_capped(capsys):
    for n in ("1001", "2000", "16000000"):
        code, out, err = run(capsys, "census", "--n", n, "--s", "3")
        assert (code, out) == (2, "")
        assert "--n must be between 2 and 1000" in err


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


def test_trace_json_sorts_elements_as_integers(capsys):
    code, out, _ = run(capsys, "trace", "--blocks", "1,3,5,7,9,11;2,4,6,8,10", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    odd, even = [str(v) for v in range(1, 12, 2)], [str(v) for v in range(2, 11, 2)]
    assert obj["blocks"] == [odd, even]
    assert obj["unions"] == [[str(v) for v in range(1, 12)]]
    assert obj["candidate"] == [odd, even + ["11"]]
    assert (obj["deleted"], obj["choices"]) == (["11"], ["2"])


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


def test_verify_record_shape(capsys, monkeypatch):
    def broken():
        raise ArithmeticError("forced")

    checks = (("triangle", "sums, one name with a comma", lambda: "fine"), ("genfun", "broken", broken))
    monkeypatch.setattr(cli, "CHECKS", checks)
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 1
    entries = json.loads(out)["checks"]
    assert [e["ok"] for e in entries] == [True, False]
    for e in entries:
        assert list(e) == ["suite", "name", "ok", "seconds", "detail"]
        assert re.fullmatch(r"\d+\.\d{3}", e["seconds"])
    code, out, _ = run(capsys, "verify", "--format", "csv")
    rows = list(csv.reader(out.splitlines()))
    assert [r[:3] for r in rows] == [[s, n, v] for (s, n, _), v in zip(checks, ("pass", "fail"))]
    assert all(len(r) == 4 and re.fullmatch(r"\d+\.\d{3}", r[3]) for r in rows)
    code, out, _ = run(capsys, "verify")
    assert out.splitlines()[-1] == "1/2 checks passed"


def _json_leaves(value):
    if isinstance(value, dict):
        return [leaf for v in value.values() for leaf in _json_leaves(v)]
    if isinstance(value, list):
        return [leaf for v in value for leaf in _json_leaves(v)]
    return [value]


def test_json_has_no_numbers_but_the_schema(capsys):
    argvs = [argv for argv, hashes in OUTPUT_GOLDEN.items() if hashes[1] is not None]
    argvs += [("count", "--n", "7", "--s", "4", "--method", m) for m in cli.METHODS]
    argvs += [("verify", "--suite", "polynomial")]
    for argv in argvs:
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj.pop("schema") == 1
        for leaf in _json_leaves(obj):
            assert leaf is None or isinstance(leaf, (str, bool)), (argv, leaf)


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


# sha256 (first 16 hex digits) of stdout in text, json and csv, recorded
# before the JSON header moved into _emit, and for formula, gf and pfd at
# s = 3, 6..11 before their text moved onto the genfun primitives; None where
# the parser refuses the format (exit 2, nothing on stdout)
OUTPUT_GOLDEN = {
    ('table', '--n-max', '2'): ('64fd64d42d93a6b8', '287ebe2c320f908d', '11fcc94bbfe9b5ba'),
    ('table', '--n-max', '10'): ('e9705f29cdc9a87e', '89370bc4af1ce221', '0736707de480997c'),
    ('table', '--n-max', '60'): ('71c368e37799eccd', '1ccad1d65ab901cc', 'dcb46459c4329040'),
    ('table', '--n-max', '200'): ('e394eabacbd311a3', 'f4f23d02c5cf40c5', 'ef2e1089f5910c1c'),
    ('formula', '--s', '1'): ('247fbab844e6343c', 'bfb05bbfeea34e11', None),
    ('formula', '--s', '2'): ('d5a5791cd1c5a6f2', '7fcb18fa92d5b1ea', None),
    ('formula', '--s', '3'): ('99b62b46d58529c9', 'fa3a3cee1c0d46c6', None),
    ('formula', '--s', '5'): ('8811885ad695402e', '3044d1a96ad4d21d', None),
    ('formula', '--s', '6'): ('f99934e4d602110c', 'e8ec52f378230211', None),
    ('formula', '--s', '7'): ('3654ca0996647f92', 'dfa431d06b6ccd22', None),
    ('formula', '--s', '8'): ('330dcf007fa26fee', '887d9f6d4d86f86b', None),
    ('formula', '--s', '9'): ('d7170e8a17385f9c', '3be40cabdba1c676', None),
    ('formula', '--s', '10'): ('2120ee3dcb248666', 'e89e6df6f9bde7c0', None),
    ('formula', '--s', '11'): ('a604789619fe7b96', '5d4483963d2686a7', None),
    ('formula', '--s', '12'): ('d95b30ff704f41c9', '67b9d5e7591eeb41', None),
    ('gf', '--s', '1'): ('7aa6b5bb4ee2d15e', '47e4b01f0d0089bc', None),
    ('gf', '--s', '3'): ('4e6cf9d4c6ded586', '63e271a6b831bbf9', None),
    ('gf', '--s', '6'): ('ee9df66ab1f09b88', '1f80c20c62d5c810', None),
    ('gf', '--s', '7'): ('28614b1efe6d8e6c', '6c7c26c2b9e89a3e', None),
    ('gf', '--s', '8'): ('7f56933dd367284d', 'a255d583989c4474', None),
    ('gf', '--s', '9'): ('8a4951acefa6f019', '6286e68aafed1651', None),
    ('gf', '--s', '10'): ('0f250e260e4822a7', '77d3417d84cbd4c0', None),
    ('gf', '--s', '11'): ('a94e26d1a055a1d3', '10adbf9fd053e97a', None),
    ('gf', '--s', '12'): ('b1f19ee2b3f29455', '74842feb3d1b8fc2', None),
    ('pfd', '--s', '1'): ('2ce18ff3201090d7', 'de86e8f9441eae92', None),
    ('pfd', '--s', '3'): ('7cfd9cc0d8c6e6f6', 'a18473a3d3d22832', None),
    ('pfd', '--s', '4'): ('7ae310b6e131417e', 'e3ea7c331f27142a', None),
    ('pfd', '--s', '6'): ('b43dc4b9c5d40c18', '8aab422fd840b153', None),
    ('pfd', '--s', '7'): ('bdb007eee573e000', '1354de448162101e', None),
    ('pfd', '--s', '8'): ('06bd1a7a4ce88fa9', 'add18f56a7e02782', None),
    ('pfd', '--s', '9'): ('cb3507c56028ce14', 'c111ab5218ef90a0', None),
    ('pfd', '--s', '10'): ('d822330bc296db4b', '841533010b19438d', None),
    ('pfd', '--s', '11'): ('98afece291067439', '1e182c23b82590b4', None),
    ('pfd', '--s', '12'): ('dfecff1fa1523445', 'b94c436b3db3432c', None),
    ('census', '--n', '2', '--s', '1'): ('1bf066737dffe69e', 'd0d7ab8bf9b003fc', '73f6b9aa7813ba91'),
    ('census', '--n', '5', '--s', '4'): ('5778fb6c67cb358d', '8e1cda9492f26de0', 'f4b7dff99e659417'),
    ('census', '--n', '6', '--s', '3'): ('007771505b720680', '7ac0fc77f7368fa1', '6dd7d55dd059be5c'),
    ('census', '--n', '4', '--s', '5'): ('3372e303114d4b5f', '3896d6bad89febfa', '5095c6efce6e2377'),
    ('census', '--n', '8', '--s', '3'): ('4c9166f3776b5c8d', 'd07d524b8a5fe61f', 'f316456501130a4d'),
    ('trace', '--blocks', '1;2,3'): ('869c53ff444beca8', '8355f3c11956f8c0', None),
    ('trace', '--blocks', '1,2,3;;4,5,6'): ('1d5f16f2b8272b77', 'e52d1a99ab0e0ede', None),
    ('trace', '--blocks', '1,2;;;3,4'): ('af35739b9d758a43', '468c731c806abb1e', None),
    ('trace', '--blocks', '1,3;2;4'): ('93a2dd61ba049e5b', '9657d53dc6cc39b1', None),
    ('trace', '--blocks', '1,2,3'): ('7051a79426c409d9', 'ed74e93db5f2b8e8', None),
    ('trace', '--blocks', '1,3;;2;4,5'): ('21539d43f56272ec', 'dbdb1726da367773', None),
    ('trace', '--blocks', '1,2,3;'): ('b694e19c41025a2e', '7fba04a2fa5c4540', None),
    ('trace', '--blocks', '2,4;1,3,5;6'): ('96ddf934c15d9047', 'bcff6350a4ee6020', None),
}


@pytest.mark.parametrize(
    "argv", sorted(OUTPUT_GOLDEN), ids=lambda argv: f"{argv[0]}:{','.join(argv[2::2])}"
)
def test_output_golden(capsys, argv):
    for fmt, expected in zip(("text", "json", "csv"), OUTPUT_GOLDEN[argv]):
        code, out, _ = run(capsys, *argv, "--format", fmt)
        if expected is None:
            assert (code, out) == (2, ""), fmt
        else:
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest()[:16] == expected, fmt


# sha256 (first 16 hex digits) of `census --n N --s S --failures` stdout in
# text, json and csv; the tallies equal the per-tuple classifier's
FAILURES_GOLDEN = {
    (5, 4): ('e7d026a508336154', 'c6cc118e69a1c6aa', 'b7711bcb8b12e0df'),
    (7, 3): ('23c35f4605fbee70', 'bbfeb5c1a2153cd1', '238c5c30c2877b25'),
}


@pytest.mark.parametrize("n, s", sorted(FAILURES_GOLDEN))
def test_census_failures_golden(capsys, n, s):
    for fmt, expected in zip(("text", "json", "csv"), FAILURES_GOLDEN[(n, s)]):
        code, out, _ = run(capsys, "census", "--n", str(n), "--s", str(s), "--failures", "--format", fmt)
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


VERIFY_WITH_WRONG_CENSUS = """
import sys
from altruns import bijection, cli
assert sys.flags.optimize, "must run under python -O"
bijection._endpoint_mismatch = lambda a, b, i: False  # never reports a mismatch
sys.exit(cli.main(["verify", "--suite", "bijection"]))
"""


def test_verify_fails_under_python_O():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for script, failed in (
        (VERIFY_WITH_WRONG_BRUTE_FORCE, "[FAIL] triangle: brute force matches the recurrence"),
        (VERIFY_WITH_WRONG_CENSUS, "[FAIL] bijection: census identity and sandwich"),
    ):
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert failed in proc.stdout
