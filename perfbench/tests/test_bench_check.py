"""The response checker accepts the program's real answers and flags wrong ones."""
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from altruns import cli  # noqa: E402
from check import check, evaluate, _AtN  # noqa: E402
from reference import Reference  # noqa: E402
from workloads import WORKLOADS, Request, malformed, take, warm_up  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    return Reference()


def answer(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def request(kind, fmt, **params):
    argv = [kind]
    for name, value in params.items():
        argv += [f"--{name}", str(value)]
    return Request((*argv, "--format", fmt), kind, fmt, params, ())


def test_reference_matches_known_cells(ref):
    assert [ref.value(4, s) for s in (1, 2, 3)] == [2, 12, 10]
    assert ref.value(5, 5) == 0 and ref.value(1, 1) == 0
    assert ref.value(1000, 2) == 2**1000 - 4  # the second column is 2^n - 4
    assert ref.value(1000, 1) == 2


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_off_by_one_count_is_flagged(ref, fmt):
    req = request("count", fmt, n=30, s=4)
    rc, out = answer(req.argv)
    assert check(req, rc, out, ref) is None
    v = ref.value(30, 4)
    bad = out.replace(f"{v}", f"{v + 1}")
    assert bad != out
    assert check(req, rc, bad, ref) is not None


def test_wrong_pfd_constant_is_flagged(ref):
    req = request("pfd", "json", s=5)
    rc, out = answer(req.argv)
    assert check(req, rc, out, ref) is None
    obj = json.loads(out)
    obj["terms"][0]["c"] = str(int(obj["terms"][0]["c"].split("/")[0]) + 1)
    assert check(req, rc, json.dumps(obj), ref) is not None


def test_wrong_pfd_text_is_flagged(ref):
    req = request("pfd", "text", s=4)
    rc, out = answer(req.argv)
    assert check(req, rc, out, ref) is None
    assert check(req, rc, out.replace("x)", "x)^2", 1), ref) is not None


def test_malformed_request_that_exits_zero_is_flagged(ref):
    req = malformed(("count", "--n", "1", "--s", "1"))
    rc, out = answer(req.argv)
    assert rc == 2 and out == ""
    assert check(req, rc, out, ref) is None
    assert check(req, 0, "", ref) is not None
    assert check(req, 2, "2\n", ref) is not None


def test_failed_verify_check_is_flagged(ref):
    req = request("verify", "text", suite="polynomial")
    rc, out = answer(req.argv)
    assert check(req, rc, out, ref) is None
    assert check(req, rc, out.replace("[PASS]", "[FAIL]", 1), ref) is not None
    assert check(req, 1, out, ref) is not None


def test_formula_text_evaluates_exactly():
    body = "4^(n-1) - 3^n + (6-n)*2^(n-1) + (2n-7)"
    assert evaluate(body, _AtN(5)) == 4**4 - 3**5 + 1 * 2**4 + 3


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_real_answers_pass(ref, workload):
    """Warm-up and setup requests of every workload, plus the first two
    interactive rounds, which touch every subcommand and format."""
    reqs = warm_up(workload, 7) + [WORKLOADS[workload].setup]
    if workload == "interactive":
        reqs += take(workload, 7, 80)
    for req in reqs:
        rc, out = answer(req.argv)
        assert check(req, rc, out, ref) is None, req.argv
