"""Seeded request streams are reproducible and stay inside their stated ranges."""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, repeat_share, take, warm_up  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_requests(workload):
    assert take(workload, 11, 60) == take(workload, 11, 60)
    assert warm_up(workload, 11) == warm_up(workload, 11)
    assert [r.argv for r in take(workload, 11, 60)] != [r.argv for r in take(workload, 12, 60)]


@pytest.mark.parametrize("workload", ["cells", "algebra", "census"])
def test_warm_up_never_repeats_a_measured_key(workload):
    measured = {r.key for seed in range(5) for r in take(workload, seed, 100)}
    warm = {r.key for seed in range(5) for r in warm_up(workload, seed)}
    assert not measured & warm


def test_sizes_stay_in_range():
    for r in take("cells", 3, 200):
        if r.kind == "count":
            assert 400 <= r.params["n"] <= 1000 and 1 <= r.params["s"] <= 12
        elif r.kind == "table":
            assert 150 <= r.params["n_max"] <= 200
    for r in take("algebra", 3, 200):
        assert r.kind == "verify" or 6 <= r.params["s"] <= 12
    for r in take("census", 3, 200):
        if r.kind != "verify":
            assert 5.8e4 <= r.params["s"] ** r.params["n"] <= 2.8e5 and r.params["s"] < r.params["n"]
    interactive = take("interactive", 3, 400)
    assert sum(r.kind == "malformed" for r in interactive) == 40  # a tenth
    for r in interactive:
        if r.kind == "census" or r.params.get("method") == "census":
            assert r.params["s"] ** r.params["n"] <= 4**6
    assert {r.kind for r in interactive} >= {"table", "count", "formula", "gf", "pfd", "census", "trace", "verify"}


def test_repeat_share():
    assert repeat_share([("level", 6), ("level", 7), ("level", 6), ("level", 6)]) == 0.5
    assert repeat_share([]) == 0.0
