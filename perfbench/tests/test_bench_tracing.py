"""Span bookkeeping: self time, layer totals, the span file, and wrapping."""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import tracing  # noqa: E402
from tracing import Spans, install, layer_totals, self_times, uninstall  # noqa: E402


def synthetic() -> Spans:
    """request 0: cli [0, 10] > a [1, 7] > b [2, 4] and b [5, 6]; cli > c [8, 9]
    request 1: cli [20, 23], no children"""
    spans = Spans(("cli", "m.a", "m.b", "m.c"))
    rows = [
        # name, start, end, parent, request, work
        (0, 0.0, 10.0, -1, 0, 0),
        (1, 1.0, 7.0, 0, 0, 5),
        (2, 2.0, 4.0, 1, 0, 0),
        (2, 5.0, 6.0, 1, 0, 0),
        (3, 8.0, 9.0, 0, 0, 0),
        (0, 20.0, 23.0, -1, 1, 0),
    ]
    for row in rows:
        for (col, _), value in zip(tracing._COLUMNS, row):
            getattr(spans, col).append(value)
    return spans


def test_self_time_subtracts_direct_children_only():
    assert self_times(synthetic()) == [10.0 - 6.0 - 1.0, 6.0 - 2.0 - 1.0, 2.0, 1.0, 1.0, 3.0]


def test_layer_totals_and_telescoping():
    totals = layer_totals(synthetic())
    assert totals["cli"] == {"calls": 2, "self_s": 3.0 + 3.0, "work": 0}
    assert totals["m.a"] == {"calls": 1, "self_s": 3.0, "work": 5}
    assert totals["m.b"]["calls"] == 2 and totals["m.b"]["self_s"] == 3.0
    # self times of all spans add up to the request spans' durations
    assert sum(t["self_s"] for t in totals.values()) == 10.0 + 3.0


def test_span_file_round_trip(tmp_path):
    spans = synthetic()
    spans.write(tmp_path / "x.spans")
    back = Spans.read(tmp_path / "x.spans")
    assert back.names == spans.names
    for col, _ in tracing._COLUMNS:
        assert list(getattr(back, col)) == list(getattr(spans, col))


def test_install_wraps_every_binding_and_nests_spans():
    from altruns import bijection, cli, closed_form, exact_algebra, genfun, run_counts

    originals = (genfun.build_us, run_counts.andre_triangle, exact_algebra.partial_fractions)
    spans = Spans()
    replaced = install(spans)
    try:
        assert closed_form.build_us is genfun.build_us is not originals[0]
        assert bijection.andre_triangle is closed_form.andre_triangle is run_counts.andre_triangle
        assert cli.partial_fractions is closed_form.partial_fractions is exact_algebra.partial_fractions
        closed_form.formula_from_pfd(4)
        names = [spans.names[i] for i in spans.name]
        assert names == ["closed_form.formula_from_pfd", "genfun.build_us", "exact_algebra.partial_fractions"]
        assert list(spans.parent) == [-1, 0, 0]
        assert list(spans.work) == [0, 4, 0]  # build_us(4) builds four levels
    finally:
        uninstall(replaced)
    assert (genfun.build_us, run_counts.andre_triangle, exact_algebra.partial_fractions) == originals
    assert closed_form.build_us is originals[0]


@pytest.mark.parametrize(
    "name, args, work",
    [("run_counts.andre_triangle", (30,), 29), ("bijection.image_census", (5, 3), 3**5)],
)
def test_work_counts_from_arguments(name, args, work):
    module, fname = name.split(".")
    home = sys.modules[f"altruns.{module}"]
    spans = Spans()
    wrapped = tracing._wrap(spans, name, getattr(home, fname))
    wrapped(*args)
    assert spans.work[-1] == work
