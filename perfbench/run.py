"""altruns benchmark: seeded request workloads through altruns.cli.main.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it measures the end-to-end metrics: setup_s over SETUP_TRIALS
fresh interpreters, then one fresh interpreter answering whole rounds of the
workload's request stream in a closed loop until S seconds of request time
have passed. End-to-end times are CPU seconds scaled by the host's speed
around each request (calibration.py). With --trace 1 it answers a fixed list
of about a quarter of that twice, untraced and traced, each in a fresh
interpreter, and reports per-layer self times (wall seconds), work counts,
the tracing overhead and the layer probes. Every response is checked for
exactness against the benchmark's own reference (reference.py, check.py).

Human-readable lines go first; the last line of stdout is the JSON result.
Without the package source next to this directory (src/altruns) it prints
an error and exits 1. Run it from anywhere; `python3 perfbench/run.py --all`
runs every workload once and prints every metric with its unit.
"""
from __future__ import annotations

import argparse
import compileall
import json
import math
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
from tracing import TRACED, Spans, layer_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_TRIALS = 11  # fresh interpreters per run for setup_s, split around the measurement
RUN_LIMIT_S = 170  # every worker must finish inside this, counted from start
LIMIT_FACTOR = 3  # a traced pass stops starting rounds after this many times its nominal time

END_TO_END = (
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_rps", "1/s"),
    ("setup_s", "s"),
    ("max_rss_mb", "MB"),
)

# (name, unit): per-function metrics, then module totals, tracing and probes
PER_LAYER = (
    ("run_counts.andre_triangle.calls", "count"),
    ("run_counts.andre_triangle.self_s", "s"),
    ("run_counts.andre_triangle.rows", "count"),
    ("genfun.build_us.calls", "count"),
    ("genfun.build_us.self_s", "s"),
    ("genfun.build_us.levels", "count"),
    ("exact_algebra.partial_fractions.calls", "count"),
    ("exact_algebra.partial_fractions.self_s", "s"),
    ("exact_algebra.series_coefficients.self_s", "s"),
    ("closed_form.formula_from_pfd.self_s", "s"),
    ("closed_form.psi_from_recurrence.self_s", "s"),
    ("closed_form.evaluate_closed_form.self_s", "s"),
    ("bijection.image_census.calls", "count"),
    ("bijection.image_census.self_s", "s"),
    ("bijection.image_census.tuples", "count"),
    ("bijection.image_census.tuples_per_s", "1/s"),
    ("bijection.failure_census.self_s", "s"),
    ("bijection.failure_census.tuples", "count"),
    ("bijection.phi.calls", "count"),
    ("bijection.phi.self_s", "s"),
    ("bijection.reconstruct.calls", "count"),
    ("bijection.reconstruct.self_s", "s"),
    ("bijection.reconstruct_trace.calls", "count"),
    ("bijection.reconstruct_trace.self_s", "s"),
    ("run_counts.brute_force_row.self_s", "s"),
    ("run_counts.run_polynomial.self_s", "s"),
    ("exact_algebra.sturm_real_root_audit.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("cli.census_tuples_per_s", "1/s"),
    *((f"{module}.self_s", "s") for module in TRACED),
    ("trace.request_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("probe.andre_triangle_1000_s", "s"),
    ("probe.build_us_12_s", "s"),
    ("probe.build_us_20_s", "s"),
    ("probe.formula_from_pfd_20_s", "s"),
    ("probe.psi_from_recurrence_20_s", "s"),
    ("probe.image_census_8_5_s", "s"),
    ("probe.image_census_10_4_s", "s"),
)

# stats read from the per-call work counts that tracing.WORK records
_WORK_SUFFIX = {"rows", "levels", "tuples"}


class BenchError(Exception):
    """The benchmark could not run; reported on stderr, exit code 1."""


def _worker(args: list, deadline: float) -> dict:
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError("out of time before the next pass")
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), *map(str, args)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[:3]} did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:3]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values: list, pct: float) -> tuple:
    """Nearest-rank percentile: (value, number of samples beyond it)."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    w = WORKLOADS[workload]
    setups = [_worker(["setup", workload], deadline) for _ in range(SETUP_TRIALS // 2)]
    r = _worker(["run", workload, seed, seconds], deadline)
    setups += [_worker(["setup", workload], deadline) for _ in range(SETUP_TRIALS - len(setups))]
    # CPU times scaled by the host's speed around each request (calibration.py)
    lat = sorted(scaled(r))
    setup_s = statistics.median(
        s["setup_s"] * calibration.REFERENCE_S / statistics.fmean(s["calibration"]) for s in setups
    )
    tail, beyond = percentile(lat, w.tail_pct)
    problems = [p for s in setups for p in s["problems"]] + r["problems"]
    attempted = SETUP_TRIALS + r["warm_up"] + len(lat)
    metrics = {
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail,
        "throughput_rps": len(lat) / sum(lat),
        "setup_s": setup_s,
        "max_rss_mb": r["max_rss_mb"],
    }
    notes = [
        f"unscaled medians: {statistics.median(r['latencies']):.6g} s CPU,"
        f" {statistics.median(r['walls']):.6g} s wall; {len(r['calibration'])} calibration samples",
        f"latency_tail_s is p{w.tail_pct:g} of {len(lat)} requests, {beyond} beyond it",
        f"repeat_share {r['repeat_share']:.3f}",
        f"mix {dict(sorted(Counter(r['kinds']).items()))}",
    ]
    return metrics, dict(END_TO_END), attempted, problems, notes


def scaled(result: dict) -> list:
    """A worker pass's request CPU times, scaled by the calibration around each."""
    factors = calibration.scales(result["calibration"], len(result["latencies"]))
    return [x * f for x, f in zip(result["latencies"], factors)]


def per_layer(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    # a fixed list, about a quarter of the end-to-end run at this commit, so
    # work counts repeat exactly; a much slower program stops early
    n_rounds = math.ceil(seconds / 4 / WORKLOADS[workload].round_s)
    args = ["run", workload, seed, LIMIT_FACTOR * seconds / 4, "--rounds", n_rounds]
    plain = _worker(args, deadline)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload}-seed{seed}.spans"
    traced = _worker([*args, "--spans", spans_path], deadline)
    probes = _worker(["probe"], deadline)

    metrics = layer_metrics(Spans.read(spans_path))
    traced_s = sum(traced["walls"])
    problems = plain["problems"] + traced["problems"]
    # self times telescope to the request spans, which sit inside each request's wall time
    covered = metrics["cli.self_s"] + sum(metrics[f"{m}.self_s"] for m in TRACED)
    if not math.isclose(covered, traced_s, rel_tol=0.01):
        raise BenchError(f"layer self times cover {covered:.4f}s of {traced_s:.4f}s request time")
    metrics["trace.request_s"] = traced_s
    # scaled CPU time of each pass, so the host's slow phases cancel
    plain_s, traced_cpu_s = (sum(scaled(p)) for p in (plain, traced))
    metrics["trace.overhead_frac"] = traced_cpu_s / plain_s - 1
    metrics["cli.output_bytes"] = traced["output_bytes"]
    metrics["cli.census_tuples_per_s"] = (
        plain["census_tuples"] / plain["census_s"] if plain["census_s"] else 0.0
    )
    metrics.update(probes)
    count = len(plain["latencies"])
    attempted = 2 * (count + plain["warm_up"])
    notes = [f"traced list: {count} requests; spans written to {spans_path.relative_to(ROOT)}"]
    return metrics, dict(PER_LAYER), attempted, problems, notes


def layer_metrics(spans: Spans) -> dict:
    """Per-layer self times and work counts from one traced pass."""
    totals = layer_totals(spans)
    empty = {"calls": 0, "self_s": 0.0, "work": 0}
    metrics = {}
    for name, _ in PER_LAYER:
        func, _, stat = name.rpartition(".")
        entry = totals.get(func, empty)
        if stat in ("calls", "self_s"):
            metrics[name] = entry[stat]
        elif stat in _WORK_SUFFIX:
            metrics[name] = entry["work"]
        elif stat == "tuples_per_s":
            metrics[name] = entry["work"] / entry["self_s"] if entry["self_s"] else 0.0
    for module in TRACED:
        metrics[f"{module}.self_s"] = sum(
            t["self_s"] for name, t in totals.items() if name.startswith(module + ".")
        )
    metrics["cli.self_s"] = totals.get("cli", empty)["self_s"]
    return metrics


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "altruns" / "cli.py").is_file():
        raise BenchError(f"no package source at {SRC / 'altruns'}")
    deadline = perf_counter() + RUN_LIMIT_S
    compileall.compile_dir(str(SRC / "altruns"), quiet=1)
    measure = per_layer if trace else end_to_end
    metrics, units, attempted, problems, notes = measure(workload, seed, seconds, deadline)

    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    for note in notes:
        print(f"  {note}")
    print(f"  failed {len(problems)} of {attempted} (failed_frac {len(problems) / attempted:.4f})")
    for problem in problems[:10]:
        print(f"  FAIL {problem}")
    for name, unit in units.items():
        print(f"  {name:46s} {metrics[name]:.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, one after another")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")
    names = list(WORKLOADS) if args.all else [args.workload]
    try:
        for name in names:
            result = bench(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
