"""One measurement pass in a fresh interpreter; prints one JSON line.

    worker.py SRC setup WORKLOAD
    worker.py SRC run WORKLOAD SEED SECONDS [--rounds N] [--spans PATH]
    worker.py SRC probe

SRC is the checkout's source directory; altruns is imported from there and
nowhere else. Requests go through altruns.cli.main in this process, one at a
time (a closed loop with one client), with stdout and stderr captured. Each
request is timed in CPU and wall seconds, with calibration samples between
requests (calibration.py). Every response is checked against the reference
after its timing has stopped.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain, islice, takewhile
from time import perf_counter

import calibration
import tracing
from check import check
from reference import Reference
from workloads import WORKLOADS, repeat_share, rounds, warm_up


def _import_cli(src: str):
    sys.path.insert(0, src)
    import altruns.cli

    where = os.path.realpath(altruns.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"altruns was imported from {where}, not from {src}")
    return altruns.cli


def _call(main, req, spans=None):
    """(exit code, stdout, CPU seconds, wall seconds). An exception escaping
    main is exit -1."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        idx = spans.open(0) if spans is not None else None  # name 0: the request span
        start, start_cpu = perf_counter(), calibration.cpu_time()
        try:
            rc = main(list(req.argv))
        except Exception as e:  # the program crashed on this request
            print(f"{' '.join(req.argv)}: {e!r}", file=sys.__stderr__)
            rc = -1
        cpu, wall = calibration.cpu_time() - start_cpu, perf_counter() - start
        if idx is not None:
            spans.close(idx)
    return rc, out.getvalue(), cpu, wall


def setup(src: str, workload: str) -> dict:
    calibration.sample()  # the first call pays for warming the calibration code itself
    before = [calibration.sample() for _ in range(2)]
    start = calibration.cpu_time()
    cli = _import_cli(src)
    req = WORKLOADS[workload].setup
    rc, out, _, _ = _call(cli.main, req)
    seconds = calibration.cpu_time() - start
    after = [calibration.sample() for _ in range(2)]
    problem = check(req, rc, out, Reference(full_n=100, n_max=100))
    return {"setup_s": seconds, "problems": [problem] if problem else [], "calibration": before + after}


def run(src: str, workload: str, seed: int, seconds: float, n_rounds: int = None, spans_path: str = None) -> dict:
    """Answer whole rounds until `seconds` of request time have passed, or
    exactly `n_rounds` rounds (stopping early after `seconds`) when given."""
    cli = _import_cli(src)
    ref = Reference()
    problems = []
    warm_requests = warm_up(workload, seed)
    for req in warm_requests:
        rc, out, _, _ = _call(cli.main, req)
        problem = check(req, rc, out, ref)
        if problem:
            problems.append(problem)

    spans = replaced = None
    if spans_path:
        spans = tracing.Spans()
        replaced = tracing.install(spans)

    # `busy` is read each time a round starts
    requests = chain.from_iterable(
        takewhile(lambda _: busy < seconds, islice(rounds(workload, seed), n_rounds))
    )
    latencies, walls, kinds, keys, out_bytes = [], [], [], [], 0
    census_tuples, census_s = 0, 0.0
    busy = 0.0
    sampler = calibration.Sampler()
    for i, req in enumerate(requests):
        sampler.tick(i)
        if spans is not None:
            spans.request_id = i
        rc, out, elapsed, wall = _call(cli.main, req, spans)
        busy += wall
        problem = check(req, rc, out, ref)
        if problem:
            problems.append(problem)
        latencies.append(elapsed)
        walls.append(wall)
        kinds.append(req.kind if req.kind != "count" else f"count-{req.params['method']}")
        keys.append(req.key)
        out_bytes += len(out.encode())
        if req.kind == "census" or req.params.get("method") == "census":
            census_tuples += req.params["s"] ** req.params["n"]
            census_s += elapsed

    sampler.tick(len(latencies), force=True)
    if spans is not None:
        tracing.uninstall(replaced)
        spans.write(spans_path)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "latencies": latencies,
        "walls": walls,
        "kinds": kinds,
        "repeat_share": repeat_share(keys),
        "warm_up": len(warm_requests),
        "problems": problems,
        "output_bytes": out_bytes,
        "census_tuples": census_tuples,
        "census_s": census_s,
        "max_rss_mb": rss_kb / 1024,
        "calibration": sampler.samples,
    }


def probe(src: str) -> dict:
    """Time the layer functions directly, once each, as in the ROADMAP table."""
    _import_cli(src)
    from altruns import bijection, closed_form, genfun, run_counts

    out = {}

    def timed(name, fn, *args):
        start = perf_counter()
        value = fn(*args)
        out[name] = perf_counter() - start
        return value

    timed("probe.andre_triangle_1000_s", run_counts.andre_triangle, 1000)
    timed("probe.build_us_12_s", genfun.build_us, 12)
    us = timed("probe.build_us_20_s", genfun.build_us, 20)
    timed("probe.formula_from_pfd_20_s", closed_form.formula_from_pfd, 20, us[20])
    timed("probe.psi_from_recurrence_20_s", closed_form.psi_from_recurrence, 20, 19)
    timed("probe.image_census_8_5_s", bijection.image_census, 8, 5)
    timed("probe.image_census_10_4_s", bijection.image_census, 10, 4)
    return out


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("src")
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup").add_argument("workload", choices=WORKLOADS)
    sub.add_parser("probe")
    p = sub.add_parser("run")
    p.add_argument("workload", choices=WORKLOADS)
    p.add_argument("seed", type=int)
    p.add_argument("seconds", type=float)
    p.add_argument("--rounds", type=int)
    p.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = setup(args.src, args.workload)
    elif args.mode == "probe":
        result = probe(args.src)
    else:
        result = run(args.src, args.workload, args.seed, args.seconds, args.rounds, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
