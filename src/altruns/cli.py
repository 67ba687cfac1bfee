"""Command line interface.

Subcommands: table, count, formula, gf, pfd, census, trace, verify. Formats:
text (default), json (top-level "schema": 1, every integer and fraction as a
decimal string so no consumer rounds it), csv without headers where rows are
natural. Each command builds one record of plain values; _emit alone encodes it.
Exit codes: 0 success, 1 a verification suite failed, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from itertools import permutations, product
from math import factorial
from time import perf_counter

from . import bijection, closed_form, genfun, run_counts
from .exact_algebra import (
    _require,
    partial_fractions,
    poly_eval,
    series_coefficients,
    sturm_real_root_audit,
)

MAX_TABLE_N = 200
MAX_COUNT_N = 1000
MAX_LEVEL = 12

METHODS = ("brute", "recurrence", "genfun", "closed-form", "census")
SUITES = ("all", "triangle", "genfun", "closed-form", "bijection", "polynomial")


class UsageError(Exception):
    """Bad argument values; reported on stderr with exit code 2."""


def _json_ready(value):
    """The JSON policy: ints and Fractions become decimal strings, so no
    consumer rounds them; bools, None and strings pass through."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    return [_json_ready(v) for v in value]


def _emit(args, text_lines, record, csv_rows=None) -> None:
    """Print one result in the requested format, building only that one.

    text_lines and csv_rows may be lazy iterables; csv_rows is None only
    where the parser refuses csv, and the csv module writes numbers as str().
    """
    if args.format == "json":
        obj = {"schema": 1, "command": args.command, **_json_ready(record)}
        print(json.dumps(obj, indent=2))
    elif args.format == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(csv_rows)
    else:
        print("\n".join(text_lines))


def _level_arg(s: int) -> int:
    if not 1 <= s <= MAX_LEVEL:
        raise UsageError(f"--s must be between 1 and {MAX_LEVEL}")
    return s


def cmd_table(args) -> int:
    if not 2 <= args.n_max <= MAX_TABLE_N:
        raise UsageError(f"--n-max must be between 2 and {MAX_TABLE_N}")
    t = run_counts.andre_triangle(args.n_max)
    rows = tuple(enumerate(t.entries, start=t.n_min))
    text = (f"n={n}: " + " ".join(map(str, row)) for n, row in rows)
    csv_rows = ((n, s, v) for n, row in rows for s, v in enumerate(row, start=1))
    _emit(args, text, {"n_min": t.n_min, "n_max": t.n_max, "rows": t.entries}, csv_rows)
    return 0


def _count_value(n: int, s: int, method: str) -> int:
    if method == "brute":
        if n > run_counts.BRUTE_FORCE_MAX_N:
            raise UsageError(f"brute force supports n <= {run_counts.BRUTE_FORCE_MAX_N}")
        row = run_counts.brute_force_row(n)
        return row[s - 1] if s <= n - 1 else 0
    if method == "recurrence":
        return run_counts.andre_column(n, s)[-1]
    if method == "genfun":
        _level_arg(s)
        u = genfun.build_us(s)[s]
        value = series_coefficients(u.ratfun, n)[n]
        _require(value.denominator == 1, f"series coefficient {n} of u_{s} is not an integer")
        return value
    if method == "closed-form":
        _level_arg(s)
        f = closed_form.formula_from_pfd(s)
        try:
            return closed_form.evaluate_closed_form(f, n)
        except ValueError as e:
            raise UsageError(str(e))
    if method == "census":
        try:
            successes = bijection.image_census(n, s).successes
        except ValueError as e:
            raise UsageError(str(e))
        _require(successes * 4 % 2**s == 0, f"{successes} census successes, not 2^(s-2) * P")
        return successes * 4 // 2**s
    raise UsageError(f"unknown method {method!r}")


def cmd_count(args) -> int:
    if not 2 <= args.n <= MAX_COUNT_N:
        raise UsageError(f"--n must be between 2 and {MAX_COUNT_N}")
    if args.s < 1:
        raise UsageError("--s must be >= 1")
    value = _count_value(args.n, args.s, args.method)
    record = {"n": args.n, "s": args.s, "method": args.method, "value": value}
    _emit(args, [str(value)], record, [(args.n, args.s, value)])
    return 0


def cmd_formula(args) -> int:
    s = _level_arg(args.s)
    f = closed_form.formula_from_pfd(s)
    display = closed_form.render_formula(f)
    record = {
        "s": s,
        "validity_floor": f.validity_floor,
        "display": display,
        "terms": [{"base": s - p.i, "psi": p.coeffs_in_n} for p in f.psi],
    }
    _emit(args, [display], record)
    return 0


def cmd_gf(args) -> int:
    s = _level_arg(args.s)
    u = genfun.build_us(s)[s]
    display = genfun.render_us(u)
    record = {
        "s": s,
        "display": display,
        "numerator": u.ratfun.numerator,
        "denominator": u.ratfun.denominator,
    }
    _emit(args, [f"u_{s} = {display}"], record)
    return 0


def cmd_pfd(args) -> int:
    s = _level_arg(args.s)
    u = genfun.build_us(s)[s]
    pfe = partial_fractions(u.ratfun)
    pieces = [
        (c < 0, f"{genfun.coefficient_text(abs(c))}/{genfun.factor_text(k, m)}")
        for k, m, c in pfe.pole_terms
    ]
    pieces += [(c < 0, genfun.monomial_text(abs(c), i)) for i, c in enumerate(pfe.poly_part) if c]
    body = genfun.signed_sum(pieces)
    record = {
        "s": s,
        "terms": [{"k": k, "m": m, "c": c} for k, m, c in pfe.pole_terms],
        "poly_part": pfe.poly_part,
    }
    _emit(args, [f"u_{s} = {body}"], record)
    return 0


def cmd_census(args) -> int:
    if not 2 <= args.n <= MAX_COUNT_N:
        raise UsageError(f"--n must be between 2 and {MAX_COUNT_N}")
    if args.s < 1:
        raise UsageError("--s must be >= 1")
    try:
        if args.failures:  # the same single enumeration, all classes kept
            tally = bijection.census_tally(args.n, args.s)
            result = bijection.CensusResult(tally[None], args.s**args.n)
        else:
            result = bijection.image_census(args.n, args.s)
    except ValueError as e:
        raise UsageError(str(e))
    bound = bijection.bonferroni_bound(args.n, args.s)
    text = [
        f"census n={args.n} s={args.s}: {result.successes} of {result.total} "
        f"block tuples have preimages (lower bound {bound})"
    ]
    record = {
        "n": args.n,
        "s": args.s,
        "successes": result.successes,
        "total": result.total,
        "bonferroni_bound": bound,
    }
    row = tuple(record.values())
    if args.failures:
        failures = {c: tally[c] for c in bijection.FAILURE_CLASSES}
        text.append("failures: " + ", ".join(f"{c} {k}" for c, k in failures.items()))
        record["failures"] = failures
        row += tuple(failures.values())
    _emit(args, text, record, [row])
    return 0


def _parse_blocks(value: str):
    sets = []
    for segment in value.split(";"):
        segment = segment.strip()
        if not segment:
            sets.append(frozenset())
            continue
        try:
            sets.append(frozenset(int(x) for x in segment.split(",") if x.strip()))
        except ValueError:
            raise UsageError("blocks must be semicolon-separated lists of integers")
    elements = [v for b in sets for v in b]
    if not elements:
        raise UsageError("blocks must contain at least one element")
    n = max(elements)
    bad = bijection.ttuple_violation(n, sets)
    if bad is not None:
        raise UsageError(f"blocks must partition 1..n without repeats ({bad})")
    return bijection.TTuple(n, tuple(sets))


def _set_text(fs) -> str:
    return "{" + ",".join(str(v) for v in sorted(fs)) + "}"


def cmd_trace(args) -> int:
    t = _parse_blocks(args.blocks)
    tr = bijection.reconstruct_trace(t)
    lines = ["blocks: " + " ".join(_set_text(b) for b in t.sets)]
    lines.append("step 1 adjacent unions: " + (" ".join(_set_text(u) for u in tr.unions) or "(none)"))
    if tr.failure == bijection.EMPTY_UNION:
        lines.append("step 2 recovered endpoints: (stopped: empty adjacent union)")
    else:
        lines.append("step 2 recovered endpoints: " + (" ".join(str(e) for e in tr.deleted) or "(none)"))
        lines.append("step 3 choice sequence: " + (" ".join(str(c) for c in tr.choices) or "(none)"))
        lines.append(
            "step 4 candidate: "
            + " ".join(_set_text(b) for b in tr.candidate.sets)
            + (" -> valid" if tr.failure is None else f" -> {tr.failure}")
        )
    if tr.failure is None:
        lines.append("outcome: preimage found")
    else:
        lines.append(f"outcome: no preimage ({tr.failure})")
    record = {
        "n": t.n,
        "blocks": [sorted(b) for b in t.sets],
        "unions": [sorted(u) for u in tr.unions],
        "deleted": tr.deleted,
        "choices": tr.choices,
        "candidate": None if tr.candidate is None else [sorted(b) for b in tr.candidate.sets],
        "failure": tr.failure,
        "preimage_exists": tr.failure is None,
    }
    _emit(args, lines, record)
    return 0


def _check_triangle_brute():
    for n in range(2, 10):
        _require(
            run_counts.brute_force_row(n) == run_counts.andre_triangle(n).entries[-1],
            f"brute force row {n} disagrees with the recurrence",
        )
    return "n <= 9"


def _check_triangle_sums():
    t = run_counts.andre_triangle(30)
    for n, row in enumerate(t.entries, start=2):
        _require(sum(row) == factorial(n) and row[0] == 2, f"row {n}: sum or first column")
        if n >= 3:
            _require(t.value(n, 2) == 2**n - 4, f"P({n},2) != 2**{n} - 4")
    return "rows 2..30"


def _check_first_up():
    for n in range(2, 8):
        full = run_counts.brute_force_row(n)
        up = run_counts.brute_force_row(n, first_up=True)
        _require(tuple(2 * v for v in up) == full, f"first-run-up row {n} is not half the row")
    return "n <= 7"


def _check_series():
    us = genfun.build_us(8)
    t = run_counts.andre_triangle(25)
    for s in range(1, 9):
        coeffs = series_coefficients(us[s].ratfun, 25)
        for n in range(26):
            expect = t.value(n, s) if n >= 2 else 0
            _require(coeffs[n] == expect, f"coefficient {n} of u_{s} != P({n},{s})")
    return "s <= 8, n <= 25"


def _check_degrees():
    for u in genfun.build_us(MAX_LEVEL)[1:]:
        genfun.degree_audit(u)
    return f"s <= {MAX_LEVEL}"


def _check_ratios():
    for s in range(2, MAX_LEVEL + 1):
        genfun.ratio_identities_check(s)
    return f"2 <= s <= {MAX_LEVEL}"


def _check_assembly():
    us = genfun.build_us(10)
    for s in range(2, 11):
        degrees = genfun.assembly_term_degrees(us, s)
        if s >= 3:
            equal = len({d for d in degrees if d >= 0}) == 1
            _require(equal, f"assembly terms of u_{s} differ in degree")
    return "terms sum exactly, equal degrees for s >= 3"


def _check_psi_routes():
    for s in range(2, 9):
        via_pfd = closed_form.formula_from_pfd(s).psi
        via_rec = tuple(closed_form.psi_from_recurrence(s, s - 1))
        _require(via_pfd == via_rec, f"psi routes disagree at s={s}")
    return "s <= 8"


def _check_formula_values():
    t = run_counts.andre_triangle(20)
    for s in range(1, 9):
        f = closed_form.formula_from_pfd(s)
        for n in range(s + 1, 21):
            _require(
                closed_form.evaluate_closed_form(f, n) == t.value(n, s),
                f"closed formula for s={s} is wrong at n={n}",
            )
    return "s <= 8, n <= 20"


def _check_asymptotics():
    for s in (2, 3, 4):
        reports = closed_form.asymptotic_report(s, range(2 * s, 41))
        errors = [r.relative_error for r in reports]
        _require(
            all(a >= b for a, b in zip(errors, errors[1:])),
            f"relative error for s={s} is not monotone",
        )
        if s == 2:
            _require(
                all(r.relative_error == Fraction(4, 2**r.n) for r in reports),
                "relative error for s=2 is not 4/2^n",
            )
    return "s in {2,3,4}, n <= 40"


def _check_roundtrip():
    checked = 0
    for n in range(2, 8):
        for p in permutations(range(1, n + 1)):
            if p[0] > p[1]:
                continue
            st = bijection.permutation_to_settuple(p)
            _require(bijection.settuple_to_permutation(st) == p, f"{p} does not round-trip")
            s = len(st.sets)
            for h in product(*[(i + 1, i + 2) for i in range(s - 1)]):
                image = bijection.phi(h, st)
                back = bijection.reconstruct(image)
                _require(back == (h, st), f"{p} with h={h} does not round-trip")
                checked += 1
    return f"n <= 7, every choice sequence ({checked} round trips)"


def _check_census():
    cells = [(n, s) for n in range(2, 8) for s in range(1, 6)]
    cells += [(8, 2), (8, 3), (10, 2), (10, 3), (12, 3), (24, 2)]
    for n, s in cells:
        bijection.image_census(n, s)  # identity and sandwich checked inside
    # the census states the classes in a local form of its own; hold it
    # against reconstruction's classifier, one tuple at a time
    for n, s in ((6, 3), (5, 4)):
        by_tuple = dict.fromkeys((None,) + bijection.FAILURE_CLASSES, 0)
        for assign in product(range(s), repeat=n):
            masks = [0] * s
            for v, b in enumerate(assign):
                masks[b] |= 1 << v
            by_tuple[bijection._mask_classify(masks, s)] += 1
        agree = by_tuple == bijection.census_tally(n, s)
        _require(agree, f"census and reconstruction differ at n={n}, s={s}")
    return f"{len(cells)} cells, two of them tuple by tuple"


def _check_failure_classes():
    for n, s in ((5, 3), (6, 3), (5, 4), (6, 4), (7, 3)):
        tally = bijection.census_tally(n, s)  # successes under None
        known = set(tally) - {None} <= set(bijection.FAILURE_CLASSES)
        _require(known, f"unknown failure class at n={n}, s={s}")
        _require(sum(tally.values()) == s**n, f"tally at n={n}, s={s} misses tuples")
    return f"{len(bijection.FAILURE_CLASSES)} reachable classes cover every failure"


def _check_polynomials():
    for n in range(2, 13):
        rp = run_counts.run_polynomial(n)  # cross-checked internally
        _require(poly_eval(rp.coeffs, 1) == factorial(n), f"row polynomial {n} at 1 != {n}!")
        _require(run_counts.log_concavity_check(rp.coeffs[1:]), f"row {n} is not log-concave")
    return "n <= 12"


def _check_roots():
    for n in range(2, 11):
        count, nonpositive = sturm_real_root_audit(run_counts.run_polynomial(n).coeffs)
        _require(nonpositive and count >= 1, f"row polynomial {n} has a positive real root")
    return "n <= 10"


CHECKS = (
    ("triangle", "brute force matches the recurrence", _check_triangle_brute),
    ("triangle", "row sums, first and second columns", _check_triangle_sums),
    ("triangle", "first-run-up counts halve the rows", _check_first_up),
    ("genfun", "series coefficients match the triangle", _check_series),
    ("genfun", "degree audits pass", _check_degrees),
    ("genfun", "denominator ratio identities", _check_ratios),
    ("genfun", "assembly terms sum to the numerator", _check_assembly),
    ("closed-form", "both psi routes agree", _check_psi_routes),
    ("closed-form", "formula values match the recurrence", _check_formula_values),
    ("closed-form", "relative error is monotone", _check_asymptotics),
    ("bijection", "round trips through the injection", _check_roundtrip),
    ("bijection", "census identity and sandwich", _check_census),
    ("bijection", "failure classes cover all failures", _check_failure_classes),
    ("polynomial", "row polynomials and log-concavity", _check_polynomials),
    ("polynomial", "real roots are all nonpositive", _check_roots),
)


def cmd_verify(args) -> int:
    entries = []
    for suite, name, fn in CHECKS:
        if args.suite not in ("all", suite):
            continue
        start = perf_counter()
        try:
            detail = fn()
            ok = True
        except Exception as e:  # a failed invariant, whatever raised it
            detail = repr(e)
            ok = False
        seconds = f"{perf_counter() - start:.3f}"
        entries.append({"suite": suite, "name": name, "ok": ok, "seconds": seconds, "detail": detail})
    passed = sum(e["ok"] for e in entries)
    ok = passed == len(entries)
    # text shows the three-decimal seconds of json and csv to two decimals
    text = [
        f"[{'PASS' if e['ok'] else 'FAIL'}] {e['suite']}: {e['name']} "
        f"({float(e['seconds']):.2f}s) {e['detail']}"
        for e in entries
    ]
    text.append(f"all {passed} checks passed" if ok else f"{passed}/{len(entries)} checks passed")
    rows = [(e["suite"], e["name"], "pass" if e["ok"] else "fail", e["seconds"]) for e in entries]
    _emit(args, text, {"suite": args.suite, "checks": entries, "ok": ok}, rows)
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altruns",
        description="Exact counts of permutations by number of alternating runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def formats(p, *, csv_ok=True):
        choices = ("text", "json", "csv") if csv_ok else ("text", "json")
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("table", help="triangle rows 2..n_max")
    p.add_argument("--n-max", type=int, required=True)
    formats(p)
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("count", help="one value P(n, s) by any method")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--method", choices=METHODS, default="recurrence")
    formats(p)
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("formula", help="closed formula for column s")
    p.add_argument("--s", type=int, required=True)
    formats(p, csv_ok=False)
    p.set_defaults(handler=cmd_formula)

    p = sub.add_parser("gf", help="generating function for column s")
    p.add_argument("--s", type=int, required=True)
    formats(p, csv_ok=False)
    p.set_defaults(handler=cmd_gf)

    p = sub.add_parser("pfd", help="partial fraction expansion for column s")
    p.add_argument("--s", type=int, required=True)
    formats(p, csv_ok=False)
    p.set_defaults(handler=cmd_pfd)

    p = sub.add_parser("census", help="count block tuples with preimages")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument(
        "--failures", action="store_true", help="also count the tuples without a preimage by class"
    )
    formats(p)
    p.set_defaults(handler=cmd_census)

    p = sub.add_parser("trace", help="reconstruction steps for one block tuple")
    p.add_argument("--blocks", required=True, help='e.g. "1,3;;2" (empty block allowed)')
    formats(p, csv_ok=False)
    p.set_defaults(handler=cmd_trace)

    p = sub.add_parser("verify", help="run the named verification suite")
    p.add_argument("--suite", choices=SUITES, default="all")
    formats(p)
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.handler(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
