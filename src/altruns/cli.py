"""Command line interface.

Subcommands: table, count, formula, gf, pfd, census, trace, verify. Formats:
text (default), json (top-level "schema": 1, all integers as decimal strings
so nothing overflows a consumer), csv without headers where rows are natural.
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
from .run_counts import _require
from .exact_algebra import (
    partial_fractions,
    poly_eval,
    poly_to_strings,
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


def _emit(args, text_lines, json_obj, csv_rows=None) -> None:
    if args.format == "json":
        print(json.dumps(json_obj, indent=2))
    elif args.format == "csv":
        if csv_rows is None:
            raise UsageError(f"{args.command} has no csv form")
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
    text = [
        f"n={n}: " + " ".join(str(v) for v in row)
        for n, row in enumerate(t.entries, start=t.n_min)
    ]
    obj = {
        "schema": 1,
        "command": "table",
        "n_min": str(t.n_min),
        "n_max": str(t.n_max),
        "rows": run_counts.triangle_json_rows(t),
    }
    _emit(args, text, obj, run_counts.triangle_csv_rows(t))
    return 0


def _count_value(n: int, s: int, method: str, budget: int) -> int:
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
        return int(value)
    if method == "closed-form":
        _level_arg(s)
        f = closed_form.formula_from_pfd(s)
        try:
            return closed_form.evaluate_closed_form(f, n)
        except ValueError as e:
            raise UsageError(str(e))
    if method == "census":
        try:
            successes = bijection.image_census(n, s, budget).successes
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
    value = _count_value(args.n, args.s, args.method, args.budget)
    obj = {
        "schema": 1,
        "command": "count",
        "n": str(args.n),
        "s": str(args.s),
        "method": args.method,
        "value": str(value),
    }
    _emit(args, [str(value)], obj, [(str(args.n), str(args.s), str(value))])
    return 0


def cmd_formula(args) -> int:
    s = _level_arg(args.s)
    f = closed_form.formula_from_pfd(s)
    display = closed_form.render_formula(f)
    obj = {
        "schema": 1,
        "command": "formula",
        "s": str(s),
        "validity_floor": str(f.validity_floor),
        "display": display,
        "terms": closed_form.formula_terms_json(f),
    }
    _emit(args, [display], obj)
    return 0


def cmd_gf(args) -> int:
    s = _level_arg(args.s)
    u = genfun.build_us(s)[s]
    display = genfun.render_us(u)
    obj = {
        "schema": 1,
        "command": "gf",
        "s": str(s),
        "display": display,
        "numerator": poly_to_strings(u.ratfun.numerator),
        "denominator": [[str(k), str(e)] for k, e in u.ratfun.denominator],
    }
    _emit(args, [f"u_{s} = {display}"], obj)
    return 0


def _pfd_term_text(k: int, m: int, c) -> str:
    mag = abs(c)
    head = f"({mag})" if mag.denominator != 1 else str(mag)
    tail = f"(1-{'' if k == 1 else k}x)" + (f"^{m}" if m > 1 else "")
    return f"{head}/{tail}"


def cmd_pfd(args) -> int:
    s = _level_arg(args.s)
    u = genfun.build_us(s)[s]
    pfe = partial_fractions(u.ratfun)
    pieces = [(c > 0, _pfd_term_text(k, m, c)) for k, m, c in pfe.pole_terms]
    for i, c in enumerate(pfe.poly_part):
        if not c:
            continue
        mag = abs(c)
        power = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        head = "" if mag == 1 and power else str(mag)
        pieces.append((c > 0, head + power))
    body = ""
    for idx, (positive, text) in enumerate(pieces):
        if idx == 0:
            body = ("" if positive else "-") + text
        else:
            body += (" + " if positive else " - ") + text
    obj = {
        "schema": 1,
        "command": "pfd",
        "s": str(s),
        "terms": [
            {"k": str(k), "m": str(m), "c": str(c)} for k, m, c in pfe.pole_terms
        ],
        "poly_part": poly_to_strings(pfe.poly_part),
    }
    _emit(args, [f"u_{s} = {body}"], obj)
    return 0


def cmd_census(args) -> int:
    if args.n < 2:
        raise UsageError("--n must be >= 2")
    if args.s < 1:
        raise UsageError("--s must be >= 1")
    try:
        result = bijection.image_census(args.n, args.s, args.budget)
    except ValueError as e:
        raise UsageError(str(e))
    bound = bijection.bonferroni_bound(args.n, args.s)
    text = (
        f"census n={args.n} s={args.s}: {result.successes} of {result.total} "
        f"block tuples have preimages (lower bound {bound})"
    )
    obj = {
        "schema": 1,
        "command": "census",
        "n": str(args.n),
        "s": str(args.s),
        "successes": str(result.successes),
        "total": str(result.total),
        "bonferroni_bound": str(bound),
    }
    row = (str(args.n), str(args.s), str(result.successes), str(result.total), str(bound))
    _emit(args, [text], obj, [row])
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
    obj = {
        "schema": 1,
        "command": "trace",
        "n": str(t.n),
        "blocks": [sorted(map(str, b)) for b in t.sets],
        "unions": [sorted(map(str, u)) for u in tr.unions],
        "deleted": [str(e) for e in tr.deleted],
        "choices": [str(c) for c in tr.choices],
        "candidate": None
        if tr.candidate is None
        else [sorted(map(str, b)) for b in tr.candidate.sets],
        "failure": tr.failure,
        "preimage_exists": tr.failure is None,
    }
    _emit(args, lines, obj)
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
        up = run_counts.brute_force_row_first_up(n)
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
    us = genfun.build_us(8)
    for s in range(1, 9):
        f = closed_form.formula_from_pfd(s, us[s])
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
    cells += [(8, 2), (8, 3), (10, 2), (10, 3)]
    for n, s in cells:
        bijection.image_census(n, s)  # identity and sandwich asserted inside
    return f"{len(cells)} cells"


def _check_failure_classes():
    for n, s in ((5, 3), (6, 3), (5, 4), (6, 4), (7, 3)):
        tally = bijection.failure_census(n, s)
        known = set(tally) <= set(bijection.FAILURE_CLASSES)
        _require(known, f"unknown failure class at n={n}, s={s}")
        successes = bijection.image_census(n, s).successes
        _require(successes + sum(tally.values()) == s**n, f"tally at n={n}, s={s} misses tuples")
    return "four-class taxonomy covers every failure"


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
    selected = [c for c in CHECKS if args.suite in ("all", c[0])]
    text = []
    rows = []
    entries = []
    failures = 0
    for suite, name, fn in selected:
        start = perf_counter()
        try:
            detail = fn()
            ok = True
        except Exception as e:  # a failed invariant, whatever raised it
            detail = repr(e)
            ok = False
            failures += 1
        seconds = perf_counter() - start
        status = "PASS" if ok else "FAIL"
        text.append(f"[{status}] {suite}: {name} ({seconds:.2f}s) {detail}")
        rows.append((suite, name, status.lower(), f"{seconds:.3f}"))
        entries.append(
            {
                "suite": suite,
                "name": name,
                "ok": ok,
                "seconds": f"{seconds:.3f}",
                "detail": detail,
            }
        )
    text.append(
        f"{len(selected) - failures}/{len(selected)} checks passed"
        if failures
        else f"all {len(selected)} checks passed"
    )
    obj = {
        "schema": 1,
        "command": "verify",
        "suite": args.suite,
        "checks": entries,
        "ok": failures == 0,
    }
    _emit(args, text, obj, rows)
    return 1 if failures else 0


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
    p.add_argument("--budget", type=int, default=bijection.ENUMERATION_BUDGET)
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
    p.add_argument("--budget", type=int, default=bijection.ENUMERATION_BUDGET)
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
