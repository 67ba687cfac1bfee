"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Every numbered criterion below is checked at its stated tolerance (exact
unless a time limit is part of the criterion). A summary table is printed
at the end of the pytest run by conftest.py.
"""
import functools
from fractions import Fraction
from itertools import permutations, product
from time import perf_counter

from conftest import record_criterion

from altruns import bijection, closed_form, genfun, run_counts
from altruns.exact_algebra import (
    degree,
    denominator_degree,
    partial_fractions,
    poly_eval,
    series_coefficients,
    sturm_real_root_audit,
)

TRIANGLE = run_counts.andre_triangle(25)

ROW_8 = (2, 252, 2766, 9576, 14622, 10332, 2770)
SMALL_ROWS = ((2,), (2, 4), (2, 12, 10), (2, 28, 58, 32))


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def test():
            try:
                passed, detail = fn()
            except Exception as e:  # an escaped error still gets its line
                passed, detail = False, repr(e)
            record_criterion(number, description, passed, detail)

        test.__name__ = f"test_criterion_{number:02d}"
        return test

    return wrap


def _best_seconds(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


@criterion(1, "rows 2..5 exact, under 1 ms")
def test_criterion_01():
    ok = run_counts.andre_triangle(5).entries == SMALL_ROWS
    seconds = _best_seconds(lambda: run_counts.andre_triangle(5))
    return ok and seconds < 0.001, f"best of 5 runs {seconds * 1000:.3f} ms"


@criterion(2, "row 8 exact via the recurrence, under 1 ms")
def test_criterion_02():
    ok = run_counts.andre_triangle(8).entries[-1] == ROW_8
    seconds = _best_seconds(lambda: run_counts.andre_triangle(8))
    return ok and seconds < 0.001, f"best of 5 runs {seconds * 1000:.3f} ms"


@criterion(3, "four methods agree (n <= 9 all s; n <= 25 s <= 8)")
def test_criterion_03():
    start = perf_counter()
    cells = 0
    for n in range(2, 10):
        if run_counts.brute_force_row(n) != TRIANGLE.entries[n - 2]:
            return False, f"brute force disagrees at n={n}"
        cells += n - 1
    us = genfun.build_us(8)
    for s in range(1, 9):
        coeffs = series_coefficients(us[s].ratfun, 25)
        formula = closed_form.formula_from_pfd(s, us[s])
        for n in range(2, 26):
            expect = TRIANGLE.value(n, s)
            if coeffs[n] != expect:
                return False, f"series disagrees at n={n} s={s}"
            if n > s:
                if closed_form.evaluate_closed_form(formula, n) != expect:
                    return False, f"closed form disagrees at n={n} s={s}"
                cells += 1
    seconds = perf_counter() - start
    return seconds < 30, f"{cells} cells in {seconds:.2f}s"


@criterion(4, "u_2, u_3, u_4 match their displayed forms")
def test_criterion_04():
    want = {
        2: ("4x^3 / ((1-2x)(1-x))", (0, 0, 0, 4), ((2, 1), (1, 1))),
        3: (
            "2x^4(5-6x) / ((1-3x)(1-2x)(1-x)^2)",
            (0, 0, 0, 0, 10, -12),
            ((3, 1), (2, 1), (1, 2)),
        ),
        4: (
            "4x^5(8-29x+24x^2) / ((1-4x)(1-3x)(1-2x)^2(1-x)^2)",
            (0, 0, 0, 0, 0, 32, -116, 96),
            ((4, 1), (3, 1), (2, 2), (1, 2)),
        ),
    }
    us = genfun.build_us(4)
    for s, (text, num, den) in want.items():
        u = us[s]
        if genfun.render_us(u) != text:
            return False, f"u_{s} renders as {genfun.render_us(u)!r}"
        if u.ratfun.numerator != num or u.ratfun.denominator != den:
            return False, f"u_{s} structure differs"
    return True, "renders and factored structure both exact"


@criterion(5, "numerator and denominator degrees for s <= 12")
def test_criterion_05():
    start = perf_counter()
    try:
        us = genfun.build_us(12)
    except ArithmeticError as e:
        return False, f"normalization sentinel fired: {e}"
    for s in range(1, 13):
        den_degree = -(-s * (s + 2) // 4)
        if degree(us[s].ratfun.numerator) != 1 + den_degree:
            return False, f"numerator degree wrong at s={s}"
        if denominator_degree(us[s].ratfun.denominator) != den_degree:
            return False, f"denominator degree wrong at s={s}"
        genfun.degree_audit(us[s])
    seconds = perf_counter() - start
    return seconds < 10, f"sentinel silent, audits exact, {seconds:.2f}s"


@criterion(6, "u_4 partial fraction constants")
def test_criterion_06():
    pfe = partial_fractions(genfun.build_us(4)[4].ratfun)
    want_poles = (
        (4, 1, Fraction(1, 4)),
        (3, 1, Fraction(-1)),
        (2, 2, Fraction(-1, 2)),
        (2, 1, Fraction(7, 2)),
        (1, 2, Fraction(2)),
        (1, 1, Fraction(-9)),
    )
    ok = pfe.pole_terms == want_poles and pfe.poly_part == (Fraction(19, 4), Fraction(2))
    return ok, "six pole constants plus 19/4 + 2x"


@criterion(7, "psi routes agree; explicit psi_1..psi_4 forms hold")
def test_criterion_07():
    us = genfun.build_us(12)
    for s in range(2, 11):
        via_pfd = closed_form.formula_from_pfd(s, us[s]).psi
        if via_pfd != tuple(closed_form.psi_from_recurrence(s, s - 1)):
            return False, f"routes differ at s={s}"
    K = closed_form.k_constant
    for s in range(5, 13):
        psi = closed_form.formula_from_pfd(s, us[s]).psi
        for n in range(2, 31):
            values = [poly_eval(p.coeffs_in_n, n) for p in psi[1:5]]
            want = [
                -2 * K(s - 1),
                K(s - 2) * Fraction(s + 8 - 2 * n, 4),
                K(s - 3) * Fraction(2 * n - s - 3, 2),
                K(s - 4)
                * Fraction(4 * n * n - 4 * n * (s + 8) + s * s + 15 * s + 32, 32),
            ]
            if values != want:
                return False, f"explicit form fails at s={s} n={n}"
    return True, "routes equal for s <= 10; explicit forms for s <= 12, n <= 30"


@criterion(8, "census identity and sandwich (n <= 8 and n = 10)")
def test_criterion_08():
    start = perf_counter()
    cells = [(n, s) for n in range(2, 9) for s in range(1, 6)]
    cells += [(10, 2), (10, 3)]
    for n, s in cells:
        result = bijection.image_census(n, s)
        p = TRIANGLE.value(n, s)
        if result.successes * 2 != p * 2 ** (s - 1):
            return False, f"identity fails at n={n} s={s}"
        if not bijection.bonferroni_bound(n, s) <= result.successes <= result.total:
            return False, f"sandwich fails at n={n} s={s}"
    seconds = perf_counter() - start
    return seconds < 60, f"{len(cells)} cells in {seconds:.2f}s"


def _blocks_text(n, masks):
    return " ".join(
        "{" + ",".join(str(v + 1) for v in range(n) if m >> v & 1) + "}"
        for m in masks
    )


def _four_class(masks, s):
    """Number (1-4) of the first taxonomy condition a block tuple fails, or
    None when it has a preimage.

    The conditions, in order: (1) an adjacent union is empty. Otherwise
    each junction's recovered element (the maximum of the adjacent union at
    odd junctions, the minimum at even ones) goes back into the neighbour
    that lacks it, and the candidate fails when (2) two blocks two apart
    overlap, (3) a block has fewer than 2 elements, or (4) a recovered
    element is not the maximum (odd junctions) or the minimum (even
    junctions) of both neighbouring blocks.

    The three classes once stated for this census (an adjacent union of
    size < 3, an overlap two apart, a block of size < 2) are wrong both
    ways. {1,2,3},{},{4,5,6} has no preimage, yet its unions have 3
    elements and its candidate {1,2,3},{3,4},{4,5,6} fails only condition
    4. {1,3},{2},{4} is the image of 1 3 2 4 under h = (2, 3), yet its
    union {2,4} has 2 elements.
    """
    unions = [masks[i] | masks[i + 1] for i in range(s - 1)]
    if not all(unions):
        return 1
    cand = list(masks)
    recovered = []
    for i, u in enumerate(unions):
        bit = 1 << (u.bit_length() - 1) if i % 2 == 0 else u & -u
        cand[i + 1 if masks[i] & bit else i] |= bit
        recovered.append(bit)
    if any(cand[i] & cand[i + 2] for i in range(s - 2)):
        return 2
    if any(c.bit_count() < 2 for c in cand):
        return 3
    for i, bit in enumerate(recovered):
        for c in (cand[i], cand[i + 1]):
            if bit != (1 << (c.bit_length() - 1) if i % 2 == 0 else c & -c):
                return 4
    return None


def _block_tuples(n, s):
    """All s**n ways to drop 1..n into s ordered blocks, as bitmask lists;
    kept apart from the census's own enumerator so the check shares none of
    its code but the classifier under test."""
    for assign in product(range(s), repeat=n):
        masks = [0] * s
        for v, b in enumerate(assign):
            masks[b] |= 1 << v
        yield masks


@criterion(9, "roundtrip n <= 8, s <= 5; four-class failure taxonomy")
def test_criterion_09():
    start = perf_counter()
    trips = 0
    for n in range(2, 9):
        for p in permutations(range(1, n + 1)):
            if p[0] > p[1]:
                continue
            st = bijection.permutation_to_settuple(p)
            s = len(st.sets)
            if s > 5:
                continue
            for h in product(*[(i + 1, i + 2) for i in range(s - 1)]):
                if bijection.reconstruct(bijection.phi(h, st)) != (h, st):
                    return False, f"roundtrip fails for p={p} h={h}"
                trips += 1
    tuples = missed = wrong = 0
    first_missed = first_wrong = None
    for n in range(2, 9):
        for s in range(1, 6):
            unflagged = 0
            for masks in _block_tuples(n, s):
                tuples += 1
                cls = _four_class(masks, s)
                if (cls is None) != (bijection._mask_classify(masks, s) is None):
                    verdict = f"flags (condition {cls})" if cls else "passes"
                    return False, (
                        f"taxonomy {verdict} {_blocks_text(n, masks)} at "
                        f"n={n} s={s}, the census classifier does not"
                    )
                tiny_union = any(
                    (masks[i] | masks[i + 1]).bit_count() < 3 for i in range(s - 1)
                )
                if cls is None:
                    unflagged += 1
                    if tiny_union:
                        wrong += 1
                        first_wrong = first_wrong or _blocks_text(n, masks)
                elif not (tiny_union or cls in (2, 3)):  # 1 has a tiny union
                    missed += 1
                    first_missed = first_missed or _blocks_text(n, masks)
            want = TRIANGLE.value(n, s) // 2 * 2 ** (s - 1)
            if unflagged != want:
                return False, (
                    f"{unflagged} tuples pass the taxonomy at n={n} s={s}, "
                    f"want P(n,s)/2 * 2^(s-1) = {want}"
                )
    seconds = perf_counter() - start
    detail = (
        f"{trips} round trips ok; four-class taxonomy agrees with the census "
        f"on all {tuples} tuples in {seconds:.1f}s; the three stated classes "
        f"miss {missed} non-image tuples (first {first_missed}) and would "
        f"flag {wrong} image tuples by union size < 3 (first {first_wrong})"
    )
    return seconds < 60, detail


@criterion(10, "relative error monotone and < 1/1000 at n = 60")
def test_criterion_10():
    for s in (2, 3, 4):
        reports = closed_form.asymptotic_report(s, range(2 * s, 61))
        errors = [r.relative_error for r in reports]
        if not all(a >= b for a, b in zip(errors, errors[1:])):
            return False, f"not monotone at s={s}"
        if not errors[-1] < Fraction(1, 1000):
            return False, f"error {float(errors[-1]):.2e} at s={s} n=60"
        if s == 2 and any(
            r.relative_error != Fraction(4, 2**r.n) for r in reports
        ):
            return False, "s=2 error is not exactly 4/2^n"
    return True, "s in {2,3,4}, 2s <= n <= 60, s=2 exact"


@criterion(11, "log-concavity, row polynomials, nonpositive real roots")
def test_criterion_11():
    start = perf_counter()
    for n in range(2, 13):
        row = TRIANGLE.entries[n - 2]
        if not run_counts.log_concavity_check(row):
            return False, f"log-concavity fails at n={n}"
        if run_counts.run_polynomial(n).coeffs != (0,) + row:
            return False, f"row polynomial differs at n={n}"
    for n in range(2, 11):
        count, nonpositive = sturm_real_root_audit(run_counts.run_polynomial(n).coeffs)
        if not (nonpositive and count >= 1):
            return False, f"root audit fails at n={n}"
    seconds = perf_counter() - start
    return seconds < 10, f"rows to n=12, roots to n=10, {seconds:.2f}s"
