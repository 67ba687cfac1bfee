from functools import lru_cache
from math import factorial

import pytest
from hypothesis import given, strategies as st

from altruns import run_counts
from altruns.exact_algebra import poly_eval
from altruns.run_counts import (
    BRUTE_FORCE_MAX_N,
    andre_column,
    andre_row,
    andre_triangle,
    brute_force_row,
    count_runs,
    log_concavity_check,
    run_polynomial,
)

ROW_8 = (2, 252, 2766, 9576, 14622, 10332, 2770)

permutations_st = st.integers(2, 8).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1)))
)


def test_count_runs_examples():
    assert count_runs((7, 2, 3, 8, 5, 1, 4, 6, 9)) == 4
    assert count_runs((1, 2)) == 1
    assert count_runs((2, 1)) == 1
    assert count_runs((1, 3, 2, 4)) == 3
    assert count_runs((2, 4, 1, 3)) == 3
    assert count_runs(tuple(range(1, 10))) == 1


def test_count_runs_rejects_bad_input():
    with pytest.raises(ValueError, match="runs undefined below n=2"):
        count_runs((1,))
    with pytest.raises(ValueError, match="runs undefined below n=2"):
        count_runs(())
    with pytest.raises(ValueError):
        count_runs((1, 1, 2))
    with pytest.raises(ValueError):
        count_runs((0, 1))


@given(permutations_st)
def test_runs_in_range(p):
    assert 1 <= count_runs(p) <= len(p) - 1


@given(permutations_st)
def test_runs_invariant_under_symmetries(p):
    runs = count_runs(p)
    assert count_runs(tuple(reversed(p))) == runs
    n = len(p)
    assert count_runs(tuple(n + 1 - v for v in p)) == runs


def test_brute_force_rows():
    assert brute_force_row(2) == (2,)
    assert brute_force_row(3) == (2, 4)
    assert brute_force_row(4) == (2, 12, 10)
    assert brute_force_row(5) == (2, 28, 58, 32)
    assert sum(brute_force_row(7)) == factorial(7)


def test_brute_force_cap():
    with pytest.raises(ValueError):
        brute_force_row(1)
    with pytest.raises(ValueError):
        brute_force_row(BRUTE_FORCE_MAX_N + 1)


def test_first_up_halves():
    for n in range(2, 8):
        up = brute_force_row(n, first_up=True)
        assert tuple(2 * v for v in up) == brute_force_row(n)


def test_andre_row_basics():
    assert andre_row(2) == (2,)
    assert andre_row(3, (2,)) == (2, 4)
    assert andre_row(4, (2, 4)) == (2, 12, 10)
    with pytest.raises(ValueError):
        andre_row(1)
    with pytest.raises(ValueError):
        andre_row(2, (2,))
    with pytest.raises(ValueError):
        andre_row(5, (2, 4))


def test_andre_matches_brute_force():
    for n in range(2, 9):
        assert andre_triangle(n).entries[-1] == brute_force_row(n)


def test_row_8():
    assert andre_triangle(8).entries[-1] == ROW_8


def test_row_10_prefix():
    row = andre_triangle(10).entries[-1]
    assert row[:3] == (2, 1020, 27472)


def test_triangle_invariants():
    t = andre_triangle(12)
    for n in range(2, 13):
        row = t.entries[n - 2]
        assert sum(row) == factorial(n)
        assert row[0] == 2
        if n >= 3:
            assert t.value(n, 2) == 2**n - 4


def test_triangle_value_bounds():
    t = andre_triangle(5)
    assert t.value(5, 4) == 32
    assert t.value(5, 5) == 0
    assert t.value(5, 0) == 0
    with pytest.raises(ValueError):
        t.value(6, 1)
    with pytest.raises(ValueError):
        andre_triangle(1)


def test_run_polynomial_matches_triangle():
    for n in range(2, 13):
        rp = run_polynomial(n)  # the constructor cross-checks against the rows
        assert rp.coeffs[0] == 0
        assert poly_eval(rp.coeffs, 1) == factorial(n)
    assert run_polynomial(2).coeffs == (0, 2)
    assert run_polynomial(3).coeffs == (0, 2, 4)
    with pytest.raises(ValueError):
        run_polynomial(1)


def test_log_concavity():
    for n in range(2, 13):
        assert log_concavity_check(andre_triangle(n).entries[-1])
    assert log_concavity_check((10, 1, 10)) is False
    assert log_concavity_check((5,))
    assert log_concavity_check(())


@lru_cache(maxsize=None)
def triangle_300():
    return andre_triangle(300)


@given(st.integers(2, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n + 2))))
def test_andre_column_matches_triangle(cell):
    n, s = cell
    column = andre_column(n, s)
    assert len(column) == n - 1
    assert column[-1] == triangle_300().value(n, s)
    if s >= n:
        assert not any(column)


def test_andre_column_whole_column():
    t = andre_triangle(60)
    for s in (1, 2, 3, 7, 58, 59):
        assert andre_column(60, s) == tuple(t.value(n, s) for n in range(2, 61))
    assert andre_column(5, 4) == (0, 0, 0, 32)
    assert andre_column(8, 4)[-1] == ROW_8[3]
    with pytest.raises(ValueError):
        andre_column(1, 1)
    with pytest.raises(ValueError):
        andre_column(5, 0)


def _weight_off_by_one(m, prev, width):
    # (m - t) -> (m - t - 1): that weight multiplies P(m-1, t-2), so columns 1
    # and 2 stay right and column 3 goes wrong from row 4 on
    q = (0, 0) + prev + (0,)
    return tuple(
        t * q[t + 1] + 2 * q[t] + (m - t - 1) * q[t - 1]
        for t in range(1, min(width, m - 1) + 1)
    )


@pytest.mark.parametrize("s", [1, 2, 3, 12, 59])
def test_andre_column_catches_a_corrupted_step(monkeypatch, s):
    real = run_counts._andre_step

    def last_entry_off(m, prev, width):
        row = real(m, prev, width)
        return row[:-1] + (row[-1] + 1,) if m == 40 else row

    def first_column_off(m, prev, width):
        row = real(m, prev, width)
        return (row[0] + 2,) + row[1:] if m == 40 else row

    corruptions = [last_entry_off, first_column_off]
    if s >= 3:
        corruptions.append(_weight_off_by_one)
    for bad in corruptions:
        monkeypatch.setattr(run_counts, "_andre_step", bad)
        with pytest.raises(ArithmeticError):
            andre_column(60, s)
    monkeypatch.setattr(run_counts, "_andre_step", real)
    assert andre_column(60, s)[-1] == andre_triangle(60).value(60, s)
