from fractions import Fraction

import pytest
from conftest import expansion_matches_series

from altruns.closed_form import (
    AsymptoticEstimate,
    asymptotic_report,
    evaluate_closed_form,
    formula_from_pfd,
    k_constant,
    psi_from_recurrence,
    render_formula,
)
from altruns.exact_algebra import partial_fractions, poly_eval
from altruns.genfun import build_us
from altruns.run_counts import andre_triangle


def test_k_constant():
    assert k_constant(1) == 2
    assert k_constant(2) == 1
    assert k_constant(4) == Fraction(1, 4)
    assert k_constant(10) == Fraction(1, 256)
    with pytest.raises(ValueError):
        k_constant(0)


def test_formula_level_4():
    f = formula_from_pfd(4)
    assert f.validity_floor == 2
    assert [p.coeffs_in_n for p in f.psi] == [
        (Fraction(1, 4),),
        (-1,),
        (3, Fraction(-1, 2)),
        (-7, 2),
    ]
    assert evaluate_closed_form(f, 5) == 32
    assert evaluate_closed_form(f, 7) == 1852
    assert evaluate_closed_form(f, 8) == 9576


def test_formula_small_levels():
    t = andre_triangle(12)
    us = build_us(5)
    for s in range(1, 6):
        f = formula_from_pfd(s, us[s])
        for n in range(s + 1, 13):
            assert evaluate_closed_form(f, n) == t.value(n, s)


def test_formula_level_2_shape():
    f = formula_from_pfd(2)
    for n in range(3, 10):
        assert evaluate_closed_form(f, n) == 2**n - 4


def test_formula_level_1_constant():
    f = formula_from_pfd(1)
    for n in range(2, 7):
        assert evaluate_closed_form(f, n) == 2


def test_high_column_evaluated_one_row_down():
    f = formula_from_pfd(7)
    assert evaluate_closed_form(f, 8) == 2770


def test_evaluate_refusals():
    f = formula_from_pfd(4)
    assert evaluate_closed_form(f, 4) == 0  # s >= n: outside the triangle
    with pytest.raises(ValueError):
        evaluate_closed_form(f, 1)  # below the validity floor


def test_render_displays():
    assert render_formula(formula_from_pfd(1)) == "P(n,1) = 2  [n >= 2]"
    assert render_formula(formula_from_pfd(2)) == "P(n,2) = 2^n - 4  [n >= 2]"
    assert (
        render_formula(formula_from_pfd(3))
        == "P(n,3) = (1/2)*3^n - 2^(n+1) + (11-2n)/2  [n >= 2]"
    )
    assert (
        render_formula(formula_from_pfd(4))
        == "P(n,4) = 4^(n-1) - 3^n + (6-n)*2^(n-1) + (2n-7)  [n >= 2]"
    )


def test_psi_routes_agree():
    for s in range(2, 9):
        assert tuple(psi_from_recurrence(s, s - 1)) == formula_from_pfd(s).psi


def test_expansion_and_psi_over_the_real_levels():
    # verify checks the psi routes only for s <= 8; the levels here reach
    # multi-step peeling at every pole and large common denominators
    us = build_us(20)
    for s in range(1, 21):
        assert expansion_matches_series(us[s].ratfun, partial_fractions(us[s].ratfun))
    for s in range(2, 17):
        f = formula_from_pfd(s, us[s])
        assert f.psi == tuple(psi_from_recurrence(s, s - 1))
        assert all(evaluate_closed_form(f, n) == 0 for n in range(2, s + 1))  # outside the triangle


def test_psi_partial_prefix():
    partial = psi_from_recurrence(6, 2)
    full = formula_from_pfd(6).psi
    assert tuple(partial) == full[:3]
    with pytest.raises(ValueError):
        psi_from_recurrence(4, 4)
    with pytest.raises(ValueError):
        psi_from_recurrence(4, -1)


def test_psi_degree_bound():
    for s in range(2, 9):
        for p in formula_from_pfd(s).psi:
            assert len(p.coeffs_in_n) <= p.i // 2 + 1


def test_explicit_psi_forms():
    for s in range(5, 10):
        f = formula_from_pfd(s)
        for n in range(2, 21):
            assert poly_eval(f.psi[1].coeffs_in_n, n) == -2 * k_constant(s - 1)
            assert poly_eval(f.psi[2].coeffs_in_n, n) == k_constant(s - 2) * (s + 8 - 2 * n) / 4
            assert poly_eval(f.psi[3].coeffs_in_n, n) == k_constant(s - 3) * (2 * n - s - 3) / 2
            assert poly_eval(f.psi[4].coeffs_in_n, n) == k_constant(s - 4) * (
                4 * n**2 - 4 * n * (s + 8) + s**2 + 15 * s + 32
            ) / 32


def test_asymptotic_report_level_2():
    reports = asymptotic_report(2, [4, 6, 10, 20])
    for r in reports:
        assert isinstance(r, AsymptoticEstimate)
        assert r.estimate == Fraction(2**r.n)
        assert r.relative_error == Fraction(4, 2**r.n)


def test_asymptotic_report_level_3():
    (r,) = asymptotic_report(3, [5])
    assert r.estimate == Fraction(3**5, 2)
    assert r.relative_error == Fraction(127, 243)


def test_asymptotic_report_level_1_exact():
    for r in asymptotic_report(1, [2, 3, 4]):
        assert r.relative_error == 0


def test_asymptotic_monotone():
    for s in (2, 3, 4):
        errors = [r.relative_error for r in asymptotic_report(s, range(2 * s, 31))]
        assert all(a >= b for a, b in zip(errors, errors[1:]))


def test_asymptotic_validation():
    with pytest.raises(ValueError):
        asymptotic_report(0, [5])
    with pytest.raises(ValueError):
        asymptotic_report(2, [1, 5])
    with pytest.raises(ValueError):
        asymptotic_report(2, [])
