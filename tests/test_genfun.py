import pytest

from altruns import genfun
from altruns.exact_algebra import (
    degree,
    denominator_degree,
    factored_denominator,
    series_coefficients,
)
from altruns.genfun import (
    UsFunction,
    assembly_term_degrees,
    build_us,
    degree_audit,
    delta,
    epsilon,
    ratio_identities_check,
    render_us,
    signed_sum,
)
from altruns.run_counts import andre_triangle


def test_epsilon_pattern():
    assert [epsilon(i) for i in range(8)] == [1, 1, 2, 2, 3, 3, 4, 4]
    with pytest.raises(ValueError):
        epsilon(-1)


def test_delta_factored_forms():
    assert delta(1) == ((1, 1),)
    assert delta(2) == ((2, 1), (1, 1))
    assert delta(4) == ((4, 1), (3, 1), (2, 2), (1, 2))
    assert denominator_degree(delta(4)) == 6
    assert denominator_degree(delta(5)) == 9
    assert denominator_degree(delta(12)) == 42
    with pytest.raises(ValueError):
        delta(0)


def test_build_us_small_levels():
    us = build_us(4)
    assert us[0].ratfun.numerator == ()
    assert us[1].ratfun.numerator == (0, 0, 2)
    assert us[1].ratfun.denominator == ((1, 1),)
    assert us[2].ratfun.numerator == (0, 0, 0, 4)
    assert us[2].ratfun.denominator == ((2, 1), (1, 1))
    assert us[3].ratfun.numerator == (0, 0, 0, 0, 10, -12)
    assert us[3].ratfun.denominator == ((3, 1), (2, 1), (1, 2))
    assert us[4].ratfun.numerator == (0, 0, 0, 0, 0, 32, -116, 96)
    assert us[4].ratfun.denominator == ((4, 1), (3, 1), (2, 2), (1, 2))
    with pytest.raises(ValueError):
        build_us(0)


def test_series_match_triangle():
    # deg N_20 = 111 < 120, so given delta(s) the triangle pins every numerator
    us = build_us(20)
    t = andre_triangle(120)
    for s in range(1, 21):
        coeffs = series_coefficients(us[s].ratfun, 120)
        for n in range(121):
            expected = t.value(n, s) if n >= 2 else 0
            assert coeffs[n] == expected, (n, s)


def test_degree_audit_levels():
    for u in build_us(12)[1:]:
        degree_audit(u)  # raises on any mismatch
        num = u.ratfun.numerator
        assert degree(num) == denominator_degree(u.ratfun.denominator) + 1
        assert next(i for i, c in enumerate(num) if c) == u.s + 1
    assert degree(build_us(4)[4].ratfun.numerator) == 7


def test_degree_audit_rejects_wrong_shape():
    fake = UsFunction(3, build_us(4)[4].ratfun)
    with pytest.raises(ArithmeticError):
        degree_audit(fake)


def test_ratio_identities():
    for s in range(2, 13):
        ratio_identities_check(s)  # both ratios and their degrees, or raises
    with pytest.raises(ValueError):
        ratio_identities_check(1)


def test_ratio_identities_catch_a_degree_preserving_fault(monkeypatch):
    # reversed multiplicities keep every degree of delta(s) but move its
    # factors, so the exact ratios must break
    def reversed_delta(s):
        return factored_denominator({s - i: epsilon(s - 1 - i) for i in range(s)})

    monkeypatch.setattr(genfun, "delta", reversed_delta)
    for s in range(3, 9):
        with pytest.raises(ArithmeticError):
            ratio_identities_check(s)


def test_assembly_terms():
    us = build_us(10)
    assert assembly_term_degrees(us, 2) == (3, -1, -1, -1)
    for s in range(3, 11):
        degrees = assembly_term_degrees(us, s)
        expected = degree(us[s].ratfun.numerator)
        assert all(d == expected for d in degrees), (s, degrees)
    with pytest.raises(ValueError):
        assembly_term_degrees(us, 11)


def test_render_displays():
    us = build_us(4)
    assert render_us(us[1]) == "2x^2 / (1-x)"
    assert render_us(us[2]) == "4x^3 / ((1-2x)(1-x))"
    assert render_us(us[3]) == "2x^4(5-6x) / ((1-3x)(1-2x)(1-x)^2)"
    assert render_us(us[4]) == "4x^5(8-29x+24x^2) / ((1-4x)(1-3x)(1-2x)^2(1-x)^2)"


def test_signed_sum_leading_negative():
    pieces = [(True, "2n"), (False, "7"), (True, "n^2")]
    assert signed_sum(pieces) == "-2n + 7 - n^2"
    assert signed_sum(pieces, sep="") == "-2n+7-n^2"
    assert signed_sum([]) == ""


def test_numerators_are_integral():
    for u in build_us(20)[1:]:
        assert all(type(c) is int for c in u.ratfun.numerator)


@pytest.mark.parametrize(
    "change, failure",
    [
        ({2: 1}, "nonzero remainder"),  # (1-2x)^2 dropped to the first power
        ({4: 2}, "common factor"),  # an extra (1-4x)
        ({4: 2, 3: 2, 2: 1, 1: 1}, "nonzero remainder"),  # multiplicities reversed, same degree
    ],
)
def test_build_us_rejects_a_wrong_denominator(monkeypatch, change, failure):
    true_delta = genfun.delta

    def wrong_at_4(s):
        return factored_denominator({**dict(true_delta(s)), **change}) if s == 4 else true_delta(s)

    monkeypatch.setattr(genfun, "delta", wrong_at_4)
    with pytest.raises(ArithmeticError, match=failure):
        build_us(4)
    assert len(build_us(3)) == 4
