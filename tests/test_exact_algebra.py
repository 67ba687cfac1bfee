from fractions import Fraction

import pytest
from conftest import expansion_matches_series
from hypothesis import assume, given, strategies as st

from altruns.exact_algebra import (
    ONE,
    ZERO,
    PartialFractionExpansion,
    RationalFunction,
    _deflate,
    degree,
    denominator_degree,
    denominator_expand,
    factored_denominator,
    partial_fractions,
    poly,
    poly_add,
    poly_compose,
    poly_derivative,
    poly_divrem,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_scale,
    poly_sub,
    series_coefficients,
    sturm_real_root_audit,
)

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys_st = st.lists(fractions_st, max_size=6).map(poly)
int_polys_st = st.lists(st.integers(-6, 6), max_size=6).map(poly)
any_polys_st = st.one_of(polys_st, int_polys_st)


def as_fractions(p):
    return tuple(Fraction(c) for c in p)


def exact(*polys):
    """Every coefficient is an int or a Fraction; a float would be rounded."""
    return all(type(c) in (int, Fraction) for p in polys for c in p)


def test_poly_normalization():
    assert poly((0, 1, 0)) == (0, 1)
    assert poly(()) == ZERO
    assert poly((Fraction(1, 2),)) == (Fraction(1, 2),)
    assert degree(ZERO) == -1
    assert degree((1, 2, 3)) == 2


def test_floats_are_refused():
    # 0.1 would otherwise become 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="float"):
        poly((0.5,))
    with pytest.raises(TypeError, match="float"):
        poly_eval((1, 1), 0.5)
    assert poly_eval((1, 1), Fraction(1, 2)) == Fraction(3, 2)


def test_poly_basic_ops():
    a = poly((1, 2))
    b = poly((3, 0, 1))
    assert poly_add(a, b) == (4, 2, 1)
    assert poly_sub(b, a) == (2, -2, 1)
    assert poly_mul(a, b) == (3, 6, 1, 2)
    assert poly_mul(a, ZERO) == ZERO
    assert poly_derivative(b) == (0, 2)
    assert poly_derivative(poly((5,))) == ZERO
    assert poly_scale(a, Fraction(1, 2)) == (Fraction(1, 2), 1)
    assert poly_eval(b, 2) == 7
    assert poly_compose(poly((0, 1, 1)), poly((-1, 1))) == (0, -1, 1)


def test_poly_divrem():
    q, r = poly_divrem(poly((0, 0, 0, 4)), poly((1, -3, 2)))
    assert q == (3, 2) and r == (-3, 7)
    q, r = poly_divrem(poly((1, 2)), poly((1, 1, 1)))
    assert q == ZERO and r == (1, 2)
    with pytest.raises(ZeroDivisionError):
        poly_divrem(poly((1,)), ZERO)


@given(any_polys_st, any_polys_st)
def test_divrem_identity(a, b):
    if not b:
        return
    q, r = poly_divrem(a, b)
    assert poly_add(poly_mul(q, b), r) == a
    assert degree(r) < degree(b)
    assert exact(q, r)
    assert (q, r) == poly_divrem(as_fractions(a), as_fractions(b))


@given(any_polys_st, st.integers(1, 6))
def test_deflate_is_exact_division(p, k):
    factor = poly((1, -k))
    for num in (p, poly_mul(p, factor)):
        q = _deflate(num, k)
        quotient, rem = poly_divrem(num, factor)
        if rem:
            assert q is None
        else:
            assert q == quotient and poly_mul(q, factor) == num
            assert exact(q) and type(q) is tuple
            if all(type(c) is int for c in num):
                assert all(type(c) is int for c in q)
    assert _deflate(ZERO, k) == ZERO


def test_poly_gcd():
    a = poly_mul(poly((1, 1)), poly((2, 1)))
    b = poly_mul(poly((1, 1)), poly((3, 1)))
    assert poly_gcd(a, b) == (1, 1)
    assert poly_gcd(a, ZERO) == poly_scale(a, Fraction(1, a[-1]))
    assert poly_gcd(ZERO, ZERO) == ZERO
    assert poly_gcd(poly((1, 3)), ZERO) == (Fraction(1, 3), 1)


@given(any_polys_st, any_polys_st)
def test_gcd_is_monic_common_divisor(a, b):
    g = poly_gcd(a, b)
    assert exact(g)
    assert g == poly_gcd(as_fractions(a), as_fractions(b))
    if a or b:
        assert g[-1] == 1
        assert not poly_divrem(a, g)[1] and not poly_divrem(b, g)[1]


def test_factored_denominator_canonical():
    assert factored_denominator({1: 2, 3: 1}) == ((3, 1), (1, 2))
    assert factored_denominator([(2, 1), (1, 0)]) == ((2, 1),)
    assert denominator_degree({2: 3, 1: 1}) == 4
    assert denominator_expand({2: 1, 1: 1}) == (1, -3, 2)
    assert denominator_expand({}) == ONE
    with pytest.raises(ValueError):
        factored_denominator({0: 1})
    with pytest.raises(ValueError):
        factored_denominator({2: -1})


def test_ratfun_rejects_common_factors():
    with pytest.raises(ValueError):
        RationalFunction(poly((1, -2)), ((2, 1),))
    with pytest.raises(ValueError):
        RationalFunction(ZERO, ((2, 1),))


def test_series_coefficients():
    f = RationalFunction((0, 0, 2), {1: 1})
    assert series_coefficients(f, 5) == [0, 0, 2, 2, 2, 2]
    g = RationalFunction((0, 0, 0, 4), {2: 1, 1: 1})
    assert series_coefficients(g, 6) == [0, 0, 0, 4, 12, 28, 60]
    assert series_coefficients(RationalFunction((1,), {2: 1}), 4) == [1, 2, 4, 8, 16]
    assert series_coefficients(RationalFunction((3, 1), ()), 3) == [3, 1, 0, 0]
    with pytest.raises(ValueError):
        series_coefficients(f, -1)


def test_partial_fractions_simple_pole():
    f = RationalFunction((1,), {1: 1})
    pfe = partial_fractions(f)
    assert pfe.pole_terms == ((1, 1, 1),) and pfe.poly_part == ZERO


def test_partial_fractions_no_denominator():
    f = RationalFunction((3, 0, 2), ())
    pfe = partial_fractions(f)
    assert pfe.pole_terms == () and pfe.poly_part == (3, 0, 2)


def test_partial_fractions_known_expansion():
    # 4x^3/((1-2x)(1-x)) = 1/(1-2x) - 4/(1-x) + 3 + 2x
    f = RationalFunction((0, 0, 0, 4), {2: 1, 1: 1})
    pfe = partial_fractions(f)
    assert pfe.pole_terms == ((2, 1, 1), (1, 1, -4))
    assert pfe.poly_part == (3, 2)


@st.composite
def ratfuns_st(draw):
    ks = draw(st.lists(st.integers(1, 7), unique=True, min_size=1, max_size=3))
    den = {k: draw(st.integers(1, 4)) for k in ks}
    size = sum(den.values()) + draw(st.integers(0, 2))
    coeffs = draw(st.sampled_from([fractions_st, st.integers(-5, 5)]))
    num = draw(st.lists(coeffs, min_size=1, max_size=size + 1).map(poly))
    if not num:
        return RationalFunction(ZERO, ())
    assume(all(_deflate(num, k) is None for k in ks))  # lowest terms
    return RationalFunction(num, den)


@given(ratfuns_st())
def test_partial_fractions_are_exact(f):
    pfe = partial_fractions(f)
    assert exact(pfe.poly_part, [c for _, _, c in pfe.pole_terms])
    as_fraction_input = RationalFunction(as_fractions(f.numerator), f.denominator)
    assert pfe == partial_fractions(as_fraction_input)


@given(ratfuns_st())
def test_partial_fractions_match_series(f):
    assert exact(series_coefficients(f, 8))
    assert expansion_matches_series(f, partial_fractions(f))


def test_sturm_examples():
    # 2x + 4x^2: roots 0 and -1/2
    assert sturm_real_root_audit((0, 2, 4)) == (2, True)
    assert sturm_real_root_audit((1, 0, 1)) == (0, False)
    assert sturm_real_root_audit((-6, 11, -6, 1)) == (3, False)  # roots 1, 2, 3
    assert sturm_real_root_audit((0, 2)) == (1, True)
    assert sturm_real_root_audit((4,)) == (0, True)
    with pytest.raises(ValueError):
        sturm_real_root_audit(())


@given(st.lists(st.integers(-4, 4), unique=True, min_size=1, max_size=4),
       st.lists(st.integers(1, 2), min_size=4, max_size=4),
       st.sampled_from([1, -2, 3]))
def test_sturm_constructed_roots(roots, mults, lead):
    p = poly((lead,))
    for r, m in zip(roots, mults):
        for _ in range(m):
            p = poly_mul(p, poly((-r, 1)))
    assert all(type(c) is int for c in p)
    count, nonpositive = sturm_real_root_audit(p)
    assert count == len(roots)
    assert nonpositive == all(r <= 0 for r in roots)
    assert sturm_real_root_audit(as_fractions(p)) == (count, nonpositive)


def test_expansion_type_is_frozen():
    pfe = PartialFractionExpansion(((2, 1, Fraction(2)),), (3, 2))
    with pytest.raises(Exception):
        pfe.poly_part = ZERO
