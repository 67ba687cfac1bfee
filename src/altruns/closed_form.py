"""Closed formulas P(n, s) = sum_{i=0}^{s-1} psi_i(n) (s-i)**n, exact for n >= 2.

Two independent routes produce the psi coefficients and must agree: grouping
the partial fraction expansion of the level-s generating function by pole
base, and solving the coefficient recurrence with a polynomial ansatz of
degree floor(i/2). The top coefficient is the constant K(s) = 2**(2-s), so
P(n,s) ~ K(s) s**n with the relative error carried by the (s-1)**n term.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd

from .exact_algebra import (
    ONE,
    ZERO,
    Poly,
    degree,
    partial_fractions,
    poly,
    poly_add,
    poly_compose,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_sub,
)
from .genfun import UsFunction, build_us
# andre_triangle is no longer called here but stays bound: perfbench's tracing
# checks that it wraps the triangle in every module that imported it
from .run_counts import andre_column, andre_triangle  # noqa: F401


def k_constant(s: int) -> Fraction:
    """Leading coefficient K(s) = 2**(2-s) of the s**n term."""
    if s < 1:
        raise ValueError("levels start at s=1")
    return Fraction(2) ** (2 - s)


@dataclass(frozen=True)
class PsiPolynomial:
    """psi_i for level s, stored as a Poly in n of degree at most floor(i/2)."""

    i: int
    s: int
    coeffs_in_n: Poly

    def __post_init__(self):
        object.__setattr__(self, "coeffs_in_n", poly(self.coeffs_in_n))
        assert degree(self.coeffs_in_n) <= self.i // 2


@dataclass(frozen=True)
class ClosedFormFormula:
    s: int
    psi: tuple  # PsiPolynomial for i = 0..s-1
    validity_floor: int


def _binomial_in_n(m: int) -> Poly:
    # C(n+m-1, m-1) as a polynomial in n
    out = ONE
    for t in range(1, m):
        out = poly_mul(out, poly((t, 1)))
    return poly_scale(out, Fraction(1, factorial(m - 1)))


def formula_from_pfd(s: int, us: UsFunction = None) -> ClosedFormFormula:
    """Exact formula for column s, from the generating function's expansion.

    The term c/(1-kx)**m contributes c*C(n+m-1,m-1)*k**n, so grouping terms
    by pole base k = s-i yields psi_i directly. The polynomial part of the
    expansion only disturbs coefficients below the validity floor.
    """
    if s < 1:
        raise ValueError("levels start at s=1")
    if us is None:
        us = build_us(s)[s]
    assert us.s == s
    pfe = partial_fractions(us.ratfun)
    groups = {i: ZERO for i in range(s)}
    for k, m, c in pfe.pole_terms:
        i = s - k
        if not 0 <= i < s:
            raise ArithmeticError(f"pole base {k} outside 1..{s}")
        groups[i] = poly_add(groups[i], poly_scale(_binomial_in_n(m), c))
    psis = tuple(PsiPolynomial(i, s, groups[i]) for i in range(s))
    assert psis[0].coeffs_in_n == (k_constant(s),)
    floor = max(2, degree(pfe.poly_part) + 1)
    return ClosedFormFormula(s, psis, floor)


def psi_from_recurrence(s: int, i_max: int) -> list:
    """psi_0..psi_{i_max} for level s, independent of generating functions.

    Substituting the closed form into the triangle's row recurrence gives

        (s-i) psi_i(n, s) = s psi_i(n-1, s) + 2 psi_{i-1}(n-1, s-1)
                            + (n-s) psi_{i-2}(n-1, s-2)

    which determines each psi_i as a polynomial in n of degree floor(i/2)
    once psi_0 is pinned to K. The triangular solve runs top coefficient
    down; the solved polynomial is checked against the functional equation.
    """
    if not 0 <= i_max <= s - 1:
        raise ValueError("need 0 <= i_max <= s-1")
    memo = {}

    def get(i: int, sigma: int) -> Poly:
        if i < 0:
            return ZERO
        if i == 0:
            return (k_constant(sigma),)
        if (i, sigma) not in memo:
            memo[(i, sigma)] = solve(i, sigma)
        return memo[(i, sigma)]

    def solve(i: int, sigma: int) -> Poly:
        shift = poly((-1, 1))  # n -> n-1
        a = poly_compose(get(i - 1, sigma - 1), shift)
        b = poly_compose(get(i - 2, sigma - 2), shift)
        rhs = poly_add(poly_scale(a, 2), poly_mul(poly((-sigma, 1)), b))
        d = i // 2
        if degree(rhs) > d:
            raise ArithmeticError("ansatz degree insufficient")
        coeffs = [Fraction(0)] * (d + 1)
        for j in range(d, -1, -1):
            # coefficient of n**j in (sigma-i) psi(n) - sigma psi(n-1) = rhs
            carry = Fraction(0)
            for l in range(j + 1, d + 1):
                carry += coeffs[l] * comb(l, j) * (-1) ** (l - j)
            acc = rhs[j] if j < len(rhs) else Fraction(0)
            coeffs[j] = -(acc + sigma * carry) / i
        out = poly(coeffs)
        check = poly_sub(poly_scale(out, sigma - i), poly_scale(poly_compose(out, shift), sigma))
        assert check == rhs, "triangular solve failed"
        return out

    return [PsiPolynomial(i, s, get(i, s)) for i in range(i_max + 1)]


def evaluate_closed_form(f: ClosedFormFormula, n: int) -> int:
    """P(n, s) by the formula. Refuses n below the floor and cells with
    s >= n, where the column is outside the triangle."""
    if n < f.validity_floor:
        raise ValueError(f"n={n} is below the validity floor {f.validity_floor}")
    if f.s >= n:
        raise ValueError(f"column s={f.s} requires n > s; evaluate a lower column at n={n}")
    total = Fraction(0)
    for p in f.psi:
        total += poly_eval(p.coeffs_in_n, n) * Fraction(f.s - p.i) ** n
    if total.denominator != 1:
        raise ArithmeticError("formula/floor mismatch")
    return int(total)


@dataclass(frozen=True)
class AsymptoticEstimate:
    """estimate = s**n / 2**(s-2); relative_error = |P/estimate - 1|."""

    n: int
    s: int
    estimate: Fraction
    relative_error: Fraction


def asymptotic_report(s: int, n_list) -> list:
    """Leading-term quality for column s at each n (all exact arithmetic)."""
    if s < 1:
        raise ValueError("levels start at s=1")
    n_list = list(n_list)
    if not n_list or min(n_list) < 2:
        raise ValueError("need n >= 2")
    column = andre_column(max(n_list), s)
    out = []
    for n in n_list:
        p = column[n - 2]
        estimate = Fraction(4 * s**n, 2**s)
        out.append(AsymptoticEstimate(n, s, estimate, abs(Fraction(p) / estimate - 1)))
    return out


def _n_poly_text(ints) -> tuple:
    """Render an integer polynomial in n; returns (negated, text).

    Term order prefers descending powers, switches to ascending when that
    makes the leading rendered term positive, and pulls a minus sign out
    entirely when every coefficient is negative.
    """
    terms = [(i, c) for i, c in enumerate(ints) if c]
    assert terms
    negated = all(c < 0 for _, c in terms)
    if negated:
        terms = [(i, -c) for i, c in terms]
    descending = list(reversed(terms))
    order = descending if descending[0][1] > 0 else terms
    parts = []
    for i, c in order:
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            body = head + ("n" if i == 1 else f"n^{i}")
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return negated, "".join(parts)


def _exact_log(base: int, value: int) -> int:
    """k with base**k == value, else 0."""
    shift = 0
    while value > 1 and value % base == 0:
        value //= base
        shift += 1
    return shift if value == 1 else 0


def _base_power_text(base: int, scale: Fraction) -> str:
    """scale * base**n folded into a single power where the scale allows,
    e.g. (1/4)*4**n -> 4^(n-1) and 2*2**n -> 2^(n+1)."""
    if scale == 1:
        return f"{base}^n"
    if base > 1 and scale.numerator == 1:
        shift = _exact_log(base, scale.denominator)
        if shift:
            return f"{base}^(n-{shift})"
    if base > 1 and scale.denominator == 1:
        shift = _exact_log(base, scale.numerator)
        if shift:
            return f"{base}^(n+{shift})"
    text = str(scale) if scale.denominator == 1 else f"({scale})"
    return f"{text}*{base}^n"


def _term_text(coeffs: Poly, base: int) -> tuple:
    """One rendered formula term; returns (sign, text) with text unsigned."""
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    if base == 1:
        negated, text = _n_poly_text(ints)
        if degree(poly(coeffs)) > 0:
            text = f"({text})"
        if lcm > 1:
            text = f"{text}/{lcm}"
        return (-1 if negated else 1), text
    content = 0
    for c in ints:
        content = gcd(content, abs(c))
    reduced = [c // content for c in ints]
    scale = Fraction(content, lcm)
    negated, ptext = _n_poly_text(reduced)
    sign = -1 if negated else 1
    power = _base_power_text(base, scale)
    if reduced in ([1], [-1]):
        return sign, power
    return sign, f"({ptext})*{power}"


def render_formula(f: ClosedFormFormula) -> str:
    """One-line display, e.g.
    P(n,4) = 4^(n-1) - 3^n + (6-n)*2^(n-1) + (2n-7)  [n >= 2]."""
    pieces = []
    for p in f.psi:
        if not p.coeffs_in_n:
            continue
        pieces.append(_term_text(p.coeffs_in_n, f.s - p.i))
    body = ""
    for idx, (sign, text) in enumerate(pieces):
        if idx == 0:
            body = ("-" if sign < 0 else "") + text
        else:
            body += (" - " if sign < 0 else " + ") + text
    return f"P(n,{f.s}) = {body}  [n >= {f.validity_floor}]"


def formula_terms_json(f: ClosedFormFormula) -> list:
    """JSON-ready term list: base as string, psi coefficients as strings."""
    return [
        {"base": str(f.s - p.i), "psi": [str(c) for c in p.coeffs_in_n]}
        for p in f.psi
    ]
