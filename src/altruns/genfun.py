"""Fixed-column generating functions for the run-count triangle.

For each s >= 1 the series u_s(x) = sum_{n>=2} P(n,s) x**n is rational with
denominator prod_{i=0}^{s-1} (1 - (s-i)x)**eps(i), where eps runs
1,1,2,2,3,3,... This module builds the u_s by the exact first-order
recurrence, assembling each numerator in integers over that known
denominator, and audits every degree the construction is supposed to
satisfy. Numerator degree is always one more than denominator degree, so
each u_s decomposes as a linear polynomial plus proper partial fractions.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd

from .exact_algebra import (
    ONE,
    ZERO,
    RationalFunction,
    _deflate,
    _require,
    degree,
    denominator_degree,
    denominator_expand,
    factored_denominator,
    poly,
    poly_add,
    poly_derivative,
    poly_divrem,
    poly_mul,
    poly_scale,
)


def epsilon(i: int) -> int:
    """Denominator multiplicity pattern: 1, 1, 2, 2, 3, 3, ..."""
    if i < 0:
        raise ValueError("multiplicity index must be >= 0")
    return i // 2 + 1


def delta(s: int):
    """Factored denominator at level s: (1 - (s-i)x)**eps(i) for i < s."""
    if s < 1:
        raise ValueError("levels start at s=1")
    fac = factored_denominator({s - i: epsilon(i) for i in range(s)})
    _require(denominator_degree(fac) == _denominator_degree(s), f"delta({s}) has the wrong degree")
    return fac


def _denominator_degree(s: int) -> int:
    # ceil(s(s+2)/4)
    return (s * (s + 2) + 3) // 4


def _numerator_degree(s: int) -> int:
    return 1 + _denominator_degree(s)


def _recurrence_degree(s: int) -> int:
    # the degree the assembly recurrence forces, seeded at levels 2 and 3
    d = {2: 3, 3: 5}
    for m in range(4, s + 1):
        d[m] = max(d[m - 1] + (m + 1) // 2, d[m - 2] + m)
    return d[s]


@dataclass(frozen=True)
class UsFunction:
    """One column series u_s packaged with its level."""

    s: int
    ratfun: RationalFunction


_NONZERO_REMAINDER = "factored denominator normalization failed: nonzero remainder"


def build_us(s_max: int) -> list:
    """u_0..u_{s_max} (index is the level), built by the exact recurrence

        (1 - s*x) u_s = 2x u_{s-1} + x^2 u_{s-2}' - (s-1) x u_{s-2}

    from u_0 = 0 and u_1 = 2x^2/(1-x). Each numerator N_s is assembled in
    integers directly over the predicted denominator delta(s), through the
    ratios delta(s)/((1-sx) delta(s-1)) and delta(s)/((1-sx) delta(s-2)). A
    ratio that is not a polynomial raises "nonzero remainder"; a factor N_s
    shares with delta(s) raises "common factor". Either means the predicted
    form is wrong.
    """
    if s_max < 1:
        raise ValueError("need s_max >= 1")
    out = [UsFunction(0, RationalFunction(ZERO, ()))]
    out.append(UsFunction(1, RationalFunction(poly((0, 0, 2)), delta(1))))
    for s in range(2, s_max + 1):
        target = delta(s)
        f1, f2 = out[s - 1].ratfun, out[s - 2].ratfun
        r1, r2 = _ratio(target, f1.denominator, s), _ratio(target, f2.denominator, s)
        # (1-kx)^-e differentiates to e*k (1-kx)^-(e+1): r2 must hold one more (1-kx)
        correction = ZERO
        for k, e in f2.denominator:
            q = _deflate(r2, k)
            if q is None:
                raise ArithmeticError(_NONZERO_REMAINDER)
            correction = poly_add(correction, poly_scale(q, e * k))
        num = reduce(poly_add, _assembly_terms(s, f1.numerator, f2.numerator, r1, r2, correction))
        try:
            out.append(UsFunction(s, RationalFunction(num, target)))
        except ValueError as err:
            raise ArithmeticError("factored denominator normalization failed: common factor") from err
    return out


def _ratio(target, lower, s: int) -> tuple:
    """target / ((1 - s*x) lower) for factor maps, expanded; raises unless it is a polynomial."""
    spare = dict(target)
    for k, e in lower + ((s, 1),):
        spare[k] = spare.get(k, 0) - e
    if min(spare.values()) < 0:
        raise ArithmeticError(_NONZERO_REMAINDER)
    return denominator_expand(spare)


def _assembly_terms(s: int, n1, n2, r1, r2, correction) -> tuple:
    """The four pieces of N_s over delta(s): 2x N_{s-1} r1, x^2 N_{s-2}' r2,
    x^2 N_{s-2} correction (from differentiating delta(s-2)) and -(s-1)x N_{s-2} r2."""
    return (
        poly_mul(poly((0, 2)), poly_mul(n1, r1)),
        poly_mul(poly((0, 0, 1)), poly_mul(poly_derivative(n2), r2)),
        poly_mul(poly((0, 0, 1)), poly_mul(n2, correction)),
        poly_mul(poly((0, -(s - 1))), poly_mul(n2, r2)),
    )


def degree_audit(u: UsFunction) -> None:
    """Check every degree claim for one level; raises on any mismatch.

    Numerator degree must equal 1 + ceil(s(s+2)/4), match the assembly
    recurrence value for s >= 2, and sit one above the denominator degree;
    the lowest numerator term is x**(s+1).
    """
    s = u.s
    if s < 1:
        raise ValueError("audit applies to levels s >= 1")
    nd = degree(u.ratfun.numerator)
    dd = denominator_degree(u.ratfun.denominator)
    low = next(i for i, c in enumerate(u.ratfun.numerator) if c)
    if nd != _numerator_degree(s):
        raise ArithmeticError(f"numerator degree {nd} != {_numerator_degree(s)} at s={s}")
    if dd != _denominator_degree(s):
        raise ArithmeticError(f"denominator degree {dd} != {_denominator_degree(s)} at s={s}")
    if nd != dd + 1:
        raise ArithmeticError(f"numerator degree {nd} is not denominator degree + 1 at s={s}")
    if s >= 2 and nd != _recurrence_degree(s):
        raise ArithmeticError(f"recurrence degree {_recurrence_degree(s)} != {nd} at s={s}")
    if low != s + 1:
        raise ArithmeticError(f"lowest numerator term x^{low}, expected x^{s + 1} at s={s}")


def _gap_product(s: int, gaps) -> tuple:
    """prod over the gaps j of (1 - (s-j)x), expanded."""
    return denominator_expand({s - j: 1 for j in gaps})


def ratio_identities_check(s: int) -> None:
    """Verify the two denominator ratios used when assembling level s.

    delta(s) / ((1-sx) delta(s-1)) must equal prod over even gaps j of
    (1-(s-j)x), a polynomial of degree floor((s-1)/2); and
    delta(s) / ((1-sx) delta(s-2)) must equal the full product over
    j = 1..s-1, of degree s-1. Both divisions must be exact; raises otherwise.
    """
    if s < 2:
        raise ValueError("ratio identities apply from s=2")
    num = denominator_expand(delta(s))

    den1 = poly_mul(poly((1, -s)), denominator_expand(delta(s - 1)))
    q1, r1 = poly_divrem(num, den1)
    if r1 or q1 != _gap_product(s, range(2, s, 2)):
        raise ArithmeticError(f"first denominator ratio broke at s={s}")

    low = ONE if s == 2 else denominator_expand(delta(s - 2))
    den2 = poly_mul(poly((1, -s)), low)
    q2, r2 = poly_divrem(num, den2)
    if r2 or q2 != _gap_product(s, range(1, s)):
        raise ArithmeticError(f"second denominator ratio broke at s={s}")

    _require(degree(q1) == (s - 1) // 2, f"first ratio at s={s} has the wrong degree")
    _require(degree(q2) == s - 1, f"second ratio at s={s} has the wrong degree")


def assembly_term_degrees(us: list, s: int) -> tuple:
    """Degrees of the four numerator pieces that sum to level s's numerator.

    The pieces come from clearing the recurrence over the common denominator:
    2x * N_{s-1} * (even-gap product), x^2 * N_{s-2}' * (full product), the
    logarithmic-derivative correction, and -(s-1)x * N_{s-2} * (full product).
    The ratios here are the explicit gap products, not the factor maps
    build_us reads them from. Raises if the four do not sum to the stored
    numerator exactly.
    """
    if s < 2 or s >= len(us):
        raise ValueError("need 2 <= s <= built levels")
    r1 = _gap_product(s, range(2, s, 2))
    r2 = _gap_product(s, range(1, s))
    correction = ZERO
    for j in range(2, s):
        part = _gap_product(s, (l for l in range(1, s) if l != j))
        correction = poly_add(correction, poly_scale(part, epsilon(j - 2) * (s - j)))
    terms = _assembly_terms(s, us[s - 1].ratfun.numerator, us[s - 2].ratfun.numerator, r1, r2, correction)
    if reduce(poly_add, terms) != us[s].ratfun.numerator:
        raise ArithmeticError(f"assembly identity failed at s={s}")
    return tuple(degree(t) for t in terms)


def _power_text(base: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return base
    return f"{base}^{e}"


def monomial_text(mag, i: int, var: str = "x") -> str:
    """mag var^i for a positive coefficient mag, e.g. 19/4, x, 2x^3, n^2."""
    return ("" if mag == 1 and i > 0 else str(mag)) + _power_text(var, i)


def coefficient_text(c) -> str:
    """A coefficient as a factor: 3 as is, a fraction in parentheses (19/4)."""
    return str(c) if c.denominator == 1 else f"({c})"


def signed_sum(pieces, sep: str = " ") -> str:
    """Join (negative, unsigned text) pairs as a - b + c; sep="" gives a-b+c."""
    body = ""
    for idx, (negative, text) in enumerate(pieces):
        if idx:
            body += f"{sep}{'-' if negative else '+'}{sep}{text}"
        else:
            body = ("-" if negative else "") + text
    return body


def factor_text(k: int, e: int) -> str:
    """(1 - k x)^e, e.g. (1-x), (1-2x)^3."""
    return f"(1-{'' if k == 1 else k}x)" + (f"^{e}" if e > 1 else "")


def render_us(u: UsFunction) -> str:
    """Display form: content and power of x pulled out of the numerator,
    denominator factors by decreasing k, e.g. 2x^4(5-6x) / ((1-3x)(1-2x)(1-x)^2).
    """
    num = u.ratfun.numerator
    _require(num and all(type(c) is int for c in num), f"u_{u.s} has no integer numerator")
    val = next(i for i, c in enumerate(num) if c)
    content = gcd(*num)
    if num[val] < 0:
        content = -content
    residual = [c // content for c in num[val:]]
    head = monomial_text(abs(content), val)
    if residual != [1]:
        terms = ((c < 0, monomial_text(abs(c), i)) for i, c in enumerate(residual) if c)
        head = ("" if head == "1" else head) + f"({signed_sum(terms, sep='')})"
    num_text = ("-" if content < 0 else "") + head
    factors = "".join(factor_text(k, e) for k, e in u.ratfun.denominator)
    if len(u.ratfun.denominator) > 1 or u.ratfun.denominator[0][1] > 1:
        den_text = f"({factors})"
    else:
        den_text = factors
    return f"{num_text} / {den_text}"
