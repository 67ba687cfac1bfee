"""Exact polynomial arithmetic over the rationals, and rational functions
with factored denominators.

Polynomials are dense coefficient tuples, ints until a division makes a
``fractions.Fraction``: index i holds the coefficient of x**i, the last entry
is nonzero, and the zero polynomial is the empty tuple. A RationalFunction
keeps its denominator in the factored form prod (1 - k*x)**e with integer
k >= 1, so every pole is known exactly; it is built in lowest terms by its
caller, and there is no rational-function arithmetic. Series expansion runs
the denominator's recurrence, and partial fractions peel in integers over one
common denominator; a ``Fraction`` appears only for each returned constant.
Real-root counting uses exact Sturm chains.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

Poly = tuple  # dense coefficient tuple, constant term first
FactorMap = tuple  # ((k, e), ...) sorted by decreasing k

ZERO: Poly = ()
ONE: Poly = (1,)


def _require(cond, msg: str) -> None:
    """An invariant check that holds under ``python -O`` too."""
    if not cond:
        raise ArithmeticError(msg)


def _exact(c):  # ints and Fractions only: a float would carry its rounding in
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"exact arithmetic takes ints and Fractions, not {type(c).__name__}")
    return c


def poly(coeffs) -> Poly:
    """Normalize an iterable of numbers into a Poly (strip trailing zeros)."""
    out = [_exact(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def degree(p: Poly) -> int:
    """Degree of p; the zero polynomial reports -1."""
    return len(p) - 1


def poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return poly(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def poly_sub(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return poly(
        (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)
    )


def poly_scale(p: Poly, c) -> Poly:
    return poly_mul(p, poly((c,)))


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out) if out[-1] else poly(out)


def poly_derivative(p: Poly) -> Poly:
    return poly(i * p[i] for i in range(1, len(p)))


def poly_divrem(num: Poly, den: Poly) -> tuple:
    """Quotient and remainder with deg(remainder) < deg(den)."""
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(num)
    q = [0] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = Fraction(rem[i + len(den) - 1], lead)
        if c:
            q[i] = c
            for j, d in enumerate(den):
                rem[i + j] -= c * d
    return poly(q), poly(rem)


def poly_eval(p: Poly, x):
    x = _exact(x)
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_compose(p: Poly, q: Poly) -> Poly:
    """p(q(x)), by Horner over polynomial arithmetic."""
    acc = ZERO
    for c in reversed(p):
        acc = poly_add(poly_mul(acc, q), poly((c,)))
    return acc


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd with zero is the monic version of the other argument."""
    while b:
        a, b = b, poly_divrem(a, b)[1]
    if not a:
        return ZERO
    return poly_scale(a, Fraction(1, a[-1]))


def factored_denominator(factors) -> FactorMap:
    """Canonical tuple for prod (1 - k*x)**e: pairs (k, e) by decreasing k.

    Accepts a mapping or an iterable of pairs; zero exponents are dropped.
    """
    items = dict(factors)
    out = []
    for k in sorted(items, reverse=True):
        e = items[k]
        if e == 0:
            continue
        if not (isinstance(k, int) and k >= 1) or not (isinstance(e, int) and e > 0):
            raise ValueError(f"factor (1-{k}x)^{e} outside the supported family")
        out.append((k, e))
    return tuple(out)


def denominator_degree(den) -> int:
    return sum(e for _, e in factored_denominator(den))


def denominator_expand(den) -> Poly:
    """Expand the factored denominator into a Poly (constant term 1)."""
    out = ONE
    for k, e in factored_denominator(den):
        f = poly((1, -k))
        for _ in range(e):
            out = poly_mul(out, f)
    return out


@dataclass(frozen=True)
class RationalFunction:
    """numerator(x) / prod (1 - k*x)**e, stored in lowest terms.

    Construction rejects a numerator sharing a root 1/k with the denominator,
    and the zero numerator over any nonempty denominator; nothing cancels.
    """

    numerator: Poly
    denominator: FactorMap

    def __post_init__(self):
        object.__setattr__(self, "numerator", poly(self.numerator))
        object.__setattr__(self, "denominator", factored_denominator(self.denominator))
        if not self.numerator:
            if self.denominator:
                raise ValueError("the zero function carries an empty denominator")
            return
        for k, _ in self.denominator:
            if _deflate(self.numerator, k) is not None:
                raise ValueError(f"numerator shares the factor (1-{k}x) with the denominator")


def _deflate(p: Poly, k: int):
    # p / (1 - k*x) by q_i = p_i + k*q_{i-1}, or None if the last step, k**deg(p) p(1/k), is not 0
    q, carry = [], 0
    for c in p:
        carry = c + k * carry
        q.append(carry)
    return None if q and q.pop() else tuple(q)


def series_coefficients(f: RationalFunction, n_max: int) -> list:
    """Taylor coefficients of f at 0, indices 0..n_max; ints for an integer numerator.

    Runs the linear recurrence read off the expanded denominator, so cost is
    O(n_max * deg(denominator)) exact operations.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    den = denominator_expand(f.denominator)
    num = f.numerator
    out = []
    for n in range(n_max + 1):
        acc = num[n] if n < len(num) else 0
        for j in range(1, min(n, len(den) - 1) + 1):
            acc -= den[j] * out[n - j]
        out.append(acc)
    return out


@dataclass(frozen=True)
class PartialFractionExpansion:
    """pole_terms is ((k, m, c), ...): the term c / (1 - k*x)**m.

    Terms are ordered by decreasing k, then decreasing m within a pole.
    poly_part is the quotient left over when the numerator was not proper.
    """

    pole_terms: tuple
    poly_part: Poly


def _at_pole(p, k: int) -> int:
    # k**(len(p)-1) * p(1/k) by Horner: the last carry of p / (1 - k*x)
    acc = 0
    for c in p:
        acc = acc * k + c
    return acc


def partial_fractions(f: RationalFunction) -> PartialFractionExpansion:
    """Peel the pole terms off f, by decreasing k and then decreasing power.

    The remainder is an integer Poly r over one common denominator d. At the
    term c/(1-kx)**m with cofactor b, the factors not yet peeled, the constant
    is c = r(1/k) / (d b(1/k)); then r*den(c) - d*num(c)*b vanishes at 1/k, is
    deflated by (1 - kx) and the gcd of d and r is divided out. Each b is the
    previous one deflated by its pole. What the last pole leaves is the
    polynomial part.
    """
    if not f.denominator:
        return PartialFractionExpansion((), f.numerator)
    d = lcm(*(c.denominator for c in f.numerator))
    r = [c.numerator * (d // c.denominator) for c in f.numerator]
    b = denominator_expand(f.denominator)
    poly_len = max(len(r) - len(b) + 1, 0)  # at most this many polynomial-part coefficients
    terms = []
    for k, e in f.denominator:
        for _ in range(e):
            b = _deflate(b, k)
            _require(b is not None, "a denominator factor does not divide its expansion")
        b_at = _at_pole(b, k)
        for m in range(e, 0, -1):
            shift = len(b) - len(r)
            c = Fraction(_at_pole(r, k) * k ** max(shift, 0), d * b_at * k ** max(-shift, 0))
            if c:
                terms.append((k, m, c))
            scale, lift = c.denominator, d * c.numerator
            r = _deflate([scale * x - lift * y for x, y in zip_longest(r, b, fillvalue=0)], k)
            _require(r is not None, "deflation by a factor that does not divide")
            r = list(r)
            while r and not r[-1]:
                r.pop()
            d *= scale
            g = gcd(d, *r)
            if g > 1:
                d //= g
                r = [x // g for x in r]
    _require(len(r) <= poly_len, "peeling must exhaust the proper part")
    return PartialFractionExpansion(tuple(terms), tuple(Fraction(x, d) if x else 0 for x in r))


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _variations(signs) -> int:
    out, prev = 0, 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            out += 1
        prev = s
    return out


def _squarefree_part(p: Poly) -> Poly:
    g = poly_gcd(p, poly_derivative(p))
    q, r = poly_divrem(p, g)
    _require(not r, "the gcd with the derivative does not divide")
    return q


def sturm_real_root_audit(p) -> tuple:
    """(number of distinct real roots, whether every real root is <= 0).

    Exact: strips the power of x (a root at 0), takes the squarefree part,
    and counts sign variations of the Sturm chain at -inf, 0, +inf.
    """
    p = poly(p)
    if not p:
        raise ValueError("zero polynomial has no root count")
    v = 0
    while not p[v]:
        v += 1
    r = poly(p[v:])
    q = _squarefree_part(r)
    chain = [q, poly_derivative(q)]
    while chain[-1]:
        chain.append(poly_scale(poly_divrem(chain[-2], chain[-1])[1], -1))
    chain.pop()
    at_neg = [_sign(h[-1]) * (-1 if degree(h) % 2 else 1) for h in chain]
    at_pos = [_sign(h[-1]) for h in chain]
    at_zero = [_sign(h[0]) for h in chain]
    distinct = _variations(at_neg) - _variations(at_pos)
    nonpositive = _variations(at_neg) - _variations(at_zero)  # roots of q in (-inf, 0]
    count = distinct + (1 if v else 0)
    squarefree_degree = degree(q) + (1 if v else 0)
    all_nonpositive = count == squarefree_degree and nonpositive == distinct
    return count, all_nonpositive
