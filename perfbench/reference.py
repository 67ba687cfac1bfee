"""Reference values for checking responses, built from the standard library only.

Nothing here imports altruns: every expected answer comes from the
benchmark's own column-truncated recurrence

    P(n, s) = s P(n-1, s) + 2 P(n-1, s-1) + (n-s) P(n-1, s-2),  P(2, 1) = 2,

which reads only columns <= s, so a column range up to s_max costs O(n * s_max).
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

SERIES_N = 40  # generating-function answers are compared on coefficients 0..SERIES_N


def column_rows(n_max: int, s_max: int) -> dict:
    """{n: [P(n, 1), ..., P(n, min(s_max, n-1))]} for 2 <= n <= n_max."""
    rows = {2: [2]}
    for n in range(3, n_max + 1):
        prev = rows[n - 1]

        def at(s):
            return prev[s - 1] if 1 <= s <= len(prev) else 0

        width = min(s_max, n - 1)
        rows[n] = [s * at(s) + 2 * at(s - 1) + (n - s) * at(s - 2) for s in range(1, width + 1)]
    return rows


class Reference:
    """P(n, s) for every column up to row `full_n` and for columns <= `s_max`
    up to row `n_max`; any other cell raises KeyError."""

    def __init__(self, full_n: int = 200, n_max: int = 1000, s_max: int = 12):
        self.full = column_rows(full_n, full_n)
        for n, row in self.full.items():
            if sum(row) != factorial(n) or row[0] != 2:
                raise ArithmeticError(f"reference row {n} fails its row-sum check")
        self.narrow = column_rows(n_max, s_max)
        self.s_max = s_max
        for n in range(2, full_n + 1):
            if self.narrow[n] != self.full[n][:s_max]:
                raise ArithmeticError(f"reference row {n} disagrees between the two ranges")

    def value(self, n: int, s: int) -> int:
        if n < 2 or not 1 <= s <= n - 1:
            return 0
        if n in self.full:
            return self.full[n][s - 1]
        if s > self.s_max:
            raise KeyError((n, s))
        return self.narrow[n][s - 1]

    def row(self, n: int) -> list:
        return self.full[n]

    def column(self, s: int, n_max: int = SERIES_N) -> list:
        """Coefficients 0..n_max of u_s(x) = sum_n P(n, s) x^n."""
        return [self.value(n, s) for n in range(n_max + 1)]


def census_successes(p: int, s: int) -> int:
    """Block tuples with a preimage: 2^(s-1) * P(n, s) / 2."""
    return 2 ** (s - 1) * p // 2


def bonferroni_bound(n: int, s: int) -> int:
    return s**n - s * (n + s) * (s - 1) ** (n - 1)


# --- truncated power series, coefficients 0..SERIES_N -------------------------


# Coefficients stay int where they can (Fraction only once a rational constant
# enters), which keeps checking integer generating functions cheap.


def series_mul(a: list, b: list) -> list:
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            for j in range(len(a) - i):
                out[i + j] += x * b[j]
    return out


def series_div(a: list, b: list) -> list:
    if not b[0]:
        raise ZeroDivisionError("series divisor has no constant term")
    out = []
    for n in range(len(a)):
        acc = a[n] - sum(b[j] * out[n - j] for j in range(1, n + 1))
        out.append(acc if b[0] == 1 else Fraction(acc) / b[0])
    return out


def series_const(c, length: int = SERIES_N + 1) -> list:
    return [c] + [0] * (length - 1)


def binomial_power_series(k: int, m: int, length: int = SERIES_N + 1) -> list:
    """Coefficients of 1 / (1 - kx)^m: C(n+m-1, m-1) k^n."""
    out = []
    coeff = 1
    for n in range(length):
        if n:
            coeff = coeff * (n + m - 1) // n  # C(n+m-1, n), exact at every step
        out.append(coeff * k**n)
    return out
