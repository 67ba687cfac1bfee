"""The run-count triangle P(n, s): permutations of 1..n with s alternating runs.

A run is a maximal monotonic stretch. Rows are indexed 2 <= n, columns
1 <= s <= n-1; every row sums to n!. Three routes live here: definitional
brute force (capped), the three-term row recurrence, and the row polynomials
with their structural audits. The generating-function and closed-formula
routes live in sibling modules and are cross-checked in tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial

from .exact_algebra import Poly, _require, poly, poly_add, poly_derivative, poly_mul

BRUTE_FORCE_MAX_N = 10  # 10! permutations is the practical enumeration limit


def _validate_permutation(p) -> int:
    n = len(p)
    if n < 2:
        raise ValueError("runs undefined below n=2")
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError("input is not a permutation of 1..n")
    return n


def _run_count(p) -> int:
    runs = 1
    for i in range(1, len(p) - 1):
        if (p[i] > p[i - 1]) != (p[i + 1] > p[i]):
            runs += 1
    return runs


def count_runs(p) -> int:
    """Number of maximal monotonic stretches of the permutation p."""
    _validate_permutation(p)
    return _run_count(p)


def brute_force_row(n: int, first_up: bool = False) -> tuple:
    """Row n of the triangle by full enumeration. Only for 2 <= n <= 10.

    With first_up, only permutations whose first run ascends are counted;
    each count is then exactly half the full row.
    """
    if not 2 <= n <= BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force supports 2 <= n <= {BRUTE_FORCE_MAX_N}")
    row = [0] * (n - 1)
    perms = permutations(range(1, n + 1))
    if first_up:
        perms = (p for p in perms if p[0] < p[1])
    for p in perms:
        row[_run_count(p) - 1] += 1
    return tuple(row)


def _andre_step(m: int, prev: tuple, width: int) -> tuple:
    """Columns 1..min(width, m-1) of row m from the leading entries of row m-1.

    prev holds row m-1 up to column min(width, m-2); nothing further is read.
    """
    q = (0, 0) + prev + (0,)  # q[t + 1] is P(m-1, t)
    return tuple(
        t * a + 2 * b + (m - t) * c
        for t, a, b, c in zip(range(1, min(width, m - 1) + 1), q[2:], q[1:], q)
    )


def andre_row(n: int, prev=()) -> tuple:
    """Row n from row n-1 via P(n,s) = s*P + 2*P(s-1) + (n-s)*P(s-2).

    Row 2 is the base case (2,) and takes no predecessor.
    """
    if n < 2:
        raise ValueError("rows start at n=2")
    if n == 2:
        if tuple(prev):
            raise ValueError("row 2 takes no predecessor")
        return (2,)
    prev = tuple(prev)
    if len(prev) != n - 2:
        raise ValueError(f"row {n} needs the {n - 2} entries of row {n - 1}")
    return _andre_step(n, prev, n - 1)


def andre_column(n_max: int, s: int) -> tuple:
    """(P(2,s), ..., P(n_max,s)) in O(n_max * s), keeping columns 1..s of two rows.

    Column s of a row reads only columns <= s of the row before, so row sums
    are out of reach; instead every row m is checked for column 1 == 2 and for
    the truncated row-sum identity (with P = P(m-1, .))
        sum_{t<=s} P(m,t) = m*sum_{t<=s} P(t) - (m-s)*P(s) - (m-s-1)*P(s-1),
    which for s >= m-1 is the full row sum m*(m-1)!. Finally P(n_max, 2) must
    be 2**n_max - 4 when s >= 2.
    """
    if n_max < 2:
        raise ValueError("column needs n_max >= 2")
    if s < 1:
        raise ValueError("columns start at s=1")
    if s >= n_max:
        return (0,) * (n_max - 1)  # right of the triangle in every row
    row = (2,)
    out = [2 if s == 1 else 0]
    for m in range(3, n_max + 1):
        prev, row = row, _andre_step(m, row, s)
        at_s = prev[s - 1] if s <= len(prev) else 0
        at_s1 = prev[s - 2] if 2 <= s <= len(prev) + 1 else 0
        _require(row[0] == 2, f"P({m},1) != 2")
        _require(
            sum(row) == m * sum(prev) - (m - s) * at_s - (m - s - 1) * at_s1,
            f"truncated row sum of row {m} up to column {s} is wrong",
        )
        out.append(row[s - 1] if s <= len(row) else 0)
    if s >= 2:  # then n_max > s keeps column 2 in the last row
        _require(row[1] == 2**n_max - 4, f"P({n_max},2) != 2**{n_max} - 4")
    return tuple(out)


@dataclass(frozen=True)
class RunTriangle:
    """Rows n_min..n_max of the triangle; entries[i] is row n_min + i."""

    n_min: int
    n_max: int
    entries: tuple

    def value(self, n: int, s: int) -> int:
        """P(n, s), with 0 outside the triangle's column range."""
        if not self.n_min <= n <= self.n_max:
            raise ValueError(f"row {n} not in this triangle ({self.n_min}..{self.n_max})")
        if 1 <= s <= n - 1:
            return self.entries[n - self.n_min][s - 1]
        return 0


def andre_triangle(n_max: int) -> RunTriangle:
    """Rows 2..n_max by the recurrence, each row checked to sum to n!."""
    if n_max < 2:
        raise ValueError("triangle needs n_max >= 2")
    rows = [(2,)]
    for n in range(3, n_max + 1):
        rows.append(andre_row(n, rows[-1]))
    for n, row in enumerate(rows, start=2):
        _require(sum(row) == factorial(n), f"row {n} does not sum to {n}!")
        _require(row[0] == 2, f"P({n},1) != 2")
    return RunTriangle(2, n_max, tuple(rows))


@dataclass(frozen=True)
class RunPolynomial:
    """Row n packaged as sum_s P(n,s) x**s."""

    n: int
    coeffs: Poly


def run_polynomial(n: int) -> RunPolynomial:
    """Row polynomial by the derivative recurrence
    P_n = (x - x^3) P_{n-1}' + ((n-2) x^2 + 2x) P_{n-1}, seeded with 2x.

    The result is cross-checked against the row recurrence before returning.
    """
    if n < 2:
        raise ValueError("row polynomials start at n=2")
    cur = poly((0, 2))
    for m in range(3, n + 1):
        cur = poly_add(
            poly_mul(poly((0, 1, 0, -1)), poly_derivative(cur)),
            poly_mul(poly((0, 2, m - 2)), cur),
        )
    row = andre_triangle(n).entries[-1]
    _require(
        not cur[0] and list(cur[1:]) == list(row),
        f"row polynomial {n} disagrees with the row recurrence",
    )
    return RunPolynomial(n, cur)


def log_concavity_check(row) -> bool:
    """Whether P(n,s)**2 >= P(n,s-1) * P(n,s+1) across the row's interior."""
    row = tuple(row)
    return all(row[i] ** 2 >= row[i - 1] * row[i + 1] for i in range(1, len(row) - 1))
