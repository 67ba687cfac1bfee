"""Response checker: is one CLI answer exactly right?

Every expected value comes from reference.py, never from altruns. Text forms
of gf, pfd and formula are parsed and evaluated here, so all three output
formats are checked against the same reference columns.
"""
from __future__ import annotations

import csv
import io
import json
import operator
import re
from fractions import Fraction

from reference import (
    SERIES_N,
    binomial_power_series,
    bonferroni_bound,
    census_successes,
    series_const,
    series_div,
    series_mul,
)

# --- expression parser for rendered formulas and generating functions ---------

_TOKEN = re.compile(r"\s*(?:(\d+)|([a-z])|([-+*/^()]))")


def _tokens(text: str) -> list:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"unexpected text at {text[pos:pos + 10]!r}")
        out.append(m.group(m.lastindex))
        pos = m.end()
    return out


class _Parser:
    """Recursive descent over + - * / ^ and parentheses. Juxtaposition
    multiplies, as in 2x^4(5-6x) or (1-3x)(1-2x)."""

    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ValueError("expression ends early")
        self.i += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing token {self.peek()!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while True:
            tok = self.peek()
            if tok in ("*", "/"):
                self.take()
                node = (tok, node, self.unary())
            elif tok is not None and (tok == "(" or tok.isalnum()):
                node = ("*", node, self.power())
            else:
                return node

    def unary(self):
        if self.peek() == "-":
            self.take()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            return ("^", base, self.atom())
        return base

    def atom(self):
        tok = self.take()
        if tok == "(":
            node = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parenthesis")
            return node
        if tok.isdigit():
            return ("num", int(tok))
        if tok.isalpha():
            return ("var", tok)
        raise ValueError(f"unexpected token {tok!r}")


_SCALAR_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _integer_exponent(value) -> int:
    if Fraction(value).denominator != 1 or value < 0:
        raise ValueError(f"exponent {value} is not a natural number")
    return int(value)


class _AtN:
    """Exact scalar arithmetic with the variable n bound to an integer."""

    def __init__(self, n: int):
        self.n = n

    def const(self, c):
        return c

    def var(self, name):
        if name != "n":
            raise ValueError(f"unknown variable {name}")
        return self.n

    def neg(self, a):
        return -a

    def binary(self, op, a, b):
        if op == "^":
            return a ** _integer_exponent(b)
        return _SCALAR_OPS[op](Fraction(a), b) if op == "/" else _SCALAR_OPS[op](a, b)


class _Series:
    """Truncated power series in x, coefficients 0..SERIES_N."""

    def const(self, c):
        return series_const(c)

    def var(self, name):
        if name != "x":
            raise ValueError(f"unknown variable {name}")
        out = series_const(0)
        out[1] = 1
        return out

    def neg(self, a):
        return [-c for c in a]

    def binary(self, op, a, b):
        if op == "+":
            return [x + y for x, y in zip(a, b)]
        if op == "-":
            return [x - y for x, y in zip(a, b)]
        if op == "*":
            return series_mul(a, b)
        if op == "/":
            return series_div(a, b)
        if any(b[1:]):
            raise ValueError("exponent depends on x")
        out = series_const(1)
        for _ in range(_integer_exponent(b[0])):
            out = series_mul(out, a)
        return out


def evaluate(text, arith):
    """Value of a rendered expression (text, or a tree from parse) under arith."""

    def walk(node):
        tag = node[0]
        if tag == "num":
            return arith.const(node[1])
        if tag == "var":
            return arith.var(node[1])
        if tag == "neg":
            return arith.neg(walk(node[1]))
        return arith.binary(tag, walk(node[1]), walk(node[2]))

    return walk(parse(text) if isinstance(text, str) else text)


def parse(text: str):
    return _Parser(text).parse()


# --- per-command checks; each returns None or what is wrong -------------------


def _number(text: str):
    """A decimal string as int, or as Fraction when it is written p/q."""
    value = Fraction(text)
    return int(value) if value.denominator == 1 else value


def _one_line(out: str) -> str:
    lines = out.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one line, got {len(lines)}")
    return lines[0]


def _column_mismatch(got: list, s: int, ref) -> str | None:
    want = ref.column(s)
    for n, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"coefficient of x^{n} is {g}, expected {w}"
    return None


def _check_count(p, fmt, out, ref):
    n, s = p["n"], p["s"]
    v = ref.value(n, s)
    if fmt == "json":
        got = json.loads(out)["value"]
        return None if got == str(v) else f"P({n},{s}) = {got}, expected {v}"
    want = f"{n},{s},{v}\n" if fmt == "csv" else f"{v}\n"
    return None if out == want else f"P({n},{s}) printed {out.strip()[:60]!r}, expected {v}"


def _table_rows(fmt: str, out: str) -> dict:
    rows = {}
    if fmt == "json":
        obj = json.loads(out)
        for n, row in enumerate(obj["rows"], start=int(obj["n_min"])):
            rows[n] = [int(v) for v in row]
    elif fmt == "csv":
        for n, s, v in csv.reader(io.StringIO(out)):
            rows.setdefault(int(n), []).append(int(v))
    else:
        for line in out.splitlines():
            head, _, body = line.partition(": ")
            if not head.startswith("n="):
                raise ValueError(f"bad table line {line[:40]!r}")
            rows[int(head[2:])] = [int(v) for v in body.split()]
    return rows


def _check_table(p, fmt, out, ref):
    rows = _table_rows(fmt, out)
    if sorted(rows) != list(range(2, p["n_max"] + 1)):
        return f"table has rows {min(rows, default=None)}..{max(rows, default=None)}"
    for n, row in rows.items():
        if row != ref.row(n):
            return f"table row {n} differs from the reference"
    return None


def _check_gf(p, fmt, out, ref):
    s = p["s"]
    if fmt == "json":
        obj = json.loads(out)
        num = series_const(0)
        for i, c in enumerate(obj["numerator"][: SERIES_N + 1]):
            num[i] = _number(c)
        den = series_const(1)
        for k, e in obj["denominator"]:
            den = series_mul(den, _factor_power(int(k), int(e)))
        return _column_mismatch(series_div(num, den), s, ref)
    return _check_series_text(s, out, ref)


def _factor_power(k: int, e: int) -> list:
    out = series_const(1)
    for _ in range(e):
        out[1:] = [a - k * b for a, b in zip(out[1:], out)]
    return out


def _check_series_text(s, out, ref):
    prefix = f"u_{s} = "
    line = _one_line(out)
    if not line.startswith(prefix):
        return f"expected a line starting {prefix!r}"
    return _column_mismatch(evaluate(line[len(prefix):], _Series()), s, ref)


def _check_pfd(p, fmt, out, ref):
    s = p["s"]
    if fmt != "json":
        return _check_series_text(s, out, ref)
    obj = json.loads(out)
    total = series_const(0)
    for i, c in enumerate(obj["poly_part"][: SERIES_N + 1]):
        total[i] = _number(c)
    for term in obj["terms"]:
        c = _number(term["c"])
        part = binomial_power_series(int(term["k"]), int(term["m"]))
        total = [a + c * b for a, b in zip(total, part)]
    return _column_mismatch(total, s, ref)


_FORMULA = re.compile(r"P\(n,(\d+)\) = (.*)  \[n >= (\d+)\]$")


def _check_formula(p, fmt, out, ref):
    s = p["s"]
    if fmt == "json":
        obj = json.loads(out)
        floor = int(obj["validity_floor"])
        terms = [(int(t["base"]), [_number(c) for c in t["psi"]]) for t in obj["terms"]]

        def value(n):
            return sum(sum(c * n**j for j, c in enumerate(psi)) * base**n for base, psi in terms)

    else:
        m = _FORMULA.match(_one_line(out))
        if not m or int(m.group(1)) != s:
            return f"formula line does not read P(n,{s}) = ...  [n >= k]"
        body, floor = parse(m.group(2)), int(m.group(3))

        def value(n):
            return evaluate(body, _AtN(n))

    if floor > s + 1:
        return f"validity floor {floor} above s+1 = {s + 1}"
    for n in range(s + 1, SERIES_N + 1):
        got = value(n)
        if got != ref.value(n, s):
            return f"formula gives P({n},{s}) = {got}, expected {ref.value(n, s)}"
    return None


def _check_census(p, fmt, out, ref):
    n, s = p["n"], p["s"]
    want = (census_successes(ref.value(n, s), s), s**n, bonferroni_bound(n, s))
    if fmt == "json":
        obj = json.loads(out)
        got = (int(obj["successes"]), int(obj["total"]), int(obj["bonferroni_bound"]))
    elif fmt == "csv":
        row = next(csv.reader(io.StringIO(out)))
        if [int(row[0]), int(row[1])] != [n, s]:
            return f"census row names cell {row[:2]}"
        got = tuple(int(v) for v in row[2:])
    else:
        m = re.fullmatch(
            r"census n=(\d+) s=(\d+): (\d+) of (\d+) block tuples have preimages"
            r" \(lower bound (-?\d+)\)\n",
            out,
        )
        if not m or (int(m.group(1)), int(m.group(2))) != (n, s):
            return f"census line unreadable: {out[:80]!r}"
        got = tuple(int(v) for v in m.groups()[2:])
    if got != want:
        return f"census ({n},{s}) gave successes/total/bound {got}, expected {want}"
    return None


def _check_trace(p, fmt, out, ref):
    want = p["expect"]
    if fmt == "json":
        obj = json.loads(out)
        if obj["failure"] != want["failure"] or obj["preimage_exists"] != (want["failure"] is None):
            return f"trace verdict {obj['failure']!r}, expected {want['failure']!r}"
        if want["failure"] is None:
            choices = [int(c) for c in obj["choices"]]
            cand = [sorted(int(v) for v in b) for b in obj["candidate"]]
            if choices != want["choices"] or cand != want["candidate"]:
                return "trace recovered the wrong preimage"
        return None
    lines = out.splitlines()
    if want["failure"] is None:
        step3 = "step 3 choice sequence: " + (" ".join(map(str, want["choices"])) or "(none)")
        if lines[-1] != "outcome: preimage found" or step3 not in lines:
            return f"trace text does not report the preimage: {lines[-1]!r}"
    elif lines[-1] != f"outcome: no preimage ({want['failure']})":
        return f"trace outcome {lines[-1]!r}, expected {want['failure']}"
    return None


def _check_verify(p, fmt, out, ref):
    if fmt == "json":
        obj = json.loads(out)
        checks = obj["checks"]
        ok = obj["ok"] is True and all(c["ok"] is True for c in checks)
    elif fmt == "csv":
        checks = list(csv.reader(io.StringIO(out)))
        ok = all(row[2] == "pass" for row in checks)
    else:
        lines = out.splitlines()
        checks = lines[:-1]
        ok = lines[-1] == f"all {len(checks)} checks passed" and all(
            line.startswith("[PASS] ") for line in checks
        )
    if not checks:
        return "verify ran no checks"
    return None if ok else f"verify --suite {p['suite']} reported a failed check"


CHECKERS = {
    "count": _check_count,
    "table": _check_table,
    "gf": _check_gf,
    "pfd": _check_pfd,
    "formula": _check_formula,
    "census": _check_census,
    "trace": _check_trace,
    "verify": _check_verify,
}


def check(req, rc: int, out: str, ref) -> str | None:
    """None when the response to `req` is exactly right, else the first problem."""
    if req.kind == "malformed":
        if rc != 2:
            return f"malformed request {' '.join(req.argv)!r} exited {rc}, expected 2"
        return f"malformed request printed {out[:40]!r}" if out else None
    if rc != 0:
        return f"{' '.join(req.argv)!r} exited {rc}, expected 0"
    try:
        return CHECKERS[req.kind](req.params, req.fmt, out, ref)
    except (ValueError, KeyError, IndexError, TypeError, StopIteration, ZeroDivisionError) as e:
        return f"unreadable {req.kind} output: {e!r}"
