"""Seeded request streams for the four workloads.

A stream is an endless sequence of rounds. Each round holds a fixed mix of
request kinds and size strata, shuffled by the seed, and runs answer whole
rounds, so every run sees the same cost mix whatever the seed and however
many rounds fit. The seed picks the sizes inside each stratum, the formats
and the order.

No size is derived from a program constant (MAX_LEVEL, MAX_COUNT_N,
ENUMERATION_BUDGET, ...): the ranges are written out here, so a later change
to a cap cannot change a workload. Warm-up requests come from a separate
stream whose sizes lie outside the measured ranges, so a cache earns hits only
from repetition inside the measured list.
"""
from __future__ import annotations

import random
from itertools import chain, islice
from typing import NamedTuple


class Request(NamedTuple):
    argv: tuple  # arguments for altruns.cli.main
    kind: str  # subcommand, or "malformed" for a request that must exit 2
    fmt: str
    params: dict  # what the checker needs: n, s, n_max, suite, expect
    key: tuple  # the level or cell it touches, for repeat_share


ALL_FORMATS = ("text", "json", "csv")
NO_CSV = ("text", "json")


def _req(kind: str, fmt: str, key: tuple, args: list, **params) -> Request:
    argv = (kind, *map(str, args), "--format", fmt)
    return Request(argv, kind, fmt, params, key)


def count(rng, n: int, s: int, method: str = "recurrence", fmt: str = None) -> Request:
    fmt = fmt or rng.choice(ALL_FORMATS)
    args = ["--n", n, "--s", s] + ([] if method == "recurrence" else ["--method", method])
    level_keyed = method in ("genfun", "closed-form")
    key = ("level", s) if level_keyed else ("cell", n, s)
    return _req("count", fmt, key, args, n=n, s=s, method=method)


def table(rng, n_max: int, fmt: str = None) -> Request:
    fmt = fmt or rng.choice(ALL_FORMATS)
    return _req("table", fmt, ("rows", n_max), ["--n-max", n_max], n_max=n_max)


def level(rng, kind: str, s: int, fmt: str = None) -> Request:
    return _req(kind, fmt or rng.choice(NO_CSV), ("level", s), ["--s", s], s=s)


def census(rng, n: int, s: int) -> Request:
    return _req("census", rng.choice(ALL_FORMATS), ("cell", n, s), ["--n", n, "--s", s], n=n, s=s)


def verify(rng, suite: str) -> Request:
    return _req("verify", rng.choice(ALL_FORMATS), ("suite", suite), ["--suite", suite], suite=suite)


# --- trace inputs whose verdict is known by construction ----------------------


def runs_to_blocks(p) -> list:
    """Cut a permutation at its turning points; consecutive runs share an endpoint."""
    cuts = [0]
    for i in range(1, len(p) - 1):
        if (p[i] > p[i - 1]) != (p[i + 1] > p[i]):
            cuts.append(i)
    cuts.append(len(p) - 1)
    return [sorted(p[a : b + 1]) for a, b in zip(cuts, cuts[1:])]


def _blocks_text(blocks) -> str:
    return ";".join(",".join(map(str, b)) for b in blocks)


def trace_preimage(rng, n: int) -> Request:
    """phi(h, S) for a random first-run-up permutation and choice sequence h:
    reconstruction must find exactly (h, S)."""
    p = list(range(1, n + 1))
    rng.shuffle(p)
    if p[0] > p[1]:
        p[0], p[1] = p[1], p[0]
    blocks = runs_to_blocks(p)
    choices = [rng.choice((i + 1, i + 2)) for i in range(len(blocks) - 1)]
    image = [set(b) for b in blocks]
    for i, h in enumerate(choices):
        (shared,) = set(blocks[i]) & set(blocks[i + 1])
        image[h - 1].discard(shared)
    expect = {"failure": None, "choices": choices, "candidate": blocks}
    text = _blocks_text(sorted(b) for b in image)
    return _req("trace", rng.choice(NO_CSV), ("blocks", text), ["--blocks", text], expect=expect)


def trace_empty_union(rng, n: int) -> Request:
    """Blocks j and j+1 both empty: the first adjacent union is empty, so
    reconstruction stops with empty_union."""
    s = rng.randint(3, 6)
    j = rng.randrange(s - 1)
    others = [i for i in range(s) if i not in (j, j + 1)]
    blocks = [[] for _ in range(s)]
    for v in range(1, n + 1):
        blocks[rng.choice(others)].append(v)
    text = _blocks_text(blocks)
    expect = {"failure": "empty_union"}
    return _req("trace", rng.choice(NO_CSV), ("blocks", text), ["--blocks", text], expect=expect)


# --- malformed requests: invalid whatever the program's caps are --------------

_MALFORMED = (
    ("count", "--n", "1", "--s", "1"),
    ("count", "--n", "5", "--s", "0"),
    ("count", "--n", "5"),
    ("count", "--n", "ten", "--s", "2"),
    ("count", "--n", "6", "--s", "2", "--method", "guess"),
    ("table", "--n-max", "1"),
    ("gf", "--s", "0"),
    ("pfd", "--s", "0", "--format", "json"),
    ("formula", "--s", "3", "--format", "csv"),
    ("census", "--n", "1", "--s", "2"),
    ("census", "--n", "4", "--s", "0"),
    ("trace", "--blocks", "1,2;2,3"),
    ("trace", "--blocks", "1;3"),
    ("trace", "--blocks", "a;b"),
    ("verify", "--suite", "everything"),
    ("tally", "--n", "4"),
)


def malformed(argv) -> Request:
    return Request(tuple(argv), "malformed", "", {}, ("malformed", tuple(argv)))


def huge_trace(rng) -> Request:
    """Two elements, the larger about 10^6: rejected for not covering 1..n.
    The cost of rejecting it shows whether validation scales with the
    largest element instead of the element count."""
    return malformed(("trace", "--blocks", f"1;{10**6 + rng.randrange(1000)}"))


# --- rounds -------------------------------------------------------------------


def _cells_round(rng, i):
    # Costs fall into three groups: a table or a count at n ~ 420, in turn
    # (cheap); twelve counts at n ~ 550, which cost the same within a few
    # percent (middle); and one count at n ~ 1000 (dear). With as many cheap
    # as dear requests the median sits in the middle of the middle group, and
    # the tail percentile (ten requests beyond it) in its top tenth, so
    # neither depends on the sizes the seed picks. The dear count makes every
    # run's peak memory that of an n = 1000 triangle.
    if i % 2 == 0:
        out = [table(rng, rng.randint(150, 200))]
    else:
        out = [count(rng, rng.randrange(400, 450), rng.randint(1, 12))]
    out += [count(rng, rng.randint(540, 560), rng.randint(1, 12)) for _ in range(12)]
    out.append(count(rng, rng.randint(990, 1000), rng.randint(1, 12)))
    if i == 0:
        # once per run, like verify --suite bijection on census; it costs
        # about as much as a count at n ~ 750
        out.append(verify(rng, "triangle"))
    return out


def _cells_warm(rng):
    return [count(rng, rng.randint(100, 300), rng.randint(1, 12)), table(rng, rng.randint(50, 120))]


_LEVEL_KINDS = ("gf", "pfd", "formula", "count-genfun", "count-closed-form")


def _level_request(rng, s: int, kind: str) -> Request:
    if kind.startswith("count-"):
        return count(rng, rng.randint(s + 1, 300), s, kind[len("count-"):])
    return level(rng, kind, s)


def _algebra_round(rng, i):
    # Every level s = 6..12, with s = 6, 7 and 12 twice and s = 9 four times:
    # five cheap requests (s 6..8), four at s = 9 and five dear ones (s 10..12
    # and a verify). So the median sits in the middle of the s = 9 group
    # instead of on the steep slope between levels, and the tail percentile
    # among the s = 12 requests. The kind of each request turns with the
    # round, so every five rounds ask each level in each kind.
    levels = (6, 6, 7, 7, 8, 9, 9, 9, 9, 10, 11, 12, 12)
    out = [_level_request(rng, s, _LEVEL_KINDS[(s + i + j) % 5]) for j, s in enumerate(levels)]
    out.append(verify(rng, ("genfun", "closed-form")[i % 2]))
    return out


def _algebra_warm(rng):
    return [_level_request(rng, s, rng.choice(_LEVEL_KINDS)) for s in range(2, 6)]


# cells with s <= n-1 and 5.9e4 .. 2.8e5 block tuples, grouped by measured
# cost. Each round has two cells of about 0.4 s, one cheaper and one dearer,
# so the median and the tail percentile (p60) fall among the 0.4 s cells.
_CENSUS_CHEAP = ((8, 4), (7, 5))  # 6.6e4, 7.8e4 tuples
_CENSUS_MIDDLE = ((16, 2), (10, 3))  # 6.6e4, 5.9e4
_CENSUS_DEAR = ((17, 2), (7, 6), (11, 3), (9, 4))  # 1.3e5 .. 2.8e5


def _census_cell(rng, n: int, s: int) -> Request:
    return census(rng, n, s) if rng.random() < 0.5 else count(rng, n, s, "census")


def _census_round(rng, i):
    out = [_census_cell(rng, n, s) for n, s in _CENSUS_MIDDLE]
    out.append(_census_cell(rng, *_CENSUS_CHEAP[i % 2]))
    out.append(_census_cell(rng, *_CENSUS_DEAR[i % 4]))
    if i == 0:
        # once per run: a fixed slice of the run's time however many rounds fit
        out.append(verify(rng, "bijection"))
    return out


def _census_warm(rng):
    return [_census_cell(rng, *rng.choice(((6, 4), (8, 3), (5, 5))))]


def _tiny_census_cell(rng):
    s = rng.randint(1, 4)
    n_max = {1: 12, 2: 12, 3: 7, 4: 6}[s]  # s^n <= 4^6
    return rng.randint(2, n_max), s


def _interactive_round(rng, i):
    out = [table(rng, rng.randint(2, 30)) for _ in range(4)]
    out += [count(rng, rng.randint(2, 40), rng.randint(1, 5)) for _ in range(6)]
    out += [count(rng, rng.randint(2, 7), rng.randint(1, 5), "brute") for _ in range(3)]
    for method in ("genfun", "closed-form"):
        for _ in range(2):
            s = rng.randint(1, 5)
            out.append(count(rng, rng.randint(s + 1, 30), s, method))
    out += [count(rng, *_tiny_census_cell(rng), "census") for _ in range(2)]
    out += [level(rng, kind, rng.randint(1, 5)) for kind in ("gf", "pfd", "formula") for _ in range(3)]
    out += [census(rng, *_tiny_census_cell(rng)) for _ in range(3)]
    out += [trace_preimage(rng, rng.randint(2, 12)) for _ in range(2)]
    out += [trace_empty_union(rng, rng.randint(1, 12)) for _ in range(2)]
    out.append(verify(rng, "polynomial"))
    out.append(huge_trace(rng))
    out += [malformed(rng.choice(_MALFORMED)) for _ in range(3)]
    return out


def _interactive_warm(rng):
    return [
        table(rng, 40),
        count(rng, 45, 6),
        level(rng, "gf", 6),
        census(rng, 5, 5),
        trace_preimage(rng, 13),
    ]


class Workload(NamedTuple):
    name: str
    why: str
    round: object  # (rng, round index) -> list of Request
    warm: object  # rng -> list of Request, sizes outside the measured ranges
    setup: Request  # first request of a fresh interpreter, for setup_s
    tail_pct: float  # latency_tail_s percentile: >= 10 requests beyond it at this commit
    round_s: float  # seconds one round takes at this commit; sets the traced list length


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cells",
            "single cells P(n,s) for n up to 1000 and multi-MB tables: time goes to the "
            "O(n^2) triangle and table rendering; algebra and census never run",
            _cells_round,
            _cells_warm,
            table(random.Random(0), 100, "text"),
            82.0,
            5.8,
        ),
        Workload(
            "algebra",
            "gf, pfd, formula and genfun/closed-form counts at s 6..12: Fraction algebra "
            "in build_us and partial fractions; levels repeat, so caching shows only here",
            _algebra_round,
            _algebra_warm,
            level(random.Random(0), "gf", 5, "json"),
            91.0,
            2.6,
        ),
        Workload(
            "census",
            "census and census counts over 6e4..2.8e5 block tuples plus verify --suite "
            "bijection: time goes to the enumerate-and-classify loop",
            _census_round,
            _census_warm,
            census(random.Random(0), 6, 4),
            60.0,
            2.2,
        ),
        Workload(
            "interactive",
            "many cheap requests over all eight subcommands and formats, a tenth malformed: "
            "parsing, validation, rendering; shows work moved into import or memory",
            _interactive_round,
            _interactive_warm,
            count(random.Random(0), 10, 3, fmt="text"),
            99.0,
            0.32,
        ),
    )
}


def rounds(workload: str, seed: int):
    """Endless measured rounds; the same (workload, seed) gives the same rounds."""
    rng = random.Random(f"measured:{workload}:{seed}")
    make = WORKLOADS[workload].round
    i = 0
    while True:
        batch = make(rng, i)
        rng.shuffle(batch)
        yield batch
        i += 1


def stream(workload: str, seed: int):
    return chain.from_iterable(rounds(workload, seed))


def take(workload: str, seed: int, count: int) -> list:
    return list(islice(stream(workload, seed), count))


def warm_up(workload: str, seed: int) -> list:
    """One round of the warm-up stream."""
    w = WORKLOADS[workload]
    return w.warm(random.Random(f"warm-up:{workload}:{seed}"))


def repeat_share(keys) -> float:
    """Share of requests whose level or cell (Request.key) already occurred
    earlier in the same list."""
    keys = list(keys)
    seen = set()
    repeats = 0
    for key in keys:
        if key in seen:
            repeats += 1
        seen.add(key)
    return repeats / len(keys) if keys else 0.0
