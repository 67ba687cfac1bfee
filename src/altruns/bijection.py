"""Runs-to-blocks injection and its exhaustive census.

A permutation of 1..n with s runs whose first run ascends is the same data as
an s-tuple of blocks covering 1..n in which adjacent blocks share exactly one
element, nonadjacent blocks are disjoint, every block has at least two
elements, and the shared element alternates: at odd junctions it is the
maximum of both neighbors, at even junctions the minimum. Deleting each
shared element from one of its two holders (a choice sequence picks which)
lands injectively in ordered tuples of pairwise disjoint blocks, of which
there are exactly s**n. Reconstruction inverts the map where a preimage
exists; counting its successes over all s**n tuples pins the constant in the
leading-term estimate of the run-count triangle.

Reconstruction states the conditions once: _shared_bit recovers the shared
element at one junction and _endpoint_mismatch tests the endpoints at one
junction, applied junction by junction to a whole tuple. The census counts
all s**n tuples by class without visiting them: the classes have a local
form in block extremes, empty blocks and singletons (see _census), so a
transfer over blocks, left to right, counts each class from a few numbers
per prefix.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import comb
from typing import NamedTuple, Optional

from .exact_algebra import _require
# andre_triangle is unused but stays bound for perfbench's tracing checks
from .run_counts import andre_column, andre_triangle, count_runs  # noqa: F401

EMPTY_UNION = "empty_union"
SMALL_SET = "small_set"
COVER = "cover"
ADJACENT_OVERLAP = "adjacent_overlap"
NONADJACENT_OVERLAP = "nonadjacent_overlap"
ENDPOINT_MISMATCH = "endpoint_mismatch"

# classes reconstruction can actually report, in the order they are checked
FAILURE_CLASSES = (EMPTY_UNION, SMALL_SET, ENDPOINT_MISMATCH)

ENUMERATION_BUDGET = 1 << 24
_BIT = (1).__lshift__


@dataclass(frozen=True)
class SetTuple:
    """Blocks S_1..S_s of a run decomposition (frozensets, left to right)."""

    n: int
    sets: tuple


@dataclass(frozen=True)
class TTuple:
    """Pairwise disjoint blocks T_1..T_s covering 1..n; the image side."""

    n: int
    sets: tuple


def _masks(sets) -> list:
    """Blocks of positive integers as bitmasks; bit v stands for element v."""
    return [sum(map(_BIT, b)) for b in sets]


def _shared_bit(left: int, right: int, i: int) -> int:
    """Shared element e_i recovered from T_i and T_{i+1} (0-based junction i):
    the max of their union at even i (odd junctions counted from 1), the min
    at odd i; 0 when the union is empty."""
    u = left | right
    if i & 1:
        return u & -u
    return 1 << (u.bit_length() - 1) if u else 0


def _endpoint_mismatch(a: int, b: int, i: int) -> bool:
    """Whether candidates i and i+1 (two elements or more each) fail to share
    exactly their common max (even i) or their common min (odd i)."""
    shared = a & b
    if i & 1:
        low = a & -a
        return shared != low or low != b & -b
    return shared != 1 << (a.bit_length() - 1) or a.bit_length() != b.bit_length()


def _candidate_violation(cand, s: int) -> Optional[str]:
    """First failed condition of bitmask blocks that cover 1..n, adjacent ones
    sharing one element at most, blocks two apart disjoint unless the block
    between has one element (see _recover): block sizes, then the shared
    endpoints (_endpoint_mismatch at each junction).
    """
    for c in cand:
        if c.bit_count() < 2:
            return SMALL_SET
    for i in range(s - 1):
        if _endpoint_mismatch(cand[i], cand[i + 1], i):
            return ENDPOINT_MISMATCH
    return None


def settuple_violation(n: int, sets) -> Optional[str]:
    """First violated run-decomposition condition, or None.

    Check order matters for failure classification: block sizes, cover,
    adjacent intersections, nonadjacent disjointness, then the alternating
    shared endpoints.
    """
    s = len(sets)
    if any(len(b) < 2 for b in sets):
        return SMALL_SET
    # n+s-1 elements, all in 1..n, cover 1..n exactly when n of them differ
    if sum(map(len, sets)) != n + s - 1:
        return COVER
    if s and (min(map(min, sets)) < 1 or max(map(max, sets)) > n):
        return COVER
    masks = _masks(sets)
    union = 0
    for m in masks:
        union |= m
    if union.bit_count() != n:
        return COVER
    for i in range(s - 1):
        if (masks[i] & masks[i + 1]).bit_count() != 1:
            return ADJACENT_OVERLAP
    # blocks three or more apart need no check: with n+s-1 elements in all and
    # one shared per adjacent pair, each element lies in consecutive blocks, so
    # such an overlap implies one two apart, which is reported here
    for i in range(s - 2):
        if masks[i] & masks[i + 2]:
            return NONADJACENT_OVERLAP
    return _candidate_violation(masks, s)


def ttuple_violation(n: int, sets) -> Optional[str]:
    seen = set()
    for b in sets:
        if b & seen:
            return "overlap"
        seen |= b
    # the blocks are disjoint, so they cover 1..n exactly when n distinct
    # elements all lie in 1..n; nothing here grows with the largest element
    if len(seen) != n or min(seen, default=1) < 1 or max(seen, default=n) > n:
        return "cover"
    return None


def permutation_to_settuple(p) -> SetTuple:
    """Cut p at its turning points; runs become blocks sharing endpoints."""
    n = len(p)
    count_runs(p)  # validates the permutation and n >= 2
    if p[0] > p[1]:
        raise ValueError("first-run-up convention violated")
    cuts = [0]
    for i in range(1, n - 1):
        if (p[i] > p[i - 1]) != (p[i + 1] > p[i]):
            cuts.append(i)
    cuts.append(n - 1)
    sets = tuple(frozenset(p[a : b + 1]) for a, b in zip(cuts, cuts[1:]))
    _require(settuple_violation(n, sets) is None, "runs do not form a run decomposition")
    return SetTuple(n, sets)


def settuple_to_permutation(t: SetTuple) -> tuple:
    """Inverse of :func:`permutation_to_settuple`: lay the blocks out
    alternately ascending and descending, merging shared endpoints."""
    bad = settuple_violation(t.n, t.sets)
    if bad is not None:
        raise ValueError(f"invalid run decomposition: {bad}")
    out = []
    for i, block in enumerate(t.sets):
        vals = sorted(block, reverse=i % 2 == 1)
        if out and out[-1] == vals[0]:
            vals = vals[1:]
        out.extend(vals)
    p = tuple(out)
    _require(
        len(p) == t.n and count_runs(p) == len(t.sets) and p[0] < p[1],
        "laid-out blocks do not give their runs back",
    )
    return p


def phi(h, t: SetTuple) -> TTuple:
    """Delete each shared element e_i from the block the choice h_i names.

    h is 1-based: h_i is i or i+1, the index of the block that loses e_i.
    """
    bad = settuple_violation(t.n, t.sets)
    if bad is not None:
        raise ValueError(f"invalid run decomposition: {bad}")
    s = len(t.sets)
    h = tuple(h)
    if len(h) != s - 1:
        raise ValueError(f"choice sequence needs {s - 1} entries")
    if any(h[i] not in (i + 1, i + 2) for i in range(s - 1)):
        raise ValueError("choice h_i must name block i or i+1")
    work = [set(b) for b in t.sets]
    for i in range(s - 1):
        (e,) = t.sets[i] & t.sets[i + 1]
        work[h[i] - 1].discard(e)
    return TTuple(t.n, tuple(frozenset(b) for b in work))


class ReconstructionTrace(NamedTuple):
    """The four reconstruction steps, as far as they ran."""

    unions: tuple
    deleted: tuple
    choices: tuple
    candidate: Optional[SetTuple]
    failure: Optional[str]
    preimage: Optional[tuple]


def _recover(masks, s: int):
    """Candidate masks: bitmask blocks T_1..T_s with each shared element put
    back, or None when an adjacent union is empty.

    The shared element e_i survives in exactly one of T_i, T_{i+1}, so it is
    still the extreme of their union (max at odd junctions, min at even);
    it goes back into the neighbour that lost it.

    Candidates two apart overlap only around a one-element block: i and
    i+2 can share only an x in T_{i+1}, put back at both junctions, so x is
    the max of T_i | T_{i+1} at one and the min of T_{i+1} | T_{i+2} at the
    other, and candidate i+1 = T_{i+1} = {x} fails as a small set first.
    """
    cand = list(masks)
    for i in range(s - 1):
        bit = _shared_bit(masks[i], masks[i + 1], i)
        if not bit:
            return None
        cand[i + 1 if masks[i] & bit else i] |= bit
    return cand


def _elements(mask: int) -> frozenset:
    """Inverse of _masks for one block."""
    return frozenset(v for v, bit in enumerate(reversed(bin(mask))) if bit == "1")


def _reconstruct(n: int, tsets: tuple):
    """(failure, unions, deleted elements, choices, candidate sets)."""
    s = len(tsets)
    unions = tuple(tsets[i] | tsets[i + 1] for i in range(s - 1))
    masks = _masks(tsets)
    cand = _recover(masks, s)
    if cand is None:
        return EMPTY_UNION, unions, (), (), None
    # candidate i holds T_i and at most e_{i-1}, e_i, where e_j lies in
    # T_j | T_{j+1}; the T are disjoint, so candidates i, i+1 share only e_i
    bits = [cand[i] & cand[i + 1] for i in range(s - 1)]
    deleted = tuple(bit.bit_length() - 1 for bit in bits)
    # h_i names the block that lost e_i: block i+1 when T_i still holds it
    choices = tuple(i + 2 if masks[i] & bit else i + 1 for i, bit in enumerate(bits))
    return _candidate_violation(cand, s), unions, deleted, choices, tuple(map(_elements, cand))


def reconstruct(t: TTuple) -> Optional[tuple]:
    """(choice sequence, SetTuple) with phi mapping them back to t, or None.

    None is the normal outcome for tuples outside the image; the failure
    class is available from :func:`reconstruct_trace`.
    """
    bad = ttuple_violation(t.n, t.sets)
    if bad is not None:
        raise ValueError(f"invalid block tuple: {bad}")
    failure, _, _, choices, cand = _reconstruct(t.n, t.sets)
    if failure is not None:
        return None
    result = (choices, SetTuple(t.n, cand))
    _require(phi(choices, result[1]) == t, "phi does not map the preimage back")
    return result


def reconstruct_trace(t: TTuple) -> ReconstructionTrace:
    """Step-by-step record of one reconstruction attempt."""
    bad = ttuple_violation(t.n, t.sets)
    if bad is not None:
        raise ValueError(f"invalid block tuple: {bad}")
    failure, unions, deleted, choices, cand = _reconstruct(t.n, t.sets)
    candidate = None if cand is None else SetTuple(t.n, cand)
    preimage = None if failure is not None else (choices, candidate)
    return ReconstructionTrace(unions, deleted, choices, candidate, failure, preimage)


def _mask_classify(masks, s: int) -> Optional[str]:
    """Failure class of bitmask blocks T_1..T_s; None when a preimage exists."""
    cand = _recover(masks, s)
    if cand is None:
        return EMPTY_UNION
    # candidate i lies in T_{i-1} | T_i | T_{i+1}, so cover holds, adjacent
    # candidates share only the recovered element and the sizes sum to n+s-1
    return _candidate_violation(cand, s)


class CensusResult(NamedTuple):
    successes: int
    total: int


def _census(n: int, s: int) -> dict:
    """Failure classes of all s**n block tuples, None counting successes.

    The classes are local. Junction j of blocks T_0..T_{s-1} takes the max
    at even j and the min at odd j; an element beats another at junction j
    when it is greater (even j) or smaller (odd j). The first rule that
    applies gives the class:

    - empty_union: two adjacent blocks are empty;
    - small_set: an end block is empty, or candidate d of a singleton
      T_d = {x} is {x}: x beats T_{d-1}'s extreme at junction d-1 and
      T_{d+1}'s at junction d, a missing or empty neighbour counting as
      beaten;
    - endpoint_mismatch: at an interior empty block T_d, T_{d-1}'s extreme
      at junction d-1 beats T_{d+1}'s at junction d (the zigzag breaks);
    - otherwise a success.

    So the count runs over blocks left to right. The state after block d
    is the number m of elements left, the rank r among them of the carried
    extreme (T_d's at junction d, or T_{d-1}'s when T_d is empty), the kind
    of T_d (empty, a singleton that can still be small, other) and the
    class so far. Ranks run in the order in which junction d takes the max,
    reversed at each step, so every test is "greater". C(b-a-1, k-2) blocks
    of k elements have min rank a and max rank b; over all b that makes
    C(m-1-a, k-1), of which C(r-1-a, k-1) lie below the carried extreme.
    The last block takes the rest; two adjacent empty blocks leave
    (blocks left) ** m empty_union tuples. P(n, s) is never read.
    """
    if n < 2 or s < 1:
        raise ValueError("census needs n >= 2 and s >= 1")
    # s**n >= 2**(n * (bits(s) - 1)), so a huge power is refused unbuilt
    if n * (s.bit_length() - 1) >= ENUMERATION_BUDGET.bit_length() or s**n > ENUMERATION_BUDGET:
        raise ValueError(f"enumeration budget exceeded: {s}^{n} > {ENUMERATION_BUDGET}")
    tally = dict.fromkeys((None,) + FAILURE_CLASSES, 0)
    classes = (None, ENDPOINT_MISMATCH, SMALL_SET)  # the class so far, by precedence
    empty, single, other = range(3)  # kinds of block d
    states = {(n, 0, other, 0): 1}  # (m, r, kind, class) -> prefixes; nothing carried yet
    for d in range(s):
        last = d == s - 1
        nxt = defaultdict(int)
        for (m, r, kind, cls), w in states.items():
            if m == 0 or not last:  # block d empty
                if kind == empty:
                    tally[EMPTY_UNION] += w * (s - 1 - d) ** m
                else:
                    nxt[m, m - r, empty, 2 if kind == single or d == 0 else cls] += w
            # block d with min rank a and k elements
            for a in range(min(m, 1) if last else m):
                for k in range(m - a if last else 1, m - a + 1):
                    rest = m - k  # the block's min, ranked from the top, is carried on
                    # the carried extreme beats the block's max: the singleton
                    # before stays small, the empty block before mismatches
                    low = comb(r - 1 - a, k - 1) if r > a else 0
                    if low:
                        beaten = 2 if kind == single else max(cls, 1) if kind == empty else cls
                        still = single if k == 1 and kind == empty else other
                        nxt[rest, rest - a, still, beaten] += w * low
                    high = comb(m - 1 - a, k - 1) - low
                    if high:
                        nxt[rest, rest - a, single if k == 1 else other, cls] += w * high
        states = nxt
    for (_, _, kind, cls), w in states.items():
        # an empty or singleton last block left in the state is a small set
        tally[classes[cls if kind == other else 2]] += w
    return tally


def census_tally(n: int, s: int) -> dict:
    """Every one of the s**n block tuples by failure class, None counting the
    tuples with a preimage.

    Checks the exact identity successes == 2**(s-1) * P(n,s)/2 and the
    sandwich lower bound before returning.
    """
    tally = _census(n, s)
    successes = tally[None]
    p = andre_column(n, s)[-1]
    _require(p % 2 == 0, f"P({n},{s}) is odd")
    _require(successes == (p // 2) * 2 ** (s - 1), f"census {successes} != 2^(s-2) P({n},{s})")
    _require(bonferroni_bound(n, s) <= successes <= s**n, f"census {successes} out of bounds")
    return tally


def image_census(n: int, s: int) -> CensusResult:
    """Count tuples with a preimage among all s**n block tuples, checked as
    in :func:`census_tally`."""
    return CensusResult(census_tally(n, s)[None], s**n)


def bonferroni_bound(n: int, s: int) -> int:
    """Lower bound s**n - s(n+s)(s-1)**(n-1) for the census successes."""
    if n < 1 or s < 1:
        raise ValueError("bound needs n >= 1 and s >= 1")
    return s**n - s * (n + s) * (s - 1) ** (n - 1)
