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

The conditions are stated once: _shared_bit recovers the shared element at
one junction and _endpoint_mismatch tests the endpoints at one junction.
Reconstruction applies them junction by junction to a whole tuple; the
census applies them once per block prefix, walking all s**n tuples as a
tree of prefixes. It walks one first block per (size, maximum) class,
weighted by the class size, and counts in bulk the subtrees below an empty
adjacent union and below a small candidate.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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


def _small_set_leaves(m: int, k: int, nonempty: bool) -> int:
    """Ways to drop m elements into k blocks with no two adjacent blocks
    empty, where nonempty says whether the block before them holds any.

    When j blocks take elements, the k - j empty ones (no two adjacent, and
    not the first when the block before is empty too) can be placed in
    C(j + [nonempty], k - j) ways, and the elements go onto the j others
    in Surj(m, j) ways (inclusion-exclusion over the blocks left empty).
    """
    leaves = 0
    for j in range(min(m, k) + 1):
        onto = sum((-1) ** i * comb(j, i) * (j - i) ** m for i in range(j + 1))
        leaves += comb(j + nonempty, k - j) * onto
    return leaves


def _census(n: int, s: int) -> dict:
    """Failure classes of all s**n block tuples, None counting successes.

    Walks block prefixes left to right, each block a submask of the
    elements not yet placed and the last block forced to the rest. Choosing
    a block recovers the shared element of the junction before it, which
    completes the candidate before it; that candidate's size and the
    endpoints of the junction before that are then tested, so each test
    runs once per prefix. Two kinds of subtree are counted in bulk:

    - below an empty adjacent union every leaf is empty_union (that class
      is checked first): (blocks left) ** (elements left) leaves;
    - below a small candidate every leaf is small_set unless an empty
      adjacent union follows, which depends only on which blocks are
      empty: _small_set_leaves splits the leaves between the two classes.

    Two adjacent empty blocks end a prefix, so the walk is at most
    min(s, 2n + 2) deep.

    Block 0 meets the rest only at junction 0, through its size and its
    maximum x (candidate 0's maximum is the shared element, and its other
    elements lie in no other candidate). The classes only compare
    elements, so the C(x-1, t-1) first blocks of size t and maximum x have
    equal subtrees: one, {1..t-1, x}, is walked with that weight.
    Successes and endpoint mismatches are still visited one by one.
    """
    if n < 2 or s < 1:
        raise ValueError("census needs n >= 2 and s >= 1")
    # s**n >= 2**(n * (bits(s) - 1)), so a huge power is refused unbuilt
    if n * (s.bit_length() - 1) >= ENUMERATION_BUDGET.bit_length() or s**n > ENUMERATION_BUDGET:
        raise ValueError(f"enumeration budget exceeded: {s}^{n} > {ENUMERATION_BUDGET}")
    tally = dict.fromkeys((None,) + FAILURE_CLASSES, 0)
    if s == 1:
        tally[None] += 1  # one block of n >= 2 elements: an increasing run
        return tally
    last = s - 1
    small_set_leaves = cache(_small_set_leaves)

    def walk(d, rem, prev, part, done, pending, w):
        # choose block d (0-based) from rem; prev is block d-1, part is
        # candidate d-1 so far (block d-1 and the element of junction d-2 if
        # it went back there), done is candidate d-2, pending is the
        # prefix's class unless an empty union comes later (None or
        # endpoint_mismatch), and each leaf stands for w tuples
        sub = rem
        while True:
            bit = _shared_bit(prev, sub, d - 1)
            if not bit:
                tally[EMPTY_UNION] += w * (last - d) ** (rem ^ sub).bit_count()
            else:
                if prev & bit:
                    cand, nxt = part, sub | bit
                else:
                    cand, nxt = part | bit, sub
                cls = pending
                if cand.bit_count() < 2:
                    cls = SMALL_SET
                elif cls is None and d > 1 and _endpoint_mismatch(done, cand, d - 2):
                    cls = ENDPOINT_MISMATCH
                if d == last:
                    if nxt.bit_count() < 2:
                        cls = SMALL_SET
                    elif cls is None and _endpoint_mismatch(cand, nxt, d - 1):
                        cls = ENDPOINT_MISMATCH
                    tally[cls] += w
                elif cls == SMALL_SET:
                    m = (rem ^ sub).bit_count()
                    small = small_set_leaves(m, last - d, sub != 0)
                    tally[SMALL_SET] += w * small
                    tally[EMPTY_UNION] += w * ((last - d) ** m - small)
                else:
                    walk(d + 1, rem ^ sub, sub, nxt, cand, cls, w)
            if d == last or not sub:
                return
            sub = (sub - 1) & rem

    full = (1 << n) - 1  # element v is bit v - 1
    walk(1, full, 0, 0, 0, None, 1)  # block 0 empty
    for x in range(1, n + 1):
        for t in range(1, x + 1):
            block = ((1 << (t - 1)) - 1) | (1 << (x - 1))
            walk(1, full ^ block, block, block, 0, None, comb(x - 1, t - 1))
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
