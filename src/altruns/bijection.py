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
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Optional

from .run_counts import andre_triangle, count_runs

EMPTY_UNION = "empty_union"
SMALL_SET = "small_set"
COVER = "cover"
ADJACENT_OVERLAP = "adjacent_overlap"
NONADJACENT_OVERLAP = "nonadjacent_overlap"
FAR_OVERLAP = "far_overlap"
ENDPOINT_MISMATCH = "endpoint_mismatch"

# classes reconstruction can actually report, in the order they are checked
FAILURE_CLASSES = (EMPTY_UNION, SMALL_SET, NONADJACENT_OVERLAP, ENDPOINT_MISMATCH)

ENUMERATION_BUDGET = 1 << 24


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


def settuple_violation(n: int, sets) -> Optional[str]:
    """First violated run-decomposition condition, or None.

    Check order matters for failure classification: block sizes, cover,
    adjacent intersections, nonadjacent disjointness, then the alternating
    shared endpoints.
    """
    s = len(sets)
    if any(len(b) < 2 for b in sets):
        return SMALL_SET
    union = frozenset().union(*sets) if sets else frozenset()
    if union != frozenset(range(1, n + 1)) or sum(len(b) for b in sets) != n + s - 1:
        return COVER
    for i in range(s - 1):
        if len(sets[i] & sets[i + 1]) != 1:
            return ADJACENT_OVERLAP
    for gap in range(2, s):
        for i in range(s - gap):
            if sets[i] & sets[i + gap]:
                return NONADJACENT_OVERLAP if gap == 2 else FAR_OVERLAP
    for i in range(s - 1):
        (shared,) = sets[i] & sets[i + 1]
        pick = max if i % 2 == 0 else min
        if not pick(sets[i]) == pick(sets[i + 1]) == shared:
            return ENDPOINT_MISMATCH
    return None


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
    assert settuple_violation(n, sets) is None
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
    assert len(p) == t.n and count_runs(p) == len(t.sets) and p[0] < p[1]
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


def _reconstruct(n: int, tsets: tuple):
    """(failure, unions, deleted elements, choices, candidate sets)."""
    s = len(tsets)
    unions = tuple(tsets[i] | tsets[i + 1] for i in range(s - 1))
    if any(not u for u in unions):
        return EMPTY_UNION, unions, (), (), None
    # the shared element survives in exactly one neighbor, so it is still
    # the extreme element of the adjacent union
    deleted = tuple(
        max(unions[i]) if i % 2 == 0 else min(unions[i]) for i in range(s - 1)
    )
    choices = []
    work = [set(b) for b in tsets]
    for i, e in enumerate(deleted):
        lost = i + 1 if e in tsets[i] else i
        choices.append(lost + 1)
        work[lost].add(e)
    choices = tuple(choices)
    cand = tuple(frozenset(b) for b in work)
    return settuple_violation(n, cand), unions, deleted, choices, cand


def reconstruct(t: TTuple) -> Optional[tuple]:
    """(choice sequence, SetTuple) with phi mapping them back to t, or None.

    None is the normal outcome for tuples outside the image; the failure
    class is available from :func:`classify_failure` or the trace.
    """
    bad = ttuple_violation(t.n, t.sets)
    if bad is not None:
        raise ValueError(f"invalid block tuple: {bad}")
    failure, _, _, choices, cand = _reconstruct(t.n, t.sets)
    if failure is not None:
        return None
    result = (choices, SetTuple(t.n, cand))
    assert phi(choices, result[1]) == t
    return result


def classify_failure(t: TTuple) -> Optional[str]:
    """Failure class for t, or None when t has a preimage."""
    bad = ttuple_violation(t.n, t.sets)
    if bad is not None:
        raise ValueError(f"invalid block tuple: {bad}")
    return _reconstruct(t.n, t.sets)[0]


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
    """Failure class over bitmask blocks; mirrors the frozenset route."""
    unions = []
    for i in range(s - 1):
        u = masks[i] | masks[i + 1]
        if not u:
            return EMPTY_UNION
        unions.append(u)
    cand = list(masks)
    for i, u in enumerate(unions):
        bit = 1 << (u.bit_length() - 1) if i % 2 == 0 else u & -u
        cand[i + 1 if masks[i] & bit else i] |= bit
    for c in cand:
        if c.bit_count() < 2:
            return SMALL_SET
    # cover holds automatically: insertions only duplicate surviving bits.
    # Candidate i lies in T_{i-1} | T_i | T_{i+1} and adjacent candidates share
    # only the recovered e_i, so only blocks two apart can overlap.
    for i in range(s - 2):
        if cand[i] & cand[i + 2]:
            return NONADJACENT_OVERLAP
    for i in range(s - 1):
        shared = cand[i] & cand[i + 1]
        if i % 2 == 0:
            top = 1 << (cand[i].bit_length() - 1)
            if shared != top or cand[i].bit_length() != cand[i + 1].bit_length():
                return ENDPOINT_MISMATCH
        else:
            low = cand[i] & -cand[i]
            if shared != low or low != cand[i + 1] & -cand[i + 1]:
                return ENDPOINT_MISMATCH
    return None


def _block_masks(n: int, s: int):
    """All s**n ways to drop 1..n into s ordered blocks, as reused masks."""
    masks = [0] * s
    for assign in product(range(s), repeat=n):
        for b in range(s):
            masks[b] = 0
        for v, b in enumerate(assign):
            masks[b] |= 1 << v
        yield masks


class CensusResult(NamedTuple):
    successes: int
    total: int


def image_census(n: int, s: int, budget: int = ENUMERATION_BUDGET) -> CensusResult:
    """Count tuples with a preimage among all s**n block tuples.

    Asserts the exact identity successes == 2**(s-1) * P(n,s)/2 and the
    sandwich lower bound before returning.
    """
    if n < 2 or s < 1:
        raise ValueError("census needs n >= 2 and s >= 1")
    total = s**n
    if total > budget:
        raise ValueError(f"enumeration budget exceeded: {s}^{n} = {total} > {budget}")
    successes = 0
    for masks in _block_masks(n, s):
        if _mask_classify(masks, s) is None:
            successes += 1
    p = andre_triangle(n).value(n, s)
    assert p % 2 == 0
    assert successes == (p // 2) * 2 ** (s - 1)
    assert bonferroni_bound(n, s) <= successes <= total
    return CensusResult(successes, total)


def failure_census(n: int, s: int, budget: int = ENUMERATION_BUDGET) -> dict:
    """Tally of failure classes over all s**n block tuples (successes omitted)."""
    if n < 2 or s < 1:
        raise ValueError("census needs n >= 2 and s >= 1")
    if s**n > budget:
        raise ValueError(f"enumeration budget exceeded: {s}^{n} = {s**n} > {budget}")
    out = {}
    for masks in _block_masks(n, s):
        c = _mask_classify(masks, s)
        if c is not None:
            out[c] = out.get(c, 0) + 1
    return out


def bonferroni_bound(n: int, s: int) -> int:
    """Lower bound s**n - s(n+s)(s-1)**(n-1) for the census successes."""
    if n < 1 or s < 1:
        raise ValueError("bound needs n >= 1 and s >= 1")
    return s**n - s * (n + s) * (s - 1) ** (n - 1)
