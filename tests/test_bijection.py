import tracemalloc
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from altruns.bijection import (
    EMPTY_UNION,
    ENDPOINT_MISMATCH,
    FAILURE_CLASSES,
    NONADJACENT_OVERLAP,
    SMALL_SET,
    CensusResult,
    SetTuple,
    TTuple,
    _block_masks,
    _mask_classify,
    bonferroni_bound,
    classify_failure,
    failure_census,
    image_census,
    permutation_to_settuple,
    phi,
    reconstruct,
    reconstruct_trace,
    settuple_to_permutation,
    settuple_violation,
    ttuple_violation,
)
from altruns.run_counts import andre_triangle


def fs(*values):
    return frozenset(values)


def test_permutation_to_settuple_examples():
    st_ = permutation_to_settuple((1, 3, 2))
    assert st_.sets == (fs(1, 3), fs(2, 3))
    st_ = permutation_to_settuple((2, 3, 7, 5, 1, 4, 6, 8))
    assert st_.sets == (fs(2, 3, 7), fs(1, 5, 7), fs(1, 4, 6, 8))
    st_ = permutation_to_settuple(tuple(range(1, 6)))
    assert st_.sets == (fs(1, 2, 3, 4, 5),)


def test_permutation_to_settuple_rejects():
    with pytest.raises(ValueError, match="first-run-up convention violated"):
        permutation_to_settuple((2, 1))
    with pytest.raises(ValueError, match="first-run-up convention violated"):
        permutation_to_settuple((3, 1, 2))
    with pytest.raises(ValueError):
        permutation_to_settuple((1,))
    with pytest.raises(ValueError):
        permutation_to_settuple((1, 1, 2))


def test_settuple_roundtrip_all_n5():
    for p in permutations(range(1, 6)):
        if p[0] > p[1]:
            continue
        assert settuple_to_permutation(permutation_to_settuple(p)) == p


def test_settuple_to_permutation_rejects():
    with pytest.raises(ValueError, match="small_set"):
        settuple_to_permutation(SetTuple(3, (fs(1, 2, 3), fs(3))))
    with pytest.raises(ValueError, match="cover"):
        settuple_to_permutation(SetTuple(4, (fs(1, 2), fs(2, 3))))
    with pytest.raises(ValueError, match="endpoint_mismatch"):
        settuple_to_permutation(SetTuple(4, (fs(1, 3), fs(2, 3, 4))))


def test_settuple_violation_order():
    # adjacent blocks sharing nothing (element totals and cover still fine)
    assert settuple_violation(6, (fs(1, 2, 3), fs(4, 5), fs(4, 5, 6))) == "adjacent_overlap"
    # blocks two apart sharing an element, everything earlier in order
    bad = (fs(1, 4), fs(4, 5), fs(2, 3, 4))
    assert settuple_violation(5, bad) == NONADJACENT_OVERLAP
    # element counts right but one value repeated, another missing
    assert settuple_violation(4, (fs(1, 2), fs(2, 5))) == "cover"


def test_phi_examples():
    st_ = SetTuple(3, (fs(1, 3), fs(2, 3)))
    assert phi((1,), st_).sets == (fs(1), fs(2, 3))
    assert phi((2,), st_).sets == (fs(1, 3), fs(2))
    single = SetTuple(2, (fs(1, 2),))
    assert phi((), single).sets == (fs(1, 2),)


def test_phi_rejects():
    st_ = SetTuple(3, (fs(1, 3), fs(2, 3)))
    with pytest.raises(ValueError):
        phi((), st_)
    with pytest.raises(ValueError):
        phi((3,), st_)
    with pytest.raises(ValueError):
        phi((1,), SetTuple(3, (fs(1), fs(2, 3))))


def test_reconstruct_examples():
    found = reconstruct(TTuple(3, (fs(1), fs(2, 3))))
    assert found == ((1,), SetTuple(3, (fs(1, 3), fs(2, 3))))
    assert reconstruct(TTuple(3, (fs(1, 2, 3), fs()))) is None
    assert classify_failure(TTuple(3, (fs(1, 2, 3), fs()))) == SMALL_SET
    # the image of 1 3 2 4 under h = (2, 3), though its union {2,4} is small
    found = reconstruct(TTuple(4, (fs(1, 3), fs(2), fs(4))))
    assert found == ((2, 3), SetTuple(4, (fs(1, 3), fs(2, 3), fs(2, 4))))
    assert found[1] == permutation_to_settuple((1, 3, 2, 4))


def test_reconstruct_validates_input():
    with pytest.raises(ValueError, match="overlap"):
        reconstruct(TTuple(3, (fs(1, 2), fs(2, 3))))
    with pytest.raises(ValueError, match="cover"):
        reconstruct(TTuple(4, (fs(1, 2), fs(3))))


def test_empty_union_class():
    t = TTuple(4, (fs(1, 2), fs(), fs(), fs(3, 4)))
    assert classify_failure(t) == EMPTY_UNION
    tr = reconstruct_trace(t)
    assert tr.failure == EMPTY_UNION
    assert tr.deleted == () and tr.candidate is None


def test_endpoint_mismatch_class():
    t = TTuple(6, (fs(1, 2, 3), fs(), fs(4, 5, 6)))
    assert reconstruct(t) is None
    assert classify_failure(t) == ENDPOINT_MISMATCH
    tr = reconstruct_trace(t)
    assert tr.candidate.sets == (fs(1, 2, 3), fs(3, 4), fs(4, 5, 6))
    assert tr.deleted == (3, 4)


def test_genuine_image_with_tiny_union():
    st_ = SetTuple(5, (fs(1, 3), fs(2, 3), fs(2, 5), fs(4, 5)))
    assert settuple_violation(5, st_.sets) is None
    image = phi((2, 2, 3), st_)
    assert image.sets == (fs(1, 3), fs(), fs(2), fs(4, 5))
    assert reconstruct(image) == ((2, 2, 3), st_)


def test_trace_success_fields():
    tr = reconstruct_trace(TTuple(3, (fs(1), fs(2, 3))))
    assert tr.unions == (fs(1, 2, 3),)
    assert tr.deleted == (3,)
    assert tr.choices == (1,)
    assert tr.failure is None
    assert tr.preimage == ((1,), SetTuple(3, (fs(1, 3), fs(2, 3))))


def test_roundtrip_exhaustive_small():
    for n in range(2, 7):
        for p in permutations(range(1, n + 1)):
            if p[0] > p[1]:
                continue
            st_ = permutation_to_settuple(p)
            s = len(st_.sets)
            for h in product(*[(i + 1, i + 2) for i in range(s - 1)]):
                assert reconstruct(phi(h, st_)) == (h, st_)


def test_injectivity_n5():
    seen = {}
    for p in permutations(range(1, 6)):
        if p[0] > p[1]:
            continue
        st_ = permutation_to_settuple(p)
        s = len(st_.sets)
        for h in product(*[(i + 1, i + 2) for i in range(s - 1)]):
            image = phi(h, st_)
            assert image not in seen, (seen[image], (h, st_))
            seen[image] = (h, st_)
    assert len(seen) == sum(
        (andre_triangle(5).value(5, s) // 2) * 2 ** (s - 1) for s in range(1, 5)
    )


@given(st.integers(2, 8).flatmap(lambda n: st.permutations(tuple(range(1, n + 1)))),
       st.data())
def test_roundtrip_property(p, data):
    if p[0] > p[1]:
        p = tuple(len(p) + 1 - v for v in p)  # complement flips the first run up
    st_ = permutation_to_settuple(p)
    s = len(st_.sets)
    h = tuple(data.draw(st.sampled_from((i + 1, i + 2))) for i in range(s - 1))
    assert reconstruct(phi(h, st_)) == (h, st_)


@given(st.integers(2, 8), st.data())
def test_mask_classifier_matches_sets(n, data):
    s = data.draw(st.integers(1, 5))
    assign = data.draw(st.tuples(*[st.integers(0, s - 1)] * n))
    masks = [0] * s
    blocks = [set() for _ in range(s)]
    for v, b in enumerate(assign):
        masks[b] |= 1 << v
        blocks[b].add(v + 1)
    t = TTuple(n, tuple(frozenset(b) for b in blocks))
    expected = classify_failure(t)
    assert _mask_classify(masks, s) == expected


def test_image_census_cells():
    assert image_census(2, 1) == CensusResult(1, 1)
    assert image_census(3, 2) == CensusResult(4, 8)
    assert image_census(5, 4) == CensusResult(128, 1024)
    assert image_census(6, 3) == CensusResult(472, 729)
    assert image_census(4, 5) == CensusResult(0, 625)


def test_image_census_budget():
    with pytest.raises(ValueError, match="budget"):
        image_census(25, 2)
    with pytest.raises(ValueError, match="budget"):
        image_census(8, 3, budget=100)
    with pytest.raises(ValueError):
        image_census(1, 1)


def test_failure_census_frozen_cells():
    assert failure_census(6, 3) == {
        EMPTY_UNION: 2,
        SMALL_SET: 252,
        ENDPOINT_MISMATCH: 3,
    }
    assert failure_census(8, 3)[ENDPOINT_MISMATCH] == 5
    tally = failure_census(3, 2)
    assert tally == {SMALL_SET: 4}
    assert set(failure_census(6, 4)) <= set(FAILURE_CLASSES)


def test_failure_census_totals():
    for n, s in ((4, 2), (5, 3), (6, 4), (7, 3)):
        tally = failure_census(n, s)
        successes = image_census(n, s).successes
        assert successes + sum(tally.values()) == s**n


def test_sufficiency_of_large_blocks():
    # every tuple whose blocks all have two or more elements reconstructs
    for n, s in ((4, 2), (5, 2), (6, 2), (6, 3)):
        for masks in _block_masks(n, s):
            if all(m.bit_count() >= 2 for m in masks):
                assert _mask_classify(masks, s) is None


def test_nonadjacent_overlap_never_surfaces():
    # a gap-2 overlap forces a singleton block, which is reported first
    for n, s in ((5, 3), (6, 3), (6, 4), (7, 4)):
        assert NONADJACENT_OVERLAP not in failure_census(n, s)


def test_bonferroni_values():
    assert bonferroni_bound(3, 2) == 2**3 - 2 * 5 * 1
    assert bonferroni_bound(5, 4) == -1892
    assert bonferroni_bound(10, 2) == 2**10 - 2 * 12
    assert bonferroni_bound(2, 1) == 1
    with pytest.raises(ValueError):
        bonferroni_bound(0, 2)


def test_ttuple_violation():
    assert ttuple_violation(3, (fs(1, 2), fs(3))) is None
    assert ttuple_violation(3, (fs(1, 2), fs(2, 3))) == "overlap"
    assert ttuple_violation(4, (fs(1, 2), fs(3))) == "cover"


def test_ttuple_violation_cost_is_independent_of_the_largest_element():
    tracemalloc.start()
    try:
        verdict = ttuple_violation(10**9, (fs(1), fs(10**9)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict == "cover"
    assert peak < 1 << 20


def _ttuple_violation_by_sets(n, sets):
    seen = set()
    for b in sets:
        if b & seen:
            return "overlap"
        seen |= b
    return None if seen == set(range(1, n + 1)) else "cover"


@st.composite
def near_partitions(draw):
    """1..n dropped into blocks, then maybe one element added or removed."""
    n = draw(st.integers(0, 8))
    k = draw(st.integers(1, 4))
    blocks = [set() for _ in range(k)]
    for v in range(1, n + 1):
        blocks[draw(st.integers(0, k - 1))].add(v)
    edit = draw(st.sampled_from(("none", "add", "drop")))
    target = blocks[draw(st.integers(0, k - 1))]
    if edit == "add":
        target.add(draw(st.integers(-1, n + 2)))
    elif edit == "drop":
        target.discard(draw(st.integers(1, max(n, 1))))
    return n, tuple(frozenset(b) for b in blocks)


@given(
    st.one_of(
        near_partitions(),
        st.tuples(
            st.integers(0, 8),
            st.lists(st.frozensets(st.integers(-2, 10), max_size=5), max_size=5).map(tuple),
        ),
    )
)
def test_ttuple_violation_matches_set_definition(case):
    n, sets = case
    assert ttuple_violation(n, sets) == _ttuple_violation_by_sets(n, sets)
