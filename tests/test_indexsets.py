import itertools
import pickle

import pytest

from straightlaw import (
    EMPTY,
    IndexSet,
    LaplaceCombination,
    complement,
    expand_laplace,
    is_good,
    laplace_expansion,
    laplace_sign,
    leq,
    lt,
    multiset_content,
    relation_fundamental,
    relation_inclusion_exclusion,
    straighten_laplace,
    subsets,
    subsets_between,
)
from straightlaw.indexsets import full_set

from conftest import all_subsets, tuple_complement, tuple_is_good, tuple_leq


def test_construction_sorts_and_validates():
    assert IndexSet([3, 1]).elements == (1, 3)
    assert IndexSet(()).elements == ()
    with pytest.raises(ValueError):
        IndexSet([0])
    with pytest.raises(ValueError):
        IndexSet([1, 1])
    with pytest.raises(ValueError):
        IndexSet([65])


def test_complement_examples():
    assert complement(IndexSet([1, 3]), 4) == IndexSet([2, 4])
    assert complement(EMPTY, 3) == IndexSet([1, 2, 3])
    assert complement(IndexSet([1, 2, 3]), 3) == EMPTY
    with pytest.raises(ValueError):
        complement(IndexSet([5]), 4)


def test_leq_examples():
    assert leq(IndexSet([1, 2]), IndexSet([2]))
    assert not leq(IndexSet([2]), IndexSet([1, 2]))
    assert leq(IndexSet([1, 3]), IndexSet([2, 3]))


def test_leq_is_a_partial_order():
    for n in (4, 6):
        sets = all_subsets(n)
        below = {s: [t for t in sets if leq(s, t)] for s in sets}
        for s in sets:
            assert s in below[s]
        for s in sets:
            for t in below[s]:
                if s in below[t]:
                    assert s == t
        for s in sets:
            reachable = set()
            for t in below[s]:
                reachable.update(below[t])
            assert reachable <= set(below[s])


def test_superset_implies_below():
    for n in range(1, 6):
        for t in all_subsets(n):
            for s in subsets_between(t, full_set(n)):
                assert leq(s, t)
                if s != t:
                    assert lt(s, t)


def test_is_good_examples():
    assert is_good(IndexSet([1]), 2)
    assert not is_good(IndexSet([2]), 2)
    for n in range(1, 6):
        assert not is_good(EMPTY, n)


def test_laplace_sign_examples():
    assert laplace_sign(IndexSet([1]), IndexSet([1])) == 1
    assert laplace_sign(IndexSet([2]), IndexSet([1])) == -1
    assert laplace_sign(EMPTY, EMPTY) == 1


def test_multiset_content_examples():
    assert multiset_content([IndexSet([1, 2]), IndexSet([2])]) == {1: 1, 2: 2}
    assert multiset_content([]) == {}
    assert multiset_content([IndexSet([1])] * 3) == {1: 3}


def test_subset_enumeration_helpers():
    assert sorted(s.elements for s in subsets(3)) == sorted(
        s.elements for s in all_subsets(3)
    )
    assert [s.elements for s in subsets(4, size=2)] == [
        c for c in itertools.combinations(range(1, 5), 2)
    ]
    between = list(subsets_between(IndexSet([2]), IndexSet([1, 2, 3])))
    assert IndexSet([2]) in between and IndexSet([1, 2, 3]) in between
    assert all(2 in v for v in between)
    assert len(between) == 4
    with pytest.raises(ValueError):
        list(subsets_between(IndexSet([4]), IndexSet([1, 2])))


def _tuples(n):
    return [c for r in range(n + 1) for c in itertools.combinations(range(1, n + 1), r)]


def test_order_complement_and_goodness_match_tuple_reference():
    # Exhaustive for n <= 8: the mask-based operations against the same
    # definitions written on sorted tuples.
    for n in range(0, 9):
        tuples = _tuples(n)
        sets = {t: IndexSet(t) for t in tuples}
        for t in tuples:
            s = sets[t]
            assert complement(s, n).elements == tuple_complement(t, n), (t, n)
            assert is_good(s, n) == tuple_is_good(t, n), (t, n)
            for u in tuples:
                assert leq(s, sets[u]) == tuple_leq(t, u), (t, u)


@pytest.mark.parametrize("elements, message", [
    ([0], "index must be a positive integer, got 0"),
    ([-2, 3], "index must be a positive integer, got -2"),
    ([True], "index must be a positive integer, got True"),
    ([1.5], "index must be a positive integer, got 1.5"),
    (["a"], "index must be a positive integer, got 'a'"),
    ([IndexSet([1])], "index must be a positive integer, got IndexSet(1)"),
    ([65], "index 65 exceeds the supported bound 64"),
    ([1, 1], "duplicate index 1"),
    ([4, 2, 4, 2], "duplicate index 2"),
    ([2, 70, 2], "index 70 exceeds the supported bound 64"),
    ([3, 0, 0], "index must be a positive integer, got 0"),
])
def test_construction_error_messages(elements, message):
    with pytest.raises(ValueError) as excinfo:
        IndexSet(elements)
    assert str(excinfo.value) == message


def test_an_int_is_not_read_as_a_mask():
    with pytest.raises(TypeError):
        IndexSet(5)
    assert str(IndexSet([3, 1])) == "{1,3}" and f"{IndexSet([3, 1])}" == "{1,3}"
    assert repr(IndexSet([3, 1])) == "IndexSet(1, 3)"
    assert len(IndexSet([1, 5, 64])) == 3 and list(IndexSet([5, 1])) == [1, 5]


def test_one_instance_per_set():
    assert IndexSet([2, 1]) is IndexSet((1, 2)) is complement(IndexSet([3]), 3)
    assert pickle.loads(pickle.dumps(IndexSet([4, 1]))) is IndexSet([1, 4])


def test_ground_error_messages():
    checks = [
        (lambda: complement(IndexSet([5]), 4), "element 5 exceeds ground bound 4"),
        (lambda: complement(EMPTY, 65), "index 65 exceeds the supported bound 64"),
        (lambda: list(subsets(66)), "index 65 exceeds the supported bound 64"),
        (lambda: expand_laplace([5], [1], 4), "element 5 exceeds ground size 4"),
        (lambda: expand_laplace([1], [1], 65), "ground size must be an integer in 0..64, got 65"),
        (lambda: LaplaceCombination(-1), "ground size must be an integer in 0..64, got -1"),
        (lambda: LaplaceCombination(2.0), "ground size must be an integer in 0..64, got 2.0"),
        (lambda: LaplaceCombination(4, {((1,), (6,)): 1}), "element 6 exceeds ground size 4"),
        (lambda: straighten_laplace([1], [7], 4), "element 7 exceeds ground size 4"),
        (lambda: relation_fundamental(EMPTY, IndexSet([5]), 4), "element 5 exceeds ground size 4"),
        (lambda: laplace_expansion(IndexSet([5]), 4), "element 5 exceeds ground size 4"),
        # the block builder trusts its caller, so the relation checks c itself
        (lambda: relation_inclusion_exclusion(IndexSet([1]), IndexSet([1, 2]), IndexSet([5]), 4),
         "element 5 exceeds ground size 4"),
    ]
    for call, message in checks:
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == message


def test_subsets_of_an_index_set_are_its_subsets():
    # An IndexSet is an int too; subsets() must not read it as a ground size.
    assert [s.elements for s in subsets(IndexSet([2, 3]))] == [(), (2,), (3,), (2, 3)]
    assert [s.elements for s in subsets(IndexSet([2, 3]), size=1)] == [(2,), (3,)]


def test_enumeration_keeps_combinations_order():
    # Within each size, itertools.combinations order of the free elements
    # (not colex order: for n=4, size 2, {1,4} comes before {2,3}).
    assert [s.elements for s in subsets(4, size=2)].index((1, 4)) == 2
    for n in range(0, 7):
        assert [s.elements for s in subsets(n)] == _tuples(n)
        for t in _tuples(n):
            free = tuple_complement(t, n)
            want = [tuple(sorted(t + extra)) for r in range(len(free) + 1)
                    for extra in itertools.combinations(free, r)]
            assert [s.elements for s in subsets_between(IndexSet(t), full_set(n))] == want
            for size in range(len(t), n + 1):
                assert [s.elements for s in subsets_between(IndexSet(t), full_set(n), size)] == [
                    w for w in want if len(w) == size
                ]
            upper = IndexSet(t)
            lower = IndexSet(t[::2])
            inner = [e for e in t if e not in lower]
            assert [s.elements for s in subsets_between(lower, upper)] == [
                tuple(sorted(lower.elements + extra))
                for r in range(len(inner) + 1) for extra in itertools.combinations(inner, r)
            ]
