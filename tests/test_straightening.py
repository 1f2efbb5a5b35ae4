import itertools
import random
import time

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from straightlaw import (
    EMPTY,
    IndexSet,
    LaplaceProduct,
    Minor,
    WordCombination,
    expand_laplace,
    expand_minor,
    is_good,
    leq,
    leq_pair,
    lt,
    merge_map,
    multiset_content,
    straighten_laplace,
    straighten_pair,
)

from conftest import all_subsets, size_matched_minors

index_sets = st.sets(st.integers(1, 8), max_size=6).map(IndexSet)

# straighten_pair returns words with unit factors dropped; padding with the
# unit minor restores both factors of each term.
UNIT = Minor(EMPTY, EMPTY)


def test_merge_map_examples():
    mm = merge_map(IndexSet([1, 3]), IndexSet([1, 2]))
    assert mm.size == 4
    assert mm.values == (1, 1, 2, 3)
    assert mm.first == IndexSet([1, 4])
    assert mm.second == IndexSet([2, 3])

    one_sided = merge_map(IndexSet([1, 2]), EMPTY)
    assert (one_sided.size, one_sided.values) == (2, (1, 2))
    assert one_sided.first == IndexSet([1, 2]) and one_sided.second == EMPTY

    tie = merge_map(IndexSet([1]), IndexSet([1]))
    assert tie.values == (1, 1)
    assert tie.first == IndexSet([1]) and tie.second == IndexSet([2])


@given(index_sets, index_sets)
def test_merge_map_structure(u1, u2):
    mm = merge_map(u1, u2)
    assert mm.size == len(u1) + len(u2)
    # order preserving, and the two position sets partition {1..k}
    assert list(mm.values) == sorted(mm.values)
    assert sorted(mm.first.elements + mm.second.elements) == list(range(1, mm.size + 1))
    # each side maps isomorphically onto its input set
    assert mm.image_set(mm.first) == u1 and mm.injective_on(mm.first)
    assert mm.image_set(mm.second) == u2 and mm.injective_on(mm.second)
    # on equal values the first-set copy comes first
    for a in mm.first:
        for b in mm.second:
            if mm.values[a - 1] == mm.values[b - 1]:
                assert a < b


@given(index_sets, index_sets, st.sets(st.integers(1, 16), max_size=8))
def test_merge_map_strict_image_drop(u1, u2, positions):
    # an injectively-mapped position set strictly below the first block has a
    # strictly smaller image
    mm = merge_map(u1, u2)
    positions = IndexSet(p for p in positions if p <= mm.size)
    if not mm.injective_on(positions):
        return
    if not lt(positions, mm.first):
        return
    assert lt(mm.image_set(positions), u1)


def test_straighten_laplace_identity_on_good_pairs():
    assert straighten_laplace(IndexSet([1]), IndexSet([1]), 2).items() == [
        ((IndexSet([1]), IndexSet([1])), 1)
    ]


def test_straighten_laplace_bad_singleton():
    combo = straighten_laplace(IndexSet([2]), IndexSet([2]), 2)
    assert combo.items() == [((IndexSet([1]), IndexSet([1])), 1)]
    assert combo.expand() == expand_laplace(LaplaceProduct([2], [2], 2))


def test_straighten_laplace_corner_n3():
    combo = straighten_laplace(IndexSet([3]), IndexSet([3]), 3)
    assert combo.expand() == expand_laplace(LaplaceProduct([3], [3], 3))
    for (a, b), _ in combo.items():
        assert is_good(a, 3) and is_good(b, 3)
        assert leq(a, IndexSet([3])) and leq(b, IndexSet([3]))


def test_straighten_laplace_zero_on_mismatch():
    assert not straighten_laplace(IndexSet([1]), IndexSet([1, 2]), 2)


def test_straighten_laplace_bounds():
    with pytest.raises(ValueError):
        straighten_laplace(IndexSet([3]), IndexSet([3]), 2)


def _bareiss_det(rows: list) -> int:
    """Exact determinant of a square integer matrix by fraction-free
    elimination."""
    m = [list(r) for r in rows]
    size, sign, prev = len(m), 1, 1
    for k in range(size - 1):
        pivot = next((i for i in range(k, size) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if size else 1


def _laplace_value(x: list, a: IndexSet, b: IndexSet, n: int) -> int:
    """The Laplace product (a, b) at the integer matrix x."""
    ac = [i for i in range(1, n + 1) if i not in a]
    bc = [j for j in range(1, n + 1) if j not in b]
    sign = -1 if (sum(a) + sum(b)) % 2 else 1
    return (sign * _bareiss_det([[x[i - 1][j - 1] for j in b] for i in a])
            * _bareiss_det([[x[i - 1][j - 1] for j in bc] for i in ac]))


def test_straighten_laplace_good_pair_at_large_ground_is_immediate():
    # A good pair is its own straightening; no table over the ground's
    # subsets may be built first (2^30 of them here).
    a = IndexSet(range(1, 16))
    b = IndexSet(range(1, 30, 2))
    start = time.perf_counter()
    combo = straighten_laplace(a, b, 30)
    assert time.perf_counter() - start < 1.0
    assert combo.items() == [((a, b), 1)]


def test_straighten_laplace_ground_16():
    # Near-full pairs at ground 16 reach few relations; the work must grow
    # with those, not with the 2^16 subsets of the ground. Checked by value
    # at a seeded integer matrix, since the expansions are out of reach.
    n = 16
    a, b = IndexSet(range(1, 15)), IndexSet(range(3, 17))
    start = time.perf_counter()
    combo = straighten_laplace(a, b, n)
    assert time.perf_counter() - start < 10.0
    assert len(combo) == 120
    rng = random.Random(16)
    x = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    total = 0
    for (u, w), coeff in combo.items():
        assert is_good(u, n) and is_good(w, n)
        assert leq(u, a) and leq(w, b)
        total += coeff * _laplace_value(x, u, w, n)
    assert total == _laplace_value(x, a, b, n)


def test_straighten_laplace_exhaustive_small():
    for n in range(1, 4):
        for k in range(0, n + 1):
            for a in (s for s in all_subsets(n) if len(s) == k):
                for b in (s for s in all_subsets(n) if len(s) == k):
                    combo = straighten_laplace(a, b, n)
                    assert combo.expand() == expand_laplace(LaplaceProduct(a, b, n))
                    for (u, w), coeff in combo.items():
                        assert is_good(u, n) and is_good(w, n)
                        assert leq(u, a) and leq(w, b)
                        assert coeff != 0


def _pair_key(f):
    return (f.rows, f.cols)


def test_straighten_pair_identity_when_ordered():
    f1, f2 = Minor([1], [1]), Minor([2], [2])
    assert straighten_pair(f1, f2) == WordCombination({(f1, f2): 1})


def test_straighten_pair_reversed_singletons():
    f1, f2 = Minor([2], [1]), Minor([1], [2])
    out = straighten_pair(f1, f2)
    assert out == WordCombination({
        (Minor([1], [1]), Minor([2], [2])): 1,
        (Minor([1, 2], [1, 2]), Minor(EMPTY, EMPTY)): -1,
    })
    assert out.expand() == expand_minor(f1) * expand_minor(f2)


def test_straighten_pair_zero_factor():
    assert not straighten_pair(Minor([1], [1, 2]), Minor([1], [1]))


def test_straighten_pair_bounds():
    with pytest.raises(ValueError):
        straighten_pair(Minor([3], [1]), Minor([1], [1]), m=2, n=2)


def test_straighten_pair_exhaustive_2x3():
    minors = size_matched_minors(2, 3)
    for f1 in minors:
        for f2 in minors:
            out = straighten_pair(f1, f2, m=2, n=3)
            assert out.expand() == expand_minor(f1) * expand_minor(f2), (f1, f2)
            rows_content = multiset_content([f1.rows, f2.rows])
            cols_content = multiset_content([f1.cols, f2.cols])
            noncomparable = not leq_pair(_pair_key(f1), _pair_key(f2))
            for word, _ in out.items():
                g1, g2 = (word + (UNIT, UNIT))[:2]
                assert multiset_content([g1.rows, g2.rows]) == rows_content
                assert multiset_content([g1.cols, g2.cols]) == cols_content
                if noncomparable:
                    assert leq_pair(_pair_key(g1), _pair_key(f1))
                    assert _pair_key(g1) != _pair_key(f1)
                    assert leq_pair(_pair_key(g1), _pair_key(g2))


def test_straighten_pair_random_3x4():
    rng = random.Random(11)
    minors = size_matched_minors(3, 4)
    for _ in range(300):
        f1, f2 = rng.choice(minors), rng.choice(minors)
        out = straighten_pair(f1, f2, m=3, n=4)
        assert out.expand() == expand_minor(f1) * expand_minor(f2), (f1, f2)
        rows_content = multiset_content([f1.rows, f2.rows])
        cols_content = multiset_content([f1.cols, f2.cols])
        for word, _ in out.items():
            g1, g2 = (word + (UNIT, UNIT))[:2]
            assert multiset_content([g1.rows, g2.rows]) == rows_content
            assert multiset_content([g1.cols, g2.cols]) == cols_content

