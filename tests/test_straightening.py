import os
import random
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

from straightlaw import (
    EMPTY,
    IndexSet,
    Minor,
    WordCombination,
    complement,
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
    straightening,
)

from conftest import all_subsets, size_matched_minors, slow

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


def test_merge_map_masks_against_values():
    # injective_on and image_set work on masks; compare them with the values
    # at the positions, for every pair of sets in {1..4} and every position
    # set, injective or not
    for u1 in all_subsets(4):
        for u2 in all_subsets(4):
            mm = merge_map(u1, u2)
            assert mm.second == complement(mm.first, mm.size)
            for positions in all_subsets(mm.size):
                images = [mm.values[p - 1] for p in positions]
                assert mm.injective_on(positions) == (len(set(images)) == len(images))
                assert set(mm.image_set(positions).elements) == set(images)


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
    assert combo.expand() == expand_laplace([2], [2], 2)


def test_straighten_laplace_corner_n3():
    combo = straighten_laplace(IndexSet([3]), IndexSet([3]), 3)
    assert combo.expand() == expand_laplace([3], [3], 3)
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
                    assert combo.expand() == expand_laplace(a, b, n)
                    for (u, w), coeff in combo.items():
                        assert is_good(u, n) and is_good(w, n)
                        assert leq(u, a) and leq(w, b)
                        assert coeff != 0


def _size_matched_pairs(n: int) -> list:
    subsets = all_subsets(n)
    return [(a, b) for a in subsets for b in subsets if len(a) == len(b)]


def test_straighten_laplace_survives_a_cleared_cache(monkeypatch):
    # Results are summed as packed ints over per-ground slot registries that
    # outlive the cache; a fresh cache must rebuild the same combinations.
    pairs = _size_matched_pairs(5)
    before = [straighten_laplace(a, b, 5) for a, b in pairs]
    monkeypatch.setattr(straightening, "_STRAIGHTEN_CACHE", {})
    half = len(pairs) // 2
    after = [straighten_laplace(a, b, 5) for a, b in pairs[:half]]
    monkeypatch.setattr(straightening, "_STRAIGHTEN_CACHE", {})
    after += [straighten_laplace(a, b, 5) for a, b in pairs[half:]]
    assert after == before


def test_slot_registry_holds_each_good_pair_once(monkeypatch):
    # Every decoded result takes its keys from the slot -> (u, w) list, so
    # after a cold sweep each slot must hold a distinct good pair whose code
    # maps back to it.
    monkeypatch.setattr(straightening, "_STRAIGHTEN_CACHE", {})
    monkeypatch.setattr(straightening, "_SUPERSET_SUMS", {})
    monkeypatch.setattr(straightening, "_SLOTS", defaultdict(lambda: ({}, [])))
    for n in range(7):
        for a, b in _size_matched_pairs(n):
            straighten_laplace(a, b, n)
        slot_of, pairs = straightening._SLOTS[n]
        assert pairs and len(set(pairs)) == len(pairs) == len(slot_of)
        for i, (u, w) in enumerate(pairs):
            assert is_good(u, n) and is_good(w, n)
            assert slot_of[u | w << n] == i


def test_results_do_not_share_their_terms():
    a, b, n = IndexSet([4, 5]), IndexSet([4, 5]), 5
    first, second = straighten_laplace(a, b, n), straighten_laplace(a, b, n)
    assert first == second and first._terms is not second._terms
    first._terms.clear()
    assert straighten_laplace(a, b, n) == second and second._terms


def test_inclusion_exclusion_blocks_meet_the_solver_precondition(monkeypatch):
    # A pair with 2|a| >= n and a bad column set b is solved from
    # inclusion_exclusion_blocks(a, d, c, n). _solve needs every column set
    # of those blocks distinct, b among them once with the row sets (a,),
    # and every other column set strictly below b.
    solve = straightening._solve
    seen = set()

    def spy(a, b, blocks, n):
        if 2 * len(a) >= n:
            columns = [w for _, ws, _ in blocks for w in ws]
            assert len(set(columns)) == len(columns), (a, b)
            assert [us for us, ws, _ in blocks if b in ws] == [(a,)], (a, b)
            assert all(lt(w, b) for w in columns if w != b), (a, b)
            seen.add((a, b, n))
        return solve(a, b, blocks, n)

    monkeypatch.setattr(straightening, "_solve", spy)
    for n in range(1, 7):
        monkeypatch.setattr(straightening, "_STRAIGHTEN_CACHE", {})
        monkeypatch.setattr(straightening, "_SUPERSET_SUMS", {})
        pairs = _size_matched_pairs(n)
        for a, b in pairs:
            straighten_laplace(a, b, n)
        assert {(a, b) for a, b, m in seen if m == n} == {
            (a, b) for a, b in pairs if 2 * len(a) >= n and not is_good(b, n)}


@slow
def test_straighten_laplace_n8_stays_inside_32_bit_fields(monkeypatch):
    # Every size-matched pair at ground 8, from cold caches, checked by value
    # at a seeded integer matrix. Every bound a packed sum is checked against
    # must stay below 2**31, the limit of the 32-bit fields (47,163 here).
    n = 8
    bounds = []
    checked = straightening._checked

    def spy(bound, *args):
        bounds.append(bound)
        checked(bound, *args)

    monkeypatch.setattr(straightening, "_checked", spy)
    monkeypatch.setattr(straightening, "_STRAIGHTEN_CACHE", {})
    monkeypatch.setattr(straightening, "_SUPERSET_SUMS", {})
    pairs = _size_matched_pairs(n)
    assert len(pairs) == 12870
    rng = random.Random(8)
    x = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    value = {(a, b): _laplace_value(x, a, b, n) for a, b in pairs}
    for a, b in pairs:
        combo = straighten_laplace(a, b, n)
        assert sum(coeff * value[key] for key, coeff in combo.items()) == value[(a, b)]
    assert bounds and max(bounds) < 2 ** 31


_SWEEP_N5 = """
import itertools, sys
from straightlaw import IndexSet, straighten_laplace
subsets = [IndexSet(c) for r in range(6) for c in itertools.combinations(range(1, 6), r)]
pairs = [(a, b) for a in subsets for b in subsets if len(a) == len(b)]
order = pairs[::-1] if sys.argv[1] == "reverse" else pairs
results = {pair: straighten_laplace(*pair, 5).items() for pair in order}
print([results[pair] for pair in pairs])
"""


def test_straighten_laplace_does_not_depend_on_slot_order():
    # Slots are numbered in the order good pairs are first reached, so a
    # sweep in reverse order numbers them differently; the results match.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    outputs = [
        subprocess.run([sys.executable, "-c", _SWEEP_N5, order], capture_output=True,
                       text=True, check=True, env=env).stdout
        for order in ("forward", "reverse")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0] == str([straighten_laplace(a, b, 5).items() for a, b in _size_matched_pairs(5)]) + "\n"


def test_straighten_laplace_transposed_branch_is_the_swapped_transpose():
    # Only the row set bad, on a pair that is not small: the result is the
    # straightening of the transpose with each pair's sets swapped back.
    checked = 0
    for n in range(1, 7):
        for a, b in _size_matched_pairs(n):
            if 2 * len(a) >= n and is_good(b, n) and not is_good(a, n):
                swapped = sorted(((w, u), c) for (u, w), c in straighten_laplace(b, a, n).items())
                assert sorted(straighten_laplace(a, b, n).items()) == swapped
                checked += 1
    assert checked > 100


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


def test_straighten_pair_swaps_a_pair_that_is_only_out_of_order(monkeypatch):
    # Minors commute, so when the second factor is below the first the
    # swapped word is standard, and it is the pair's only standard form; it
    # is returned without a Laplace straightening.
    def refused(*args):
        raise AssertionError("straighten_laplace called")

    monkeypatch.setattr(straightening, "straighten_laplace", refused)
    uncached = straighten_pair.__wrapped__
    swapped = 0
    minors = size_matched_minors(3, 3) + [Minor(range(7, 13), range(7, 13)), Minor(range(1, 7), range(1, 7))]
    for f1 in minors:
        for f2 in minors:
            if leq_pair(f2, f1) and not leq_pair(f1, f2):
                out = uncached(f1, f2)
                assert out == WordCombination({(f2, f1): 1})
                swapped += 1
    assert swapped > 100


def test_straighten_pair_zero_factor():
    assert not straighten_pair(Minor([1], [1, 2]), Minor([1], [1]))


def test_straighten_pair_exhaustive_2x3():
    minors = size_matched_minors(2, 3)
    for f1 in minors:
        for f2 in minors:
            out = straighten_pair(f1, f2)
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
        out = straighten_pair(f1, f2)
        assert out.expand() == expand_minor(f1) * expand_minor(f2), (f1, f2)
        rows_content = multiset_content([f1.rows, f2.rows])
        cols_content = multiset_content([f1.cols, f2.cols])
        for word, _ in out.items():
            g1, g2 = (word + (UNIT, UNIT))[:2]
            assert multiset_content([g1.rows, g2.rows]) == rows_content
            assert multiset_content([g1.cols, g2.cols]) == cols_content

