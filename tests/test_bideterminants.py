import copy
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from straightlaw import (
    EMPTY,
    IndexSet,
    LaplaceCombination,
    Minor,
    Polynomial,
    RELATION_FAMILIES,
    check_relation,
    eval_on_permutation,
    expand_laplace,
    expand_minor,
    exponents,
    integer_rank,
    laplace_expansion,
    relation_complementary,
    relation_family,
    relation_fundamental,
    relation_inclusion_exclusion,
    xvar,
)
from straightlaw import bideterminants
from straightlaw.bideterminants import (
    _avoiding_231,
    _good_pairs,
    _matching_perms_cached,
    _prove_basis,
    _sigma_basis,
    superset_blocks,
)

from conftest import (
    all_subsets,
    cofactor_expand,
    evaluate,
    inversion_sign,
    masked_determinant,
    sigma_reference,
)


def _perms(n):
    return list(itertools.permutations(range(1, n + 1)))


def test_minor_is_the_tuple_of_its_index_sets():
    for r, c in (([], []), ([2], []), ([1, 3], [2, 4])):
        pair = (IndexSet(r), IndexSet(c))
        minor = Minor(r, c)
        assert minor == pair and hash(minor) == hash(pair)
        assert Minor(tuple(r), tuple(c)) == Minor(*pair) == minor
        assert (minor.rows, minor.cols) == pair
        for clone in (copy.copy(minor), pickle.loads(pickle.dumps(minor))):
            assert type(clone) is Minor and clone == minor
        assert not hasattr(minor, "__dict__")
    assert repr(Minor([1, 3], [2, 4])) == "Minor(IndexSet(1, 3), IndexSet(2, 4))"
    assert str(Minor([1, 3], [2, 4])) == "[1 3|2 4]"
    assert (repr(Minor([], [])), str(Minor([], []))) == ("Minor(IndexSet(), IndexSet())", "[|]")
    assert (repr(Minor([2], [])), str(Minor([2], []))) == ("Minor(IndexSet(2), IndexSet())", "[2|]")


def test_expand_minor_examples():
    assert expand_minor(Minor([1], [2])) == Polynomial.var(xvar(1, 2))
    x = lambda i, j: Polynomial.var(xvar(i, j))
    assert expand_minor(Minor([1, 2], [1, 2])) == x(1, 1) * x(2, 2) - x(1, 2) * x(2, 1)
    assert expand_minor(Minor([1], [1, 2])) == 0
    assert expand_minor(Minor(EMPTY, EMPTY)) == 1


def test_expand_minor_matches_cofactor_expansion():
    for m, n in [(3, 3), (4, 4), (3, 4)]:
        for k in range(0, min(m, n) + 1):
            for a in itertools.combinations(range(1, m + 1), k):
                for b in itertools.combinations(range(1, n + 1), k):
                    assert expand_minor(Minor(a, b)) == cofactor_expand(a, b)


def test_expand_minor_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rows, cols = (1, 3, 4), (2, 3, 4)
    mat = sympy.Matrix([[sympy.Symbol(f"x_{i}_{j}") for j in cols] for i in rows])
    mine = expand_minor(Minor(rows, cols))
    converted = sum(
        coeff * sympy.prod([sympy.Symbol(f"x_{v[1]}_{v[2]}") ** e for v, e in exponents(mono).items()])
        for mono, coeff in mine.items()
    )
    assert sympy.expand(mat.det() - converted) == 0


def test_expand_laplace_examples():
    x = lambda i, j: Polynomial.var(xvar(i, j))
    assert expand_laplace([1], [1], 2) == x(1, 1) * x(2, 2)
    assert expand_laplace([2], [1], 2) == -(x(2, 1) * x(1, 2))
    assert expand_laplace([1], [1, 2], 2) == 0


def test_expand_laplace_is_the_masked_determinant():
    for n in range(0, 4):
        for a in all_subsets(n):
            for b in all_subsets(n):
                if len(a) != len(b):
                    continue
                assert expand_laplace(a, b, n) == masked_determinant(a, b, n), (a, b, n)


def test_eval_on_permutation_examples():
    swap = (2, 1)
    assert eval_on_permutation([1], [2], swap) == -1
    assert eval_on_permutation([1], [1], swap) == 0
    with pytest.raises(ValueError):
        eval_on_permutation([1], [1], (1, 1))


def test_eval_on_permutation_agrees_with_substituted_expansion():
    for n in range(1, 5):
        sets = all_subsets(n)
        for sigma in _perms(n):
            values = {
                xvar(i, j): 1 if sigma[i - 1] == j else 0
                for i in range(1, n + 1)
                for j in range(1, n + 1)
            }
            for a in sets:
                for b in sets:
                    if len(a) != len(b):
                        continue
                    assert eval_on_permutation(a, b, sigma) == evaluate(expand_laplace(a, b, n), values)


def test_combination_drops_zero_and_mismatched_terms():
    combo = LaplaceCombination(2, {
        (IndexSet([1]), IndexSet([1])): 2,
        (IndexSet([1]), IndexSet([1, 2])): 5,  # size mismatch: never stored
        (IndexSet([2]), IndexSet([2])): 0,
    })
    assert len(combo) == 1
    assert combo.coefficient([1], [1]) == 2
    assert combo.coefficient([1], [1, 2]) == 0


def test_check_relation_examples():
    rel = LaplaceCombination(2, {
        (EMPTY, EMPTY): 1,
        (IndexSet([1]), IndexSet([1])): -1,
        (IndexSet([2]), IndexSet([1])): -1,
    })
    assert check_relation(rel)
    assert not check_relation(LaplaceCombination(2, {(IndexSet([1]), IndexSet([1])): 1}))
    assert check_relation(LaplaceCombination(2))


def test_every_check_proves_its_basis(monkeypatch):
    # The proof runs on a check of any combination, the empty one included:
    # a basis that does not span must raise, not pass.
    monkeypatch.setattr(bideterminants, "_avoiding_231", lambda n: [tuple(range(n))] * _catalan(n))
    bideterminants._sigma_basis.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="^sigma basis at ground 3 is not independent over GF"):
            check_relation(LaplaceCombination(3))
    finally:
        bideterminants._sigma_basis.cache_clear()


def test_check_relation_refuses_large_ground():
    with pytest.raises(ValueError):
        check_relation(LaplaceCombination(9, {(IndexSet([1]), IndexSet([1])): 1}))


def test_check_relation_iff_zero_polynomial():
    # Both directions, on random combinations.
    rng = random.Random(7)
    for n in (2, 3, 4):
        sets = all_subsets(n)
        for _ in range(40):
            terms = {}
            for _ in range(rng.randrange(0, 5)):
                a = rng.choice(sets)
                b = rng.choice([t for t in sets if len(t) == len(a)])
                terms[(a, b)] = terms.get((a, b), 0) + rng.randrange(-2, 3)
            combo = LaplaceCombination(n, terms)
            assert check_relation(combo) == (combo.expand() == 0)
        # integer combinations of generated relations stay relations
        for _ in range(10):
            acc = {}
            for _ in range(3):
                a, b = rng.choice(sets), rng.choice(sets)
                c = rng.randrange(-2, 3)
                for key, v in relation_fundamental(a, b, n).items():
                    acc[key] = acc.get(key, 0) + c * v
            mixed = LaplaceCombination(n, acc)
            assert check_relation(mixed)
            assert mixed.expand() == 0


def _perturbed(rel, pos, delta=1):
    return LaplaceCombination(rel.ground, [
        (key, c + delta if i == pos else c) for i, (key, c) in enumerate(rel.items())
    ])


def test_check_relation_matches_summed_evaluations():
    # Every family instance at n <= 4 passes both the permutation criterion
    # and the reference that sums eval_on_permutation over all of S_n; adding
    # 1 to one coefficient (every coefficient for n <= 3, one seeded pick at
    # n = 4) must be refused by both.
    rng = random.Random(11)
    for n in range(1, 5):
        for family in RELATION_FAMILIES:
            for label, rel in relation_family(n, family):
                assert check_relation(rel) and sigma_reference(rel), (n, family, label)
                if not rel:
                    continue
                picks = range(len(rel)) if n <= 3 else [rng.randrange(len(rel))]
                for pos in picks:
                    changed = _perturbed(rel, pos)
                    assert not check_relation(changed), (n, family, label, pos)
                    assert not sigma_reference(changed), (n, family, label, pos)


def test_check_relation_separates_every_two_products():
    # p - q for two Laplace products: the criterion must agree with the
    # summed evaluations for every pair of pairs at n <= 3 and a seeded
    # sample at n = 4, so no two permutations may share a sum slot.
    rng = random.Random(12)
    for n in range(1, 5):
        pairs = [(a, b) for a in all_subsets(n) for b in all_subsets(n) if len(a) == len(b)]
        combos = [(p, q) for p in pairs for q in pairs]
        if n == 4:
            combos = rng.sample(combos, 400)
        for p, q in combos:
            rel = LaplaceCombination(n, {p: 1, q: -1} if p != q else {})
            assert check_relation(rel) == sigma_reference(rel), (p, q)


def test_check_relation_above_the_cached_grounds():
    # Ground sizes 7 and 8 take the same cached rank lists as smaller grounds.
    rel7 = laplace_expansion(IndexSet([2]), 7)
    assert check_relation(rel7) and sigma_reference(rel7)
    assert not check_relation(_perturbed(rel7, 3)) and not sigma_reference(_perturbed(rel7, 3))
    rel8 = laplace_expansion(IndexSet([1, 8]), 8, side="rows")
    assert check_relation(rel8)
    assert not check_relation(_perturbed(rel8, 0, -2))
    with pytest.raises(ValueError, match="refused for ground size 9 > 8"):
        check_relation(LaplaceCombination(9, {(IndexSet([1]), IndexSet([1])): 1}))


def test_check_relation_coefficient_limit():
    # Packed 32-bit fields decide exactly while the sum of |coeff| stays
    # below 2**31; at or above it the check refuses.
    rel = relation_complementary(IndexSet([1]), IndexSet([2]), 4)
    weight = sum(abs(c) for _, c in rel.items())
    k = (2 ** 31 - 1) // weight
    assert 2 ** 31 - weight <= k * weight < 2 ** 31
    scaled = {key: k * c for key, c in rel.items()}
    assert check_relation(LaplaceCombination(4, scaled))
    key, c = rel.items()[0]
    moved = {**scaled, key: k * c - (1 if c > 0 else -1)}
    assert not check_relation(LaplaceCombination(4, moved))
    over = {key: (k + 1) * c for key, c in rel.items()}
    with pytest.raises(ValueError, match=r"^permutation criterion refused for a coefficient sum \d+ >= 2\*\*31$"):
        check_relation(LaplaceCombination(4, over))
    one = (IndexSet([1]), IndexSet([2]))
    assert not check_relation(LaplaceCombination(2, {one: 2 ** 31 - 1}))
    with pytest.raises(ValueError, match="2147483648 >= 2"):
        check_relation(LaplaceCombination(2, {one: -2 ** 31}))


def test_check_relation_reuses_ranks_at_ground_seven():
    rel = laplace_expansion(IndexSet([2]), 7)
    assert check_relation(rel)
    before = _matching_perms_cached.cache_info()
    assert check_relation(rel)
    after = _matching_perms_cached.cache_info()
    assert after.misses == before.misses
    assert after.hits - before.hits == len(rel)


def _catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_sigma_basis_has_catalan_size():
    for n in range(0, 9):
        perms = _avoiding_231(n)
        assert len(perms) == len(set(perms)) == len(_good_pairs(n)) == _catalan(n), n
        assert _sigma_basis(n)[0] == _catalan(n)
        if n <= 6:
            assert all(sorted(p) == list(range(n)) for p in perms)
            # no positions i < j < k with p[k] < p[i] < p[j]
            assert not any(p[k] < p[i] < p[j] for p in perms
                           for i, j, k in itertools.combinations(range(n), 3))


def _evaluation_rows(perms, n):
    """Rows of the evaluation matrix: for each permutation (0-based values),
    sign * 1 in the column (a, image of a) of every position set a."""
    rows = []
    for perm in perms:
        sign = inversion_sign(perm)
        row = {}
        for a in all_subsets(n):
            image = IndexSet(perm[i - 1] + 1 for i in a)
            row[(a, image)] = sign
        rows.append(row)
    return rows


def test_sigma_basis_spans_every_permutation():
    # The exact rank over all n! rows equals that of the basis rows alone,
    # so both matrices have the same kernel.
    for n in range(0, 7):
        full = integer_rank(_evaluation_rows(itertools.permutations(range(n)), n))
        assert integer_rank(_evaluation_rows(_avoiding_231(n), n)) == full == _catalan(n), n


def test_tampered_basis_fails_the_proof():
    perms = _avoiding_231(5)
    _prove_basis(perms, 5)
    with pytest.raises(RuntimeError, match="not independent"):
        _prove_basis(perms[:-1] + perms[:1], 5)
    with pytest.raises(RuntimeError, match="43 permutations for 42 good pairs"):
        _prove_basis(perms + perms[:1], 5)
    with pytest.raises(RuntimeError, match="non-permutation"):
        _prove_basis(perms[:-1] + [(0, 0, 1, 2, 3)], 5)


def test_basis_proof_survives_python_O():
    code = ("from straightlaw.bideterminants import _avoiding_231, _prove_basis\n"
            "perms = _avoiding_231(4)\n"
            "try:\n    _prove_basis(perms[:-1] + perms[:1], 4)\n"
            "except RuntimeError as exc:\n    print('refused:', exc)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused: sigma basis at ground 4"), proc.stdout


def test_check_relation_agrees_with_reference_on_perturbed_families():
    # A seeded sample of every family at n = 5, each relation as generated
    # and with one coefficient moved by a seeded nonzero amount.
    rng = random.Random(5)
    for family in RELATION_FAMILIES:
        rels = [rel for _, rel in relation_family(5, family) if rel]
        for rel in rng.sample(rels, 12):
            assert check_relation(rel) and sigma_reference(rel), family
            changed = _perturbed(rel, rng.randrange(len(rel)), rng.choice((-2, -1, 1, 2)))
            assert not check_relation(changed) and not sigma_reference(changed), family


def test_relation_fundamental_examples():
    rel = relation_fundamental(EMPTY, IndexSet([1]), 2)
    assert rel == LaplaceCombination(2, {
        (EMPTY, EMPTY): 1,
        (IndexSet([1]), IndexSet([1])): -1,
        (IndexSet([2]), IndexSet([1])): -1,
    })
    full = IndexSet([1, 2, 3])
    assert not relation_fundamental(full, full, 3)  # both sides identical


def test_relation_inclusion_exclusion_examples():
    # pinning the empty set reduces to the fundamental relation
    for n in (2, 3):
        for a in all_subsets(n):
            for b in all_subsets(n):
                assert relation_inclusion_exclusion(a, b, EMPTY, n) == relation_fundamental(a, b, n)
    with pytest.raises(ValueError):
        relation_inclusion_exclusion(EMPTY, IndexSet([1]), IndexSet([2]), 2)
    with pytest.raises(ValueError, match=r"^\{2,3\} is not contained in \{1,3\}$"):
        relation_inclusion_exclusion(EMPTY, IndexSet([1, 3]), IndexSet([2, 3]), 3)


def test_from_blocks_sums_repeated_keys():
    one, two, three = IndexSet([1]), IndexSet([2]), IndexSet([3])
    p, q, r = (one, one), (two, one), (IndexSet([1, 2]), IndexSet([1, 3]))
    distinct = LaplaceCombination._from_blocks(3, [((one, two), (one,), 1), ((r[0],), (r[1],), -2)])
    assert list(distinct._terms.items()) == [(p, 1), (q, 1), (r, -2)]
    # every pair of a block's product takes its coeff, rows outer
    square = LaplaceCombination._from_blocks(3, [((one, two), (one, three), 3)])
    assert list(square._terms) == [p, (one, three), q, (two, three)]
    assert set(square._terms.values()) == {3}
    # q repeats across blocks and is summed; p cancels and is not stored
    summed = LaplaceCombination._from_blocks(
        3, [((one, two), (one,), 1), ((two,), (one,), 2), ((r[0],), (r[1],), 2), ((one,), (one,), -1)])
    assert list(summed._terms.items()) == [(q, 3), (r, 2)]
    assert summed == LaplaceCombination(3, {q: 3, r: 2})


def test_relation_inclusion_exclusion_matches_every_w():
    # Against a term-by-term reference that visits every w <= c, also those
    # with |b| - |w| < |a|, which the builder skips. With |a| = |b| the v = b
    # term and the w = {} term are both (a, b), with opposite signs: the
    # relation must not store it.
    for n in range(1, 5):
        sets = all_subsets(n)
        for a in sets:
            for b in sets:
                for c in (s for s in sets if set(s) <= set(b)):
                    rel = relation_inclusion_exclusion(a, b, c, n)
                    assert 0 not in rel._terms.values()
                    if len(a) == len(b):
                        assert (a, b) not in rel._terms
                    reference = [((a, v), 1) for v in sets
                                 if set(c) <= set(v) <= set(b) and len(v) == len(a)]
                    for w in (s for s in sets if set(s) <= set(c)):
                        bw = IndexSet(set(b) - set(w))
                        reference += [((u, bw), -(-1) ** len(w)) for u in sets
                                      if set(a) <= set(u) and len(u) == len(bw)]
                    assert rel == LaplaceCombination(n, reference), (a, b, c)


def test_relation_complementary_example():
    three = IndexSet([3])
    rel = relation_complementary(three, three, 3)
    assert rel == LaplaceCombination(3, {
        (three, three): 1,
        (IndexSet([1, 3]), IndexSet([1, 3])): -1,
        (IndexSet([1, 3]), IndexSet([2, 3])): -1,
        (IndexSet([2, 3]), IndexSet([1, 3])): -1,
        (IndexSet([2, 3]), IndexSet([2, 3])): -1,
        (IndexSet([1, 2, 3]), IndexSet([1, 2, 3])): 1,
    })
    full = IndexSet([1, 2])
    assert not relation_complementary(full, full, 2)


def _complementary_tail(a, b, n):
    """The terms of relation_complementary against complements of v <= b."""
    return [((a, IndexSet([j for j in range(1, n + 1) if j not in v])), -1)
            for v in all_subsets(n) if set(v) <= set(b) and n - len(v) == len(a)]


def _complementary_reference(a, b, n):
    """relation_complementary written out term by term, without blocks."""
    supersets = [((u, w), (-1) ** (n - len(w)))
                 for w in all_subsets(n) if set(b) <= set(w)
                 for u in all_subsets(n) if set(a) <= set(u) and len(u) == len(w)]
    return LaplaceCombination(n, supersets + _complementary_tail(a, b, n))


def test_superset_blocks_rebuild_relation_complementary():
    for n in range(0, 7):
        for a in all_subsets(n):
            for b in all_subsets(n):
                if len(a) != len(b):
                    continue
                blocks = superset_blocks(a, b, n)
                tail = _complementary_tail(a, b, n)
                assert all(len(ws) == 1 for _, ws, _ in blocks)
                rebuilt = LaplaceCombination(
                    n, [((u, w), sign) for us, ws, sign in blocks for u in us for w in ws] + tail)
                assert rebuilt == _complementary_reference(a, b, n)
                assert relation_complementary(a, b, n) == rebuilt
                if 2 * len(a) < n:
                    assert not tail
                assert [us for us, ws, _ in blocks if ws == (b,)] == [(a,)]
                assert blocks[0][1] == (b,)


def test_laplace_expansion_examples():
    rel = laplace_expansion(IndexSet([1]), 2, side="cols")
    x = lambda i, j: Polynomial.var(xvar(i, j))
    # det X - {1|1} - {2|1} expands to zero, i.e. det = x11x22 - x21x12
    assert rel.expand() == 0
    assert rel.coefficient(EMPTY, EMPTY) == 1
    assert expand_laplace([1], [1], 2) + expand_laplace([2], [1], 2) == x(1, 1) * x(2, 2) - x(2, 1) * x(1, 2)
    full = IndexSet([1, 2])
    single = laplace_expansion(full, 2, side="cols")
    assert len(single) == 2 and single.coefficient(full, full) == -1
    with pytest.raises(ValueError):
        laplace_expansion(EMPTY, 2, side="diagonal")


def test_all_families_certify_both_ways_small():
    for n in (1, 2, 3):
        for family in ("theorem1", "cor1", "cor2", "laplace"):
            for label, rel in relation_family(n, family):
                assert check_relation(rel), (family, label)
                assert rel.expand() == 0, (family, label)


def test_relation_family_rejects_unknown():
    with pytest.raises(ValueError):
        list(relation_family(2, "nonsense"))
