import itertools
import random

import pytest

from straightlaw import (
    EMPTY,
    IndexSet,
    LaplaceCombination,
    LaplaceProduct,
    Minor,
    Polynomial,
    RELATION_FAMILIES,
    check_relation,
    eval_on_permutation,
    expand_laplace,
    expand_minor,
    exponents,
    laplace_expansion,
    relation_complementary,
    relation_family,
    relation_fundamental,
    relation_inclusion_exclusion,
    xvar,
)

from conftest import all_subsets, masked_determinant, cofactor_expand, sigma_reference


def _perms(n):
    return list(itertools.permutations(range(1, n + 1)))


def test_expand_minor_examples():
    assert expand_minor(Minor([1], [2])) == Polynomial.var(xvar(1, 2))
    x = lambda i, j: Polynomial.var(xvar(i, j))
    assert expand_minor(Minor([1, 2], [1, 2])) == x(1, 1) * x(2, 2) - x(1, 2) * x(2, 1)
    assert expand_minor(Minor([1], [1, 2])) == 0
    assert expand_minor(Minor(EMPTY, EMPTY)) == 1


def test_expand_minor_bounds():
    with pytest.raises(ValueError):
        expand_minor(Minor([3], [1]), m=2, n=2)
    with pytest.raises(ValueError):
        expand_minor(Minor([1], [3]), m=2, n=2)


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
    assert expand_laplace(LaplaceProduct([1], [1], 2)) == x(1, 1) * x(2, 2)
    assert expand_laplace(LaplaceProduct([2], [1], 2)) == -(x(2, 1) * x(1, 2))
    assert expand_laplace(LaplaceProduct([1], [1, 2], 2)) == 0


def test_expand_laplace_is_the_masked_determinant():
    for n in range(0, 4):
        for a in all_subsets(n):
            for b in all_subsets(n):
                if len(a) != len(b):
                    continue
                lp = LaplaceProduct(a, b, n)
                assert expand_laplace(lp) == masked_determinant(a, b, n), (a, b, n)


def test_eval_on_permutation_examples():
    swap = (2, 1)
    assert eval_on_permutation(LaplaceProduct([1], [2], 2), swap) == -1
    assert eval_on_permutation(LaplaceProduct([1], [1], 2), swap) == 0
    with pytest.raises(ValueError):
        eval_on_permutation(LaplaceProduct([1], [1], 2), (1, 1))


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
                    lp = LaplaceProduct(a, b, n)
                    assert eval_on_permutation(lp, sigma) == expand_laplace(lp).evaluate(values)


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
    # Ground sizes 7 and 8 rebuild their permutation ranks for every term.
    rel7 = laplace_expansion(IndexSet([2]), 7)
    assert check_relation(rel7) and sigma_reference(rel7)
    assert not check_relation(_perturbed(rel7, 3)) and not sigma_reference(_perturbed(rel7, 3))
    rel8 = laplace_expansion(IndexSet([1, 8]), 8, side="rows")
    assert check_relation(rel8)
    assert not check_relation(_perturbed(rel8, 0, -2))
    with pytest.raises(ValueError, match="refused for ground size 9 > 8"):
        check_relation(LaplaceCombination(9, {(IndexSet([1]), IndexSet([1])): 1}))


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


def test_laplace_expansion_examples():
    rel = laplace_expansion(IndexSet([1]), 2, side="cols")
    x = lambda i, j: Polynomial.var(xvar(i, j))
    # det X - {1|1} - {2|1} expands to zero, i.e. det = x11x22 - x21x12
    assert rel.expand() == 0
    assert rel.coefficient(EMPTY, EMPTY) == 1
    assert expand_laplace(LaplaceProduct([1], [1], 2)) + expand_laplace(
        LaplaceProduct([2], [1], 2)
    ) == x(1, 1) * x(2, 2) - x(2, 1) * x(1, 2)
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
