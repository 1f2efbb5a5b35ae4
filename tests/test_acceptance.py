"""Acceptance suite: exhaustive desk-scale sweeps, one test per criterion,
each printing a PASS/FAIL line. Everything is exact integer arithmetic; the
only tolerance anywhere is equality."""

import random
from contextlib import contextmanager

from straightlaw import (
    EMPTY,
    IndexSet,
    Minor,
    WordCombination,
    canonicalize,
    check_relation,
    content,
    expand_laplace,
    expand_minor,
    expand_word,
    is_good,
    is_standard,
    leq,
    leq_pair,
    lt,
    merge_map,
    multiset_content,
    normal_form,
    relation_family,
    RELATION_FAMILIES,
    straighten_laplace,
    straighten_pair,
    verify_independence,
    verify_relation_completeness,
)
from straightlaw.polynomials import monomial, mul_monomials, yvar, zvar

from conftest import (
    all_subsets,
    masked_determinant,
    size_matched_minors,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


def _size_matched_pairs(n):
    return [
        (a, b)
        for a in all_subsets(n)
        for b in all_subsets(n)
        if len(a) == len(b)
    ]


def test_relation_families_vanish():
    # Oracle route for n <= 4: every generated instance of all four families
    # expands to the zero polynomial. Sigma route for n <= 6: the coefficient
    # sums over matching permutations vanish for all n! permutations.
    with criterion("relation suite (oracle n<=4, sigma n<=6)"):
        for n in range(1, 5):
            for family in RELATION_FAMILIES:
                for label, rel in relation_family(n, family):
                    assert rel.expand() == 0, (n, family, label)
        for n in range(1, 7):
            for family in RELATION_FAMILIES:
                for label, rel in relation_family(n, family):
                    assert check_relation(rel), (n, family, label)


def test_laplace_straightening_exhaustive():
    # Every size-matched pair on n <= 4: terminates, yields only good pairs
    # below the input, and the expansions agree exactly.
    with criterion("Laplace straightening suite (n<=4)"):
        for n in range(1, 5):
            for a, b in _size_matched_pairs(n):
                combo = straighten_laplace(a, b, n)
                assert combo.expand() == expand_laplace(a, b, n), (a, b, n)
                for (u, w), coeff in combo.items():
                    assert coeff != 0
                    assert is_good(u, n) and is_good(w, n), (a, b, u, w)
                    assert leq(u, a) and leq(w, b), (a, b, u, w)


def test_pair_straightening_exhaustive_and_random():
    # All minor pairs on a 3x3 matrix, then 1000 seeded random pairs on 4x4:
    # oracle equality, the strict order drop on non-comparable inputs, and
    # multiset content preservation.
    with criterion("minor-pair straightening suite (3x3 exhaustive, 1000 random 4x4)"):
        minors3 = size_matched_minors(3, 3)
        for f1 in minors3:
            for f2 in minors3:
                _check_pair(f1, f2)

        rng = random.Random(20260809)
        minors4 = size_matched_minors(4, 4)
        for _ in range(1000):
            _check_pair(rng.choice(minors4), rng.choice(minors4))


def _check_pair(f1, f2):
    out = straighten_pair(f1, f2)
    assert out.expand() == expand_minor(f1) * expand_minor(f2), (f1, f2)
    rows_content = multiset_content([f1.rows, f2.rows])
    cols_content = multiset_content([f1.cols, f2.cols])
    key1 = (f1.rows, f1.cols)
    noncomparable = not leq_pair(key1, (f2.rows, f2.cols))
    for word, coeff in out.items():
        g1, g2 = (word + (Minor(EMPTY, EMPTY),) * 2)[:2]
        assert coeff != 0
        assert multiset_content([g1.rows, g2.rows]) == rows_content, (f1, f2, g1, g2)
        assert multiset_content([g1.cols, g2.cols]) == cols_content, (f1, f2, g1, g2)
        if noncomparable:
            out_key = (g1.rows, g1.cols)
            assert leq_pair(out_key, key1) and out_key != key1, (f1, f2, g1)
            assert leq_pair(out_key, (g2.rows, g2.cols)), (f1, f2, g1, g2)


def test_normal_form_suite():
    # All words with <= 2 factors on 3x3 (unit factor included), plus seeded
    # random 3-factor words on 4x4: standard output, oracle equality, content
    # preservation per term, idempotence.
    with criterion("normal form suite (r<=2 on 3x3 exhaustive, random r=3 on 4x4)"):
        minors3 = size_matched_minors(3, 3)
        words = [(f,) for f in minors3]
        words += [(f1, f2) for f1 in minors3 for f2 in minors3]
        for word in words:
            _check_normal_form(word)

        rng = random.Random(97)
        minors4 = size_matched_minors(4, 4)
        for _ in range(150):
            _check_normal_form(tuple(rng.choice(minors4) for _ in range(3)))


def _check_normal_form(word):
    combo = normal_form(WordCombination({word: 1}))
    cw = canonicalize(word)
    assert combo.expand() == expand_word(cw), word
    want = content(cw)
    for out, coeff in combo.items():
        assert coeff != 0
        assert is_standard(out), (word, out)
        assert content(out) == want, (word, out)
    assert normal_form(combo) == combo, word


def test_independence_rank_and_witnesses():
    # Standard monomial counts equal exact integer ranks, and the leading
    # witnesses are distinct and decodable, for m,n <= 3 with r <= 2 and for
    # the 2x2 matrix with r <= 3.
    with criterion("independence suite (m,n<=3 r<=2; 2x2 r<=3)"):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                report = verify_independence(m, n, 2)
                assert report.rank == report.word_count, (m, n, report)
                assert report.witnesses_distinct, (m, n)
                assert report.decode_round_trip, (m, n)
        report = verify_independence(2, 2, 3)
        assert report.rank == report.word_count == 49
        assert report.independent


def test_laplace_product_completeness():
    # For n <= 3 the good products form an independent spanning set, every
    # product reduces to them, and the fundamental relations span the kernel
    # (so every relation used anywhere is a consequence of them).
    with criterion("completeness suite (n<=3)"):
        for n in (1, 2, 3):
            report = verify_relation_completeness(n)
            assert report.good_products_independent, report.summary()
            assert report.span_dimension_matches, report.summary()
            assert report.all_reduce_to_good and report.reductions_oracle_verified
            assert report.fundamental_relations_complete, report.summary()
            assert report.rank_all == report.good_count


def test_foundational_sign_order_merge_properties():
    # Fast foundational checks: masked-determinant identity (n <= 4);
    # merge-map properties on random inputs; factorwise monomial-order
    # monotonicity.
    with criterion("foundational sign/order/merge properties (<10s)"):
        for n in range(0, 5):
            for a in all_subsets(n):
                for b in all_subsets(n):
                    if len(a) == len(b):
                        assert expand_laplace(a, b, n) == masked_determinant(a, b, n)

        rng = random.Random(41)
        for _ in range(500):
            u1 = IndexSet(rng.sample(range(1, 9), rng.randrange(0, 5)))
            u2 = IndexSet(rng.sample(range(1, 9), rng.randrange(0, 5)))
            mm = merge_map(u1, u2)
            assert list(mm.values) == sorted(mm.values)
            assert mm.image_set(mm.first) == u1 and mm.injective_on(mm.first)
            assert mm.image_set(mm.second) == u2 and mm.injective_on(mm.second)
            for a in mm.first:
                for b in mm.second:
                    if mm.values[a - 1] == mm.values[b - 1]:
                        assert a < b
            # order-preserving strict image drop on injective subsets
            k = mm.size
            for _ in range(10):
                p = IndexSet(rng.sample(range(1, k + 1), rng.randrange(0, k + 1)) if k else [])
                if mm.injective_on(p) and lt(p, mm.first):
                    assert lt(mm.image_set(p), u1), (u1, u2, p)

        pool = [yvar(i, v) for i in (1, 2, 3) for v in (1, 2)] + [
            zvar(j, v) for j in (1, 2, 3) for v in (1, 2)
        ]
        for _ in range(500):
            factors = []
            for _ in range(rng.randrange(1, 4)):
                u = monomial({v: rng.randrange(0, 3) for v in rng.sample(pool, 3)})
                v = monomial({v2: rng.randrange(0, 3) for v2 in rng.sample(pool, 3)})
                if u > v:
                    u, v = v, u
                factors.append((u, v))
            us = vs = monomial({})
            strict = False
            for u, v in factors:
                strict = strict or u < v
                us, vs = mul_monomials(us, u), mul_monomials(vs, v)
            assert us < vs if strict else us == vs, factors
