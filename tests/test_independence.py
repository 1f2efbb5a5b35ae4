import copy
import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from straightlaw import (
    EMPTY,
    IndexSet,
    Minor,
    MONOMIAL_ONE,
    Polynomial,
    decode_leading,
    expand_minor,
    expand_word,
    integer_rank,
    is_standard,
    leq,
    minor_leading_monomial,
    monomial,
    mul_monomials,
    nonzero_minors,
    standard_words,
    verify_independence,
    verify_relation_completeness,
    word_leading_witness,
    xvar,
    yvar,
    zvar,
)
from straightlaw.bideterminants import _expand_minor
from straightlaw.polynomials import exponents

from conftest import binet_cauchy_check, fraction_rank, substitute


def _witness_factor(s: IndexSet):
    return monomial({yvar(i, v): 1 for v, i in enumerate(s.elements, start=1)})


def test_specialization_substitutes_entries():
    image = substitute(expand_minor(Minor([1], [1])), 2)
    assert image == Polynomial({monomial({yvar(1, v): 1, zvar(1, v): 1}): 1 for v in (1, 2)})
    assert image.coefficient(monomial({yvar(1, 1): 1, zvar(1, 1): 1})) == 1
    assert image.coefficient(monomial({yvar(1, 2): 1, zvar(1, 2): 1})) == 1


def test_binet_cauchy_examples():
    assert binet_cauchy_check(IndexSet([1]), IndexSet([1]), 2)
    assert binet_cauchy_check(IndexSet([1, 2]), IndexSet([1, 2]), 2)


def test_binet_cauchy_all_minors_3x3():
    for k in range(1, 4):
        for a in itertools.combinations(range(1, 4), k):
            for b in itertools.combinations(range(1, 4), k):
                assert binet_cauchy_check(IndexSet(a), IndexSet(b), 3)


def test_minor_leading_monomial_examples():
    lead = minor_leading_monomial(IndexSet([1, 2]), IndexSet([1, 2]), 2)
    assert lead == monomial({yvar(1, 1): 1, yvar(2, 2): 1, zvar(1, 1): 1, zvar(2, 2): 1})
    assert minor_leading_monomial(EMPTY, EMPTY, 2) == MONOMIAL_ONE
    with pytest.raises(ValueError):
        minor_leading_monomial(IndexSet([1, 2]), IndexSet([1, 2]), 1)


def test_minor_leading_monomial_matches_brute_force():
    for k in range(1, 4):
        for a in itertools.combinations(range(1, 4), k):
            for b in itertools.combinations(range(1, 4), k):
                expanded = substitute(expand_minor(Minor(a, b)), 3)
                assert expanded.items()[0][0] == minor_leading_monomial(
                    IndexSet(a), IndexSet(b), 3
                ), (a, b)


def test_word_witness_is_leading_monomial_of_product():
    # a square and a rectangular matrix: the independence verdict relies on
    # this for m != n too
    for m, n, N in ((2, 2, 2), (2, 3, 2)):
        for word in standard_words(m, n, 2):
            expanded = substitute(expand_word(word), N)
            assert expanded.items()[0][0] == word_leading_witness(word, N), (m, n, word)


def test_decode_examples():
    m = monomial({yvar(1, 1): 1, yvar(2, 1): 1, yvar(2, 2): 1})
    assert decode_leading(m, "rows") == [IndexSet([1, 2]), IndexSet([2])]
    assert decode_leading(MONOMIAL_ONE, "rows") == []
    with pytest.raises(ValueError):
        decode_leading(monomial({yvar(1, 2): 1}), "rows")  # no superscript 1
    with pytest.raises(ValueError):
        decode_leading(monomial({yvar(1, 1): 1}), "cols")  # wrong variable kind
    with pytest.raises(ValueError):
        decode_leading(m, "sideways")
    with pytest.raises(ValueError, match="superscript 0 is below 1"):
        decode_leading(monomial({yvar(1, 0): 1, yvar(2, 1): 1}), "rows")


def _reference_decode(mono, kind):
    """decode_leading as a peel loop that rescans the remaining variables on
    every peel: the specification the indexed peel must match, error
    messages included."""
    if kind == "rows":
        want = "y"
    elif kind == "cols":
        want = "z"
    else:
        raise ValueError(f"kind must be 'rows' or 'cols', got {kind!r}")
    remaining = {}
    for v, e in exponents(mono).items():
        if v[0] != want:
            raise ValueError(f"expected only {want}-variables, found {v[0]}[{v[1]},{v[2]}]")
        remaining[(v[1], v[2])] = e
    chain = []
    while remaining:
        least = {}
        for idx, sup in remaining:
            if idx < least.get(sup, idx + 1):
                least[sup] = idx
        if min(least) < 1:
            raise ValueError(f"superscript {min(least)} is below 1")
        depth = max(least)
        for s in range(1, depth + 1):
            if s not in least:
                raise ValueError(f"no variable with superscript {s} while {depth} is present")
        elems = [least[s] for s in range(1, depth + 1)]
        if any(x >= y for x, y in zip(elems, elems[1:])):
            raise ValueError(f"peeled indices {elems} are not strictly increasing")
        for key in zip(elems, range(1, depth + 1)):
            remaining[key] -= 1
            if not remaining[key]:
                del remaining[key]
        chain.append(IndexSet(elems))
    for s, t in zip(chain, chain[1:]):
        if not leq(s, t):
            raise ValueError(f"decoded sets {s}, {t} do not form a chain")
    return chain


def _outcome(decode, mono, kind):
    try:
        return decode(mono, kind)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _assert_decodes_like_reference(mono, kind):
    assert _outcome(decode_leading, mono, kind) == _outcome(_reference_decode, mono, kind)


def test_decode_round_trip_on_all_chains():
    # every chain a_1 <= ... <= a_r on {1..4}, r <= 3, decodes back exactly
    sets = [IndexSet(c) for r in range(1, 5) for c in itertools.combinations(range(1, 5), r)]
    chains = [[s] for s in sets]
    frontier = chains
    for _ in range(2):
        frontier = [ch + [t] for ch in frontier for t in sets if leq(ch[-1], t)]
        chains += frontier
    for chain in chains:
        mono = MONOMIAL_ONE
        for s in chain:
            mono = mul_monomials(mono, _witness_factor(s))
        assert decode_leading(mono, "rows") == chain, chain
        for kind in ("rows", "cols", "sideways"):
            _assert_decodes_like_reference(mono, kind)


def _left_to_right(word):
    total = Polynomial.one()
    for f in word:
        total = total * _expand_minor(f.rows, f.cols)
    return total


def test_expand_word_equals_the_product_of_its_factors():
    minors = nonzero_minors(2, 2)
    rng = random.Random(26)
    words = list(standard_words(2, 2, 3))
    # repeated factors, in and out of standard order
    words += [tuple(rng.choice(minors[:3]) for _ in range(rng.randint(2, 6))) for _ in range(30)]
    words.append((Minor([1], [1]),) * 1201)
    for word in words:
        assert expand_word(word) == _left_to_right(word), word


def test_expand_word_multiplies_once_per_new_standard_word(monkeypatch):
    # shorter words first: both halves of every word are already cached
    words = standard_words(2, 2, 3)
    calls = []
    multiply = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda p, q: calls.append(1) or multiply(p, q))
    expand_word.cache_clear()
    for word in words:
        expand_word(word)
    assert len(calls) == sum(len(w) > 1 for w in words)


def test_word_witness_is_the_product_of_factor_witnesses():
    for word in standard_words(3, 3, 3):
        product = MONOMIAL_ONE
        for f in word:
            product = mul_monomials(product, minor_leading_monomial(f.rows, f.cols, 3))
        assert word_leading_witness(word, 3) == product, word


def test_cached_minor_still_checks_its_inner_dimension():
    a = IndexSet([1, 2])
    assert minor_leading_monomial(a, a, 3) == minor_leading_monomial(a, a, 2)
    with pytest.raises(ValueError, match="need N >= 2, got N=1"):
        minor_leading_monomial(a, a, 1)
    with pytest.raises(ValueError, match="size mismatch"):
        minor_leading_monomial(a, IndexSet([1]), 3)


@st.composite
def witness_like_monomials(draw):
    """A y- or z-monomial and the kind to decode it as: indices 0 and 65,
    superscript 0 and gaps, exponents above 1, and now and then a foreign
    variable."""
    kind = draw(st.sampled_from(["rows", "cols"]))
    make, foreign = (yvar, zvar) if kind == "rows" else (zvar, yvar)
    keys = st.tuples(st.sampled_from([0] + [1, 2, 3, 4, 5, 6] * 4 + [65]),
                     st.sampled_from([0] + [1, 1, 2, 2, 3, 4] * 4))
    powers = draw(st.dictionaries(keys, st.integers(1, 3), max_size=10))
    exps = {make(i, s): e for (i, s), e in powers.items()}
    if draw(st.integers(0, 9)) == 0:
        exps[draw(st.sampled_from([foreign, xvar]))(draw(st.integers(1, 6)), draw(st.integers(1, 4)))] = 1
    return monomial(exps), kind


@given(witness_like_monomials())
@settings(max_examples=300, deadline=None)
def test_decode_matches_reference_on_drawn_monomials(drawn):
    mono, kind = drawn
    _assert_decodes_like_reference(mono, kind)
    _assert_decodes_like_reference(mono[::-1], kind)  # a tuple out of block order


@given(st.lists(st.sets(st.integers(1, 5), min_size=1), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_decode_matches_reference_on_witnesses_of_non_chains(sets):
    mono = mul_monomials(*(_witness_factor(IndexSet(s)) for s in sets))
    _assert_decodes_like_reference(mono, "rows")


def test_integer_rank_small_cases():
    assert integer_rank([[1, 0], [0, 1]]) == 2
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([]) == 0
    assert integer_rank([{5: 3, 9: -6}, {5: 1, 9: -2}, {9: 1}]) == 2


def test_integer_rank_matches_fraction_elimination():
    rng = random.Random(5)
    for _ in range(80):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        mat = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        assert integer_rank(mat) == fraction_rank(mat), mat


_ENTRY = st.integers(-(2**70), 2**70)


@st.composite
def rank_matrices(draw):
    """Rows in one of three layouts (dense, int keys, tuple keys), with zero
    entries, zero rows, duplicate rows and integer combinations of rows."""
    ncols = draw(st.integers(1, 6))
    base = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), _ENTRY, max_size=ncols),
                         max_size=5))
    rows = list(base)
    for coeffs in draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(base),
                                         max_size=len(base)), max_size=3)):
        combo: dict = {}
        for k, row in zip(coeffs, base):
            for c, v in row.items():
                combo[c] = combo.get(c, 0) + k * v
        rows.append(combo)
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    rows += [{}] * draw(st.integers(0, 1))
    rows = draw(st.permutations(rows))
    layout = draw(st.sampled_from(["dense", "int", "tuple"]))
    if layout == "dense":
        return [[row.get(c, 0) for c in range(ncols)] for row in rows]
    if layout == "int":
        return [{7 * c + 3: v for c, v in row.items()} for row in rows]
    return [{("col", c % 2, c): v for c, v in row.items()} for row in rows]


@given(rank_matrices())
@settings(deadline=None)
def test_integer_rank_matches_fraction_rank(rows):
    assert integer_rank(rows) == fraction_rank(rows)


def test_integer_rank_leaves_rows_unchanged():
    rows = [{0: 6, 1: 4, 2: -2}, {0: 3, 1: 2, 2: 5}, {0: 9, 2: 0}, {1: 1, 2: 1}]
    before = copy.deepcopy(rows)
    assert integer_rank(rows) == 3
    assert rows == before


def test_integer_rank_reads_a_one_shot_generator():
    rows = [[2, 4, 6], [1, 2, 3], [0, 1, 1], [1, 3, 4]]
    assert integer_rank(row for row in rows) == fraction_rank(rows) == 2
    assert integer_rank({("m", c): v for c, v in enumerate(row)} for row in rows) == 2


def test_standard_words_match_filtered_products():
    minors = nonzero_minors(2, 3)
    expected = [w for k in range(1, 4) for w in itertools.product(minors, repeat=k)
                if is_standard(w)]
    assert standard_words(2, 3, 3) == expected


def test_standard_word_enumeration_counts():
    # every enumerated word is standard and within bounds; counts are the
    # enumeration oracle's own output
    words = standard_words(2, 2, 2)
    assert all(is_standard(w) for w in words)
    assert len([w for w in words if len(w) == 1]) == 5
    assert len([w for w in words if len(w) == 2]) == 14
    assert len(words) == 19
    assert len(nonzero_minors(2, 2)) == 5


def test_verify_independence_trivial():
    report = verify_independence(1, 1, 1)
    assert report.word_count == 1 and report.rank == 1
    assert report.independent


def test_verify_independence_2x2():
    report = verify_independence(2, 2, 2)
    assert report.word_count == 19
    assert report.rank == 19
    assert report.witnesses_distinct and report.decode_round_trip
    assert report.independent
    assert "independent" in report.summary()


def test_verify_independence_refuses_out_of_bounds():
    with pytest.raises(ValueError):
        verify_independence(4, 4, 2)
    with pytest.raises(ValueError):
        verify_independence(2, 2, 5)
    # explicit overrides lift the refusal
    report = verify_independence(2, 2, 4, factor_bound=4)
    assert report.independent


def test_completeness_n1():
    report = verify_relation_completeness(1)
    assert report.good_count == 1
    assert report.rank_all == 1 and report.rank_good == 1
    assert report.complete


def test_completeness_n2():
    report = verify_relation_completeness(2)
    good = {(IndexSet([1]), IndexSet([1])), (IndexSet([1, 2]), IndexSet([1, 2]))}
    assert report.good_count == len(good) == 2
    assert report.rank_all == 2
    assert report.fundamental_relations_complete
    assert report.complete
    assert "complete" in report.summary()


def test_completeness_refuses_out_of_bounds():
    with pytest.raises(ValueError):
        verify_relation_completeness(5)
