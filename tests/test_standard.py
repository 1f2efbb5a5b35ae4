import random

from straightlaw import (
    EMPTY,
    Minor,
    WordCombination,
    canonicalize,
    content,
    expand_word,
    is_standard,
    normal_form,
)

from conftest import size_matched_minors

UNIT = Minor(EMPTY, EMPTY)


def test_is_standard_examples():
    assert is_standard((Minor([1], [1]), Minor([2], [2])))
    assert not is_standard((Minor([1], [2]), Minor([2], [1])))
    assert is_standard((Minor([1], [2]),))
    assert is_standard(())
    # larger factors come first in a standard chain
    assert is_standard((Minor([1, 2], [1, 2]), Minor([2], [2])))
    assert not is_standard((Minor([2], [2]), Minor([1, 2], [1, 2])))


def test_canonicalize_examples():
    assert canonicalize((Minor([1], [1]), UNIT)) == (Minor([1], [1]),)
    assert canonicalize((UNIT,)) == ()
    assert canonicalize((Minor([1], [1, 2]),)) is None


def test_content_examples():
    rows, cols = content((Minor([1], [1]), Minor([2], [2])))
    assert rows == {1: 1, 2: 1} and cols == {1: 1, 2: 1}
    rows2, cols2 = content((Minor([1, 2], [1, 2]),))
    assert rows2 == rows and cols2 == cols


def test_word_combination_collects_and_drops():
    f = Minor([1], [1])
    combo = WordCombination([((f, UNIT), 1), ((f,), 2), ((Minor([1], [1, 2]),), 9)])
    assert combo.coefficient((f,)) == 3
    assert len(combo) == 1


def test_normal_form_basic_example():
    combo = normal_form(WordCombination({(Minor([1], [2]), Minor([2], [1])): 1}))
    assert combo == WordCombination({
        (Minor([1], [1]), Minor([2], [2])): 1,
        (Minor([1, 2], [1, 2]),): -1,
    })
    assert combo.expand() == expand_word((Minor([1], [2]), Minor([2], [1])))


def test_normal_form_fixed_point_on_standard_input():
    word = (Minor([1, 2], [1, 2]), Minor([2], [2]))
    assert is_standard(word)
    assert normal_form(WordCombination({word: 1})) == WordCombination({word: 1})


def test_normal_form_single_factors_are_standard():
    for i in (1, 2):
        for j in (1, 2):
            w = (Minor([i], [j]),)
            assert normal_form(WordCombination({w: 1})) == WordCombination({w: 1})


def test_normal_form_exhaustive_two_factor_words_2x2():
    minors = size_matched_minors(2, 2)
    for f1 in minors:
        for f2 in minors:
            word = (f1, f2)
            combo = normal_form(WordCombination({word: 1}))
            cw = canonicalize(word)
            assert combo.expand() == expand_word(cw)
            want = content(cw)
            for out, coeff in combo.items():
                assert is_standard(out)
                assert content(out) == want
                assert coeff != 0
            assert normal_form(combo) == combo


def test_normal_form_random_three_factor_words_3x3():
    rng = random.Random(23)
    minors = size_matched_minors(3, 3)
    for _ in range(60):
        word = tuple(rng.choice(minors) for _ in range(3))
        combo = normal_form(WordCombination({word: 1}))
        cw = canonicalize(word)
        assert combo.expand() == expand_word(cw)
        want = content(cw)
        for out, _ in combo.items():
            assert is_standard(out)
            assert content(out) == want
        assert normal_form(combo) == combo


def test_normal_form_merges_across_input_terms():
    f, g = Minor([1], [2]), Minor([2], [1])
    crossed = WordCombination({(f, g): 1, (g, f): -1})
    # the two words are equal ring elements, so their difference vanishes
    assert normal_form(crossed) == WordCombination()
    assert not crossed.expand() - crossed.expand()
