"""Standard monomials in the minors of a rectangular matrix: the chain
predicate, content, and the normal-form rewriting that expresses any product
of minors as an integer combination of standard monomials."""

from __future__ import annotations

from collections import Counter

from .indexsets import leq_pair, multiset_content
from .bideterminants import (  # expand_word stays importable from here
    Minor,
    MinorWord,
    WordCombination,
    check_bounds,
    expand_word,
    word_order,
)
from .polynomials import nonzero
from .straightening import straighten_pair


def is_standard(word: MinorWord) -> bool:
    """True when both the row sets and the column sets form increasing
    chains along the word."""
    return all(
        leq_pair((f.rows, f.cols), (g.rows, g.cols))
        for f, g in zip(word, word[1:])
    )


def content(word: MinorWord) -> tuple[Counter, Counter]:
    """Pair of multisets: all row indices and all column indices, counted
    with multiplicity across the factors."""
    return (
        multiset_content(f.rows for f in word),
        multiset_content(f.cols for f in word),
    )


# Normal forms of canonical words, keyed by word. Bounded: rewriting only
# moves downward through the finite pair order.
_NF_CACHE: dict[MinorWord, tuple] = {}


def normal_form(combination, m: int | None = None, n: int | None = None) -> WordCombination:
    """Rewrite a combination of minor words so that every word is standard.

    Accepts a WordCombination, a single word (iterable of minors), or a
    single Minor. The algorithm normalizes the tail of each word first and
    then repeatedly straightens the leading pair of factors; each rewrite
    strictly lowers the head in the pair order, so the recursion terminates.
    The polynomial expansion and the per-term content are preserved.
    """
    if isinstance(combination, Minor):
        combination = (combination,)
    if not isinstance(combination, WordCombination):
        combination = WordCombination({tuple(combination): 1})
    items = combination.items()
    check_bounds((f for word, _ in items for f in word), m, n)
    return WordCombination(
        (out, coeff * inner) for word, coeff in items for out, inner in _normalize(word)
    )


def _normalize(word: MinorWord) -> tuple:
    """Normal form of one canonical word as a tuple of (word, coeff)."""
    hit = _NF_CACHE.get(word)
    if hit is not None:
        return hit
    if len(word) <= 1:
        result = ((word, 1),)
        _NF_CACHE[word] = result
        return result

    head = word[0]
    head_key = (head.rows, head.cols)
    acc: dict[MinorWord, int] = {}
    for tail, c1 in _normalize(word[1:]):
        if not tail:
            raise RuntimeError(f"the nonempty word {word[1:]} normalized to the unit; this is a bug")
        lead = tail[0]
        if leq_pair(head_key, (lead.rows, lead.cols)):
            out = (head,) + tail
            acc[out] = acc.get(out, 0) + c1
            continue
        for pair, c2 in straighten_pair(head, lead).items():
            # each rewrite strictly lowers the head, which is the measure
            # that makes the recursion terminate
            if not (pair and leq_pair((pair[0].rows, pair[0].cols), head_key) and pair[0] != head):
                raise RuntimeError(f"no strict head drop in straightening {head}{lead}; this is a bug")
            for out, c3 in _normalize(pair + tail[1:]):
                acc[out] = acc.get(out, 0) + c1 * c2 * c3

    result = tuple(sorted(nonzero(acc).items(), key=lambda kv: word_order(kv[0])))
    _NF_CACHE[word] = result
    return result
