"""Standard monomials in the minors of a rectangular matrix: the chain
predicate, content, and the normal-form rewriting that expresses any product
of minors as an integer combination of standard monomials."""

from __future__ import annotations

from collections import Counter

from .indexsets import leq_pair, multiset_content
from .bideterminants import (  # expand_word stays importable from here
    MinorWord,
    WordCombination,
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


def normal_form(combination: WordCombination) -> WordCombination:
    """Rewrite a combination of minor words so that every word is standard.

    Each word is normalized suffix by suffix, shortest first: the leading
    pair of factors is straightened repeatedly until the word is standard.
    Each rewrite strictly lowers the head in the pair order, so the rewriting
    terminates. The polynomial expansion and the per-term content are
    preserved. Indices are not checked against any matrix dimensions; the
    CLI checks its input.
    """
    return WordCombination(
        (out, coeff * inner) for word, coeff in combination.items() for out, inner in _normalize(word)
    )


def _normalize(word: MinorWord) -> tuple:
    """Normal form of one canonical word as a tuple of (word, coeff).

    The word's uncached suffixes are filled in shortest first, in a loop, so
    the depth of the call stack does not grow with the length of a standard
    word. The cache holds every suffix of every word it holds.
    """
    hit = _NF_CACHE.get(word)
    if hit is not None:
        return hit
    pending = [word]
    while len(pending[-1]) > 1 and pending[-1][1:] not in _NF_CACHE:
        pending.append(pending[-1][1:])
    for word in reversed(pending):  # ends on the word asked for
        if len(word) <= 1:
            _NF_CACHE[word] = ((word, 1),)
            continue
        head = word[0]
        head_key = (head.rows, head.cols)
        acc: dict[MinorWord, int] = {}
        for tail, c1 in _NF_CACHE[word[1:]]:
            if not tail:
                raise RuntimeError(f"the nonempty word {word[1:]} normalized to the unit; this is a bug")
            lead = tail[0]
            if leq_pair(head_key, (lead.rows, lead.cols)):
                out = (head,) + tail
                acc[out] = acc.get(out, 0) + c1
                continue
            for pair, c2 in straighten_pair(head, lead).items():
                # each rewrite strictly lowers the head, which is the measure
                # that makes the rewriting terminate
                if not (pair and leq_pair((pair[0].rows, pair[0].cols), head_key) and pair[0] != head):
                    raise RuntimeError(f"no strict head drop in straightening {head}{lead}; this is a bug")
                for out, c3 in _normalize(pair + tail[1:]):
                    acc[out] = acc.get(out, 0) + c1 * c2 * c3
        _NF_CACHE[word] = tuple(sorted(nonzero(acc).items(), key=lambda kv: word_order(kv[0])))
    return _NF_CACHE[word]
