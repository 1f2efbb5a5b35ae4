"""Standard monomials in the minors of a rectangular matrix: the chain
predicate, content, and the normal-form rewriting that expresses any product
of minors as an integer combination of standard monomials."""

from __future__ import annotations

from collections import Counter
from heapq import heappop, heappush

from .indexsets import leq_pair, multiset_content
from .bideterminants import Minor, MinorWord, WordCombination, expand_word  # re-exports expand_word
from .polynomials import nonzero
from .straightening import straighten_pair


def is_standard(word: MinorWord) -> bool:
    """True when both the row sets and the column sets form increasing
    chains along the word."""
    return _last_descent(word, len(word)) < 0


def _last_descent(word: MinorWord, hi: int) -> int:
    """The last i <= hi with word[i] not below word[i + 1] in the pair order,
    or -1."""
    for i in range(min(hi, len(word) - 2), -1, -1):
        if not leq_pair(word[i], word[i + 1]):
            return i
    return -1


def content(word: MinorWord) -> tuple[Counter, Counter]:
    """Pair of multisets: all row indices and all column indices, counted
    with multiplicity across the factors."""
    return (
        multiset_content(f.rows for f in word),
        multiset_content(f.cols for f in word),
    )


# Normal forms of the canonical words normal_form was asked for, keyed by
# word; the words met while rewriting are not kept.
_NF_CACHE: dict[MinorWord, tuple] = {}


def normal_form(combination: WordCombination) -> WordCombination:
    """Rewrite a combination of minor words so that every word is standard.

    Each word is rewritten in one loop: a pending word gives up its summed
    coefficient and has its last out-of-order adjacent pair straightened.
    Each rewrite strictly lowers the first factor of that pair in the pair
    order and keeps the factors before it, so the rewriting terminates. The
    polynomial expansion and the per-term content are preserved. Indices are
    not checked against any matrix dimensions; the CLI checks its input.
    """
    return WordCombination(
        (out, coeff * inner) for word, coeff in combination.items() for out, inner in _normalize(word)
    )


def _rank(f: Minor) -> tuple:
    # Larger for a strictly lower factor in the pair order: a lower index set
    # is at least as long and, of equal length, has the smaller mask.
    return (len(f.rows), -f.rows, len(f.cols), -f.cols)


def _normalize(word: MinorWord) -> tuple:
    """Normal form of one canonical word as a tuple of (word, coeff).

    Words wait in a heap keyed by their factors' _rank, distinct for
    distinct words. A product keeps its parent's factors before the cut and
    has a strictly lower factor at the cut, so it sorts after its parent:
    every word is popped once, after all its contributions are summed.
    """
    if word in _NF_CACHE:
        return _NF_CACHE[word]
    acc = {word: 1}
    heap = [(tuple(map(_rank, word)), word, _last_descent(word, len(word)))]
    while heap:
        key, w, cut = heappop(heap)
        if cut < 0 or not acc[w]:
            continue
        coeff = acc.pop(w)
        first, second = w[cut], w[cut + 1]
        for pair, c in straighten_pair(first, second).items():
            # each rewrite strictly lowers the first factor of the pair, which
            # is the measure that makes the rewriting terminate
            if not (pair and leq_pair(pair[0], first) and pair[0] != first):
                raise RuntimeError(f"no strict head drop in straightening {first}{second}; this is a bug")
            out = w[:cut] + pair + w[cut + 2:]
            if out in acc:
                acc[out] += coeff * c
            else:
                acc[out] = coeff * c
                # w[cut + 1:] is standard, so out descends at most up to
                # the last factor of pair
                heappush(heap, (key[:cut] + tuple(map(_rank, pair)) + key[cut + 2:], out,
                                _last_descent(out, cut + len(pair) - 1)))
    result = _NF_CACHE[word] = tuple(nonzero(acc).items())
    return result
