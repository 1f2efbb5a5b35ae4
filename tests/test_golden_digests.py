"""Byte-exact library outputs, pinned by digest.

tests/data/golden_digests.json holds a SHA-256 digest per ground size of
  - straighten_laplace over every size-matched pair, terms in items() order;
  - relation_family over all four families, each instance's label and its
    sorted terms, in the order the generator yields them;
  - normal_form of every two-factor word on a 3x3 matrix (the unit minor
    included) and of a seeded batch of 3- to 6-factor words on 4x4, terms in
    items() order;
  - straighten_pair of every ordered pair of nonzero minors of a 3x3 and of a
    4x4 matrix (the unit minor excluded), terms in items() order.
A change that is meant to keep the library's behaviour must leave every digest
unchanged; a deliberate output change re-records the file with
`PYTHONPATH=src python tests/test_golden_digests.py`.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from straightlaw import (
    RELATION_FAMILIES,
    WordCombination,
    normal_form,
    relation_family,
    straighten_laplace,
    straighten_pair,
)
from straightlaw.bideterminants import word_order

from conftest import all_subsets, size_matched_minors

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_digests.json"
STRAIGHTEN_GROUNDS = range(0, 8)
RELATION_GROUNDS = range(1, 7)
# Words per length in the seeded 4x4 batch; 6-factor words dominate the time.
NF_WORDS_PER_LENGTH = 16


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def straighten_digest(n: int) -> str:
    sets = all_subsets(n)
    return _digest(
        f"{a.elements}|{b.elements}: "
        f"{[((u.elements, w.elements), c) for (u, w), c in straighten_laplace(a, b, n).items()]}"
        for a in sets for b in sets if len(a) == len(b)
    )


def relations_digest(n: int) -> str:
    return _digest(
        f"{family} {label}: {sorted(((a.elements, b.elements), c) for (a, b), c in rel.items())}"
        for family in RELATION_FAMILIES
        for label, rel in relation_family(n, family)
    )


def _normal_form_words(batch: str) -> list:
    if batch == "3x3 pairs":
        minors = size_matched_minors(3, 3)
        return [(f, g) for f in minors for g in minors]
    rng = random.Random(15)
    minors = size_matched_minors(4, 4, include_unit=False)
    return [tuple(rng.choice(minors) for _ in range(k))
            for k in range(3, 7) for _ in range(NF_WORDS_PER_LENGTH)]


NF_BATCHES = ("3x3 pairs", "4x4 words")


def normal_form_digest(batch: str) -> str:
    return _digest(
        f"{word_order(word)}: "
        f"{[(word_order(w), c) for w, c in normal_form(WordCombination({word: 1})).items()]}"
        for word in _normal_form_words(batch)
    )


PAIR_SIZES = (3, 4)


def straighten_pair_digest(n: int) -> str:
    minors = size_matched_minors(n, n, include_unit=False)
    return _digest(
        f"{word_order((f, g))}: "
        f"{[(word_order(w), c) for w, c in straighten_pair(f, g).items()]}"
        for f in minors for g in minors
    )


def _recorded() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("n", STRAIGHTEN_GROUNDS)
def test_straighten_laplace_digest(n):
    assert straighten_digest(n) == _recorded()["straighten_laplace"][str(n)]


@pytest.mark.parametrize("n", RELATION_GROUNDS)
def test_relation_family_digest(n):
    assert relations_digest(n) == _recorded()["relation_family"][str(n)]


@pytest.mark.parametrize("batch", NF_BATCHES)
def test_normal_form_digest(batch):
    assert normal_form_digest(batch) == _recorded()["normal_form"][batch]


@pytest.mark.parametrize("n", PAIR_SIZES)
def test_straighten_pair_digest(n):
    assert straighten_pair_digest(n) == _recorded()["straighten_pair"][str(n)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({
        "straighten_laplace": {str(n): straighten_digest(n) for n in STRAIGHTEN_GROUNDS},
        "relation_family": {str(n): relations_digest(n) for n in RELATION_GROUNDS},
        "normal_form": {batch: normal_form_digest(batch) for batch in NF_BATCHES},
        "straighten_pair": {str(n): straighten_pair_digest(n) for n in PAIR_SIZES},
    }, indent=1) + "\n")
