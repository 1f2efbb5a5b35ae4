"""Byte-exact library outputs, pinned by digest.

tests/data/golden_digests.json holds a SHA-256 digest per ground size of
  - straighten_laplace over every size-matched pair, terms in items() order;
  - relation_family over all four families, each instance's label and its
    sorted terms, in the order the generator yields them.
A change that is meant to keep the library's behaviour must leave every digest
unchanged; a deliberate output change re-records the file with
`PYTHONPATH=src python tests/test_golden_digests.py`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from straightlaw import RELATION_FAMILIES, relation_family, straighten_laplace

from conftest import all_subsets

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_digests.json"
STRAIGHTEN_GROUNDS = range(0, 7)
RELATION_GROUNDS = range(1, 6)


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


def _recorded() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("n", STRAIGHTEN_GROUNDS)
def test_straighten_laplace_digest(n):
    assert straighten_digest(n) == _recorded()["straighten_laplace"][str(n)]


@pytest.mark.parametrize("n", RELATION_GROUNDS)
def test_relation_family_digest(n):
    assert relations_digest(n) == _recorded()["relation_family"][str(n)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({
        "straighten_laplace": {str(n): straighten_digest(n) for n in STRAIGHTEN_GROUNDS},
        "relation_family": {str(n): relations_digest(n) for n in RELATION_GROUNDS},
    }, indent=1) + "\n")
