"""Index sets over {1..n}: complements, the dominance-style partial order,
good/bad classification, and permutation-sign bookkeeping."""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, Iterator

# Desk-scale bound on any row/column index; keeps bitmask acceleration
# possible later without changing semantics.
MAX_GROUND = 64


class IndexSet:
    """A strictly increasing set of positive row/column indices.

    Immutable and hashable. Accepts any iterable of distinct integers in
    {1..64}; elements are stored sorted.
    """

    __slots__ = ("elements", "_hash")

    def __init__(self, elements: Iterable[int] = ()):
        elems = tuple(sorted(elements))
        for e in elems:
            if not isinstance(e, int) or isinstance(e, bool) or e < 1:
                raise ValueError(f"index must be a positive integer, got {e!r}")
            if e > MAX_GROUND:
                raise ValueError(f"index {e} exceeds the supported bound {MAX_GROUND}")
        for a, b in zip(elems, elems[1:]):
            if a == b:
                raise ValueError(f"duplicate index {a}")
        self.elements = elems
        self._hash = hash(elems)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.elements

    def __getitem__(self, i):
        return self.elements[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, IndexSet):
            return self.elements == other.elements
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"IndexSet({', '.join(map(str, self.elements))})"

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.elements)) + "}"

    def union(self, other: Iterable[int]) -> "IndexSet":
        return IndexSet(set(self.elements) | set(other))

    def difference(self, other: Iterable[int]) -> "IndexSet":
        return IndexSet(set(self.elements) - set(other))

    def issubset(self, other: Iterable[int]) -> bool:
        return set(self.elements) <= set(other)


EMPTY = IndexSet()


def full_set(n: int) -> IndexSet:
    return IndexSet(range(1, n + 1))


def complement(s: IndexSet, n: int) -> IndexSet:
    """{1..n} minus s; every element of s must lie in {1..n}."""
    if s.elements and s.elements[-1] > n:
        raise ValueError(f"element {s.elements[-1]} exceeds ground bound {n}")
    inside = set(s.elements)
    return IndexSet(i for i in range(1, n + 1) if i not in inside)


def leq(s: IndexSet, t: IndexSet) -> bool:
    """Dominance-style partial order: |s| >= |t| and the v-th smallest
    element of s is <= the v-th smallest element of t."""
    if len(s) < len(t):
        return False
    return all(a <= b for a, b in zip(s.elements, t.elements))


def lt(s: IndexSet, t: IndexSet) -> bool:
    return s.elements != t.elements and leq(s, t)


def leq_pair(p, q) -> bool:
    """Coordinatewise order on (rows, cols) pairs of index sets."""
    return leq(p[0], q[0]) and leq(p[1], q[1])


def leq_prefix(s: IndexSet, t: IndexSet, n: int) -> bool:
    """Prefix-count formulation of the same order: |s cap {1..r}| >=
    |t cap {1..r}| for every r in 1..n."""
    cs = ct = 0
    i = j = 0
    se, te = s.elements, t.elements
    for r in range(1, n + 1):
        if i < len(se) and se[i] == r:
            cs += 1
            i += 1
        if j < len(te) and te[j] == r:
            ct += 1
            j += 1
        if cs < ct:
            return False
    return True


def is_good(s: IndexSet, n: int) -> bool:
    """True when s is below its own complement in {1..n}.

    The empty set is not good for n >= 1: the size condition |s| >= n fails.
    """
    return leq(s, complement(s, n))


def parity_sign(k: int) -> int:
    """(-1)**k as an exact int, safe for negative k."""
    return -1 if k % 2 else 1


def permutation_sign(seq) -> int:
    """Sign of a sequence of distinct comparables via inversion count."""
    seq = tuple(seq)
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return parity_sign(inv)


def perm_sign_front(a: IndexSet, n: int) -> int:
    """Sign of the permutation moving the elements of a to the front of
    {1..n}, keeping everything else in place: (-1)**sum(a_i - i)."""
    if a.elements and a.elements[-1] > n:
        raise ValueError(f"element {a.elements[-1]} exceeds ground bound {n}")
    return parity_sign(sum(e - i for i, e in enumerate(a.elements, start=1)))


def laplace_sign(a: IndexSet, b: IndexSet) -> int:
    """(-1)**(sum a + sum b)."""
    return parity_sign(sum(a.elements) + sum(b.elements))


def multiset_content(sets: Iterable[IndexSet]) -> Counter:
    """Multiset union of the given index sets, counting multiplicity."""
    out: Counter = Counter()
    for s in sets:
        out.update(s.elements)
    return out


def subsets_between(lower: IndexSet, upper: IndexSet, size: int | None = None) -> Iterator[IndexSet]:
    """All index sets v with lower <= v <= upper as sets, optionally of a
    fixed size. lower must be contained in upper."""
    lo = set(lower.elements)
    if not lo <= set(upper.elements):
        raise ValueError(f"{lower} is not contained in {upper}")
    free = [e for e in upper.elements if e not in lo]
    if size is None:
        picks = range(len(free) + 1)
    else:
        k = size - len(lo)
        if k < 0 or k > len(free):
            return
        picks = (k,)
    for k in picks:
        for extra in itertools.combinations(free, k):
            yield IndexSet(lower.elements + extra)


def subsets(universe: IndexSet | int, size: int | None = None) -> Iterator[IndexSet]:
    """All subsets of an index set (or of {1..n} when given an int)."""
    upper = full_set(universe) if isinstance(universe, int) else universe
    return subsets_between(EMPTY, upper, size)


def supersets(s: IndexSet, n: int, size: int | None = None) -> Iterator[IndexSet]:
    """All subsets of {1..n} containing s, optionally of a fixed size."""
    return subsets_between(s, full_set(n), size)
