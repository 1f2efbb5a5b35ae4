"""Index sets over {1..n}: complements, the dominance-style partial order,
good/bad classification, and permutation-sign bookkeeping.

An index set is an int bitmask, bit i-1 for index i, with one shared instance
per mask: hashing and equality are int operations, a complement in {1..n} is
an exclusive or with the full mask, and "lies inside {1..n}" is s >> n == 0.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import le
from typing import Iterable, Iterator

# Desk-scale bound on any row/column index: every index set fits in a 64-bit
# mask.
MAX_GROUND = 64


class IndexSet(int):
    """A strictly increasing set of positive row/column indices.

    Immutable and hashable. Accepts any iterable of distinct integers in
    {1..64}; elements are stored sorted. An int is never read as a mask:
    IndexSet(5) raises TypeError, as for any non-iterable.

    The value of the int is the bitmask, and there is one instance per mask,
    so equal index sets are identical objects. Order comparisons (<, >) are
    those of the masks; the dominance order is leq.
    """

    def __new__(cls, elements: Iterable[int] = ()):
        elems = sorted(elements)
        mask = 0
        for e in elems:
            # a plain int skips the two subclass tests
            if type(e) is not int and (not isinstance(e, int) or isinstance(e, (bool, IndexSet))) or e < 1:
                raise ValueError(f"index must be a positive integer, got {e!r}")
            if e > MAX_GROUND:
                raise ValueError(f"index {e} exceeds the supported bound {MAX_GROUND}")
            mask |= 1 << (e - 1)
        if mask.bit_count() != len(elems):
            duplicate = next(a for a, b in zip(elems, elems[1:]) if a == b)
            raise ValueError(f"duplicate index {duplicate}")
        return from_mask(mask)

    def __init__(self, elements: Iterable[int] = ()):
        # Validation and interning happen in __new__; this stays so that a
        # wrapper around IndexSet.__init__ (bench/layertrace.py) counts every
        # construction from elements.
        pass

    def __reduce__(self):
        return IndexSet, (self.elements,)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    __len__ = int.bit_count

    def __contains__(self, x) -> bool:
        return x in self.elements

    def __getitem__(self, i):
        return self.elements[i]

    def __repr__(self) -> str:
        return f"IndexSet({', '.join(map(str, self.elements))})"

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.elements)) + "}"


class _Interned(dict):
    """mask -> its one IndexSet; a mask seen for the first time gets its
    instance and its sorted elements here."""

    def __missing__(self, mask: int) -> IndexSet:
        high = mask >> MAX_GROUND
        if high:
            first = MAX_GROUND + (high & -high).bit_length()
            raise ValueError(f"index {first} exceeds the supported bound {MAX_GROUND}")
        s = int.__new__(IndexSet, mask)
        s.elements = tuple(i for i in range(1, mask.bit_length() + 1) if mask >> (i - 1) & 1)
        self[mask] = s
        return s


_SETS = _Interned()

# The IndexSet of a bitmask (bit i-1 for index i); unlike IndexSet(...) it
# takes the mask itself, and it is a plain dict lookup once the mask is known.
from_mask = _SETS.__getitem__

EMPTY = IndexSet()


def full_set(n: int) -> IndexSet:
    return from_mask((1 << n) - 1 if n > 0 else 0)


def check_ground(n: int, *sets: Iterable[int]) -> tuple[IndexSet, ...]:
    """The given sets as IndexSets (other iterables are converted), after
    checking that n is a ground size in 0..MAX_GROUND and that every set lies
    inside {1..n}."""
    if not isinstance(n, int) or isinstance(n, IndexSet) or not 0 <= n <= MAX_GROUND:
        raise ValueError(f"ground size must be an integer in 0..{MAX_GROUND}, got {n!r}")
    sets = tuple(s if isinstance(s, IndexSet) else IndexSet(s) for s in sets)
    for s in sets:
        if s >> n:
            raise ValueError(f"element {s.elements[-1]} exceeds ground size {n}")
    return sets


def complement(s: IndexSet, n: int) -> IndexSet:
    """{1..n} minus s; every element of s must lie in {1..n}."""
    if s >> n:
        raise ValueError(f"element {s.elements[-1]} exceeds ground bound {n}")
    return from_mask(s ^ ((1 << n) - 1))


def leq(s: IndexSet, t: IndexSet) -> bool:
    """Dominance-style partial order: |s| >= |t| and the v-th smallest
    element of s is <= the v-th smallest element of t."""
    se, te = s.elements, t.elements
    return len(se) >= len(te) and all(map(le, se, te))


def lt(s: IndexSet, t: IndexSet) -> bool:
    return s != t and leq(s, t)


def leq_pair(p, q) -> bool:
    """Coordinatewise order on (rows, cols) pairs of index sets."""
    return leq(p[0], q[0]) and leq(p[1], q[1])


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
    fixed size. lower must be contained in upper. Within each size the sets
    come in itertools.combinations order of the free elements."""
    if lower & ~upper:
        raise ValueError(f"{lower} is not contained in {upper}")
    free = [1 << (e - 1) for e in upper.elements if not lower >> (e - 1) & 1]
    if size is None:
        picks = range(len(free) + 1)
    else:
        k = size - len(lower)
        if k < 0 or k > len(free):
            return
        picks = (k,)
    for k in picks:
        for extra in itertools.combinations(free, k):
            yield from_mask(lower + sum(extra))


def subsets(universe: IndexSet | int, size: int | None = None) -> Iterator[IndexSet]:
    """All subsets of an index set (or of {1..n} when given an int)."""
    # An IndexSet is an int too: test for it first.
    upper = universe if isinstance(universe, IndexSet) else full_set(universe)
    return subsets_between(EMPTY, upper, size)
