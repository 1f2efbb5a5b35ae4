"""Constructive straightening with explicit integer coefficients: Laplace
products are rewritten into combinations of good ones, and products of two
rectangular-matrix minors are rewritten through an order-preserving merge of
their index sets so that the first factor strictly drops in the dominance
order."""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import cache
from itertools import compress

from .indexsets import (
    IndexSet,
    check_ground,
    complement,
    from_mask,
    is_good,
    leq,
    leq_pair,
    lt,
    parity_sign,
)
from .bideterminants import (
    LaplaceCombination,
    Minor,
    WordCombination,
    inclusion_exclusion_blocks,
    superset_blocks,
)


@dataclass(frozen=True)
class MergeMap:
    """Order-preserving surjection from positions {1..k} onto the merged
    multiset of two index sets.

    values[p-1] is the image of position p. first/second are the positions
    carrying the copies of the first/second input set; when two positions
    share a value, they are adjacent and the first-set copy comes earlier.
    Bit p-1 of the mask shared is set when positions p and p+1 share a
    value, so the map is injective on a position set P exactly when P holds
    no such pair.
    """

    size: int
    values: tuple[int, ...]
    first: IndexSet
    second: IndexSet
    shared: int

    def injective_on(self, positions: IndexSet) -> bool:
        return not positions & positions >> 1 & self.shared

    def image_set(self, positions: IndexSet) -> IndexSet:
        """The set of the values at the positions, injective or not."""
        mask = 0
        for p in positions.elements:
            mask |= 1 << self.values[p - 1] - 1
        return from_mask(mask)


def merge_map(u1: IndexSet, u2: IndexSet) -> MergeMap:
    """Merge two index sets into sorted order, the u1-copy preceding the
    u2-copy on equal values, and record which positions came from where."""
    tagged = sorted([(v, 0) for v in u1] + [(v, 1) for v in u2])
    values = tuple(v for v, _ in tagged)
    k = len(values)
    first = from_mask(sum(1 << p for p, (_, tag) in enumerate(tagged) if not tag))
    shared = sum(1 << p for p in range(k - 1) if values[p] == values[p + 1])
    return MergeMap(k, values, first, complement(first, k), shared)


# Straightening results, keyed by (rows, cols, ground): (packed, maxabs).
# packed is the int sum of coeff * 2**(32 * slot) over the result's good pairs,
# each a signed 32-bit field, and maxabs is the largest |coeff|. Slots are
# numbered per ground in the order good pairs are first reached, so a
# registry grows with the pairs reached, never with the ground's Catalan
# number of good pairs. Summing packed ints adds whole results in one big-int
# operation; a sum decodes exactly while every field stays below 2**31 in
# absolute value, which _checked tests on a bound before any result is
# stored (the largest such bound is 7,897 at ground 7 and 47,163 at ground
# 8). The poset of pairs is finite, so the cache is bounded; same key always
# maps to the same entry. Entries index into _SLOTS, which must never be
# cleared on its own.
_STRAIGHTEN_CACHE: dict[tuple[IndexSet, IndexSet, int], tuple[int, int]] = {}

# Superset block sums S(a, w) of _solve, keyed by (a, w, ground): (packed,
# bound), the packed sum of the results of every (u, w) with u >= a and
# |u| = |w|, and the sum of their maxabs. Both straightening rules share the
# entries: every target (a, b) with b > w, small or with a bad column set.
# A block whose only row set is a is the result of (a, w) itself and is not
# stored. Like the results, entries index into _SLOTS.
_SUPERSET_SUMS: dict[tuple[IndexSet, IndexSet, int], tuple[int, int]] = {}

# ground -> (pair code u | w << n -> slot, slot -> good pair (u, w)); every
# decoded result takes its keys from these shared (u, w) tuples.
_SLOTS: defaultdict[int, tuple[dict[int, int], list[tuple]]] = defaultdict(lambda: ({}, []))

_FIELD = 32
_FIELD_LIMIT = 1 << (_FIELD - 1)
# The array typecode of a signed field, by its item size.
_TYPECODE = next(t for t in "hilq" if array(t).itemsize * 8 == _FIELD)


@cache
def _offset(k: int) -> int:
    """2**31 in each of k fields: adding it makes every signed field
    non-negative, and xor-ing it back leaves each field's two's complement."""
    return ((1 << _FIELD * k) - 1) // ((1 << _FIELD) - 1) << (_FIELD - 1)


def _slot(u: IndexSet, w: IndexSet, n: int) -> int:
    slot_of, pairs = _SLOTS[n]
    code = u | w << n
    slot = slot_of.get(code)
    if slot is None:
        slot = slot_of[code] = len(pairs)
        pairs.append((u, w))
    return slot


def _coefficients(packed: int, n: int) -> array:
    """The signed coefficient in each of the ground's slots."""
    k = len(_SLOTS[n][1])
    off = _offset(k)
    return array(_TYPECODE, ((packed + off) ^ off).to_bytes(_FIELD // 8 * k, sys.byteorder))


def _terms(packed: int, n: int):
    """The ((u, w), coeff) terms of a packed result, in slot order."""
    coeffs = _coefficients(packed, n)
    return compress(zip(_SLOTS[n][1], coeffs), coeffs)


def _encode(terms, n: int) -> int:
    """The packed int of ((u, w), coeff) terms, each |coeff| < 2**31."""
    fields = [(_slot(u, w, n), coeff) for (u, w), coeff in terms]
    k = len(_SLOTS[n][1])
    coeffs = array(_TYPECODE, bytes(_FIELD // 8 * k))
    for slot, coeff in fields:
        coeffs[slot] = coeff
    off = _offset(k)
    return (int.from_bytes(coeffs, sys.byteorder) ^ off) - off


def straighten_laplace(a: IndexSet, b: IndexSet, n: int) -> LaplaceCombination:
    """Rewrite the Laplace product with row set a and column set b as an
    integer combination of Laplace products whose row and column sets are all
    good and below a and b in the dominance order.

    A size-mismatched pair denotes zero and yields the empty combination.
    The expansion of the output equals the expansion of the input exactly.
    The packed result decodes to distinct pairs with nonzero coefficients,
    which are stored as they are, keyed by the slot registry's shared pairs.
    """
    a, b = check_ground(n, a, b)
    out = LaplaceCombination(n)
    if len(a) == len(b):
        out._terms = dict(_terms(_straighten(a, b, n)[0], n))
    return out


def _straighten(a: IndexSet, b: IndexSet, n: int) -> tuple[int, int]:
    key = (a, b, n)
    hit = _STRAIGHTEN_CACHE.get(key)
    if hit is not None:
        return hit

    if is_good(a, n) and is_good(b, n):
        result = (1 << _FIELD * _slot(a, b, n), 1)
    elif 2 * len(a) < n:
        # Small pair: solve the superset part of relation_complementary,
        #     sum over w >= b of (-1)**(n - |w|) * S(a, w) = 0;
        # its complement tail is empty when 2|a| < n.
        result = _solve(a, b, superset_blocks(a, b, n), n)
    elif not is_good(b, n):
        # Minimal-violation rewrite on the column side: pin the first place
        # where b exceeds its complement, enlarge b there to d, and solve the
        # inclusion-exclusion relation of (a, d) pinned at c. b occurs in it
        # once, as d - (c - b): c holds an element outside b, so no v >= c
        # is b. Every other term keeps the row set comparable and strictly
        # lowers the column set.
        bc = complement(b, n)
        nu = next(
            v for v, (i_v, j_v) in enumerate(zip(b.elements, bc.elements), start=1)
            if i_v > j_v
        )
        prefix = bc.elements[:nu]
        c = IndexSet(prefix + b.elements[nu - 1:])
        d = from_mask(b | c)
        result = _solve(a, b, inclusion_exclusion_blocks(a, d, c, n), n)
    else:
        # Only the row set is bad: straighten the transposed product and swap
        # the coordinates back (a Laplace product is symmetric under
        # transposition together with swapping its index sets).
        packed, maxabs = _straighten(b, a, n)
        swapped = (((w, u), c) for (u, w), c in _terms(packed, n))
        result = (_encode(swapped, n), maxabs)

    _STRAIGHTEN_CACHE[key] = result
    return result


def _solve(a: IndexSet, b: IndexSet, blocks, n: int) -> tuple[int, int]:
    """Solve a vanishing relation, given as (row sets, column sets, sign)
    blocks whose row sets are the u >= a of the column set's size, for its
    (a, b) term. Column b must sit alone, with the row sets (a,), so that the
    target carries the unit coefficient eps of its block; then
        (a, b) = -eps * sum over the other column sets w of sign * S(a, w),
    and every other w must lie strictly below b. Each S(a, w) is one packed
    block sum (_superset_sum), cached and shared by every target whose
    relation holds it, so the work per column set is one big-int
    operation."""
    eps = None
    acc = bound = 0
    for us, ws, sign in blocks:
        for w in ws:
            if w == b:
                if eps is not None or us != (a,):
                    raise RuntimeError(
                        f"target {a}|{b} is not alone in its block of the relation; this is a bug")
                eps = sign
                continue
            # Strict decrease in the pair order at every recursion edge is
            # what makes the recursion terminate. A proper superset of b is
            # strictly below b, so only other column sets need lt.
            if b & ~w and not lt(w, b):
                raise RuntimeError(f"no strict drop from {a}|{b} to column set {w}; this is a bug")
            packed, block_bound = _superset_sum(a, w, us, n)
            if sign == 1:
                acc += packed
            else:
                acc -= packed
            bound += block_bound
    if eps not in (1, -1):
        raise RuntimeError(
            f"target {a}|{b} does not appear with unit coefficient in its relation; this is a bug")
    _checked(bound, a, b)
    if eps == 1:
        acc = -acc
    return acc, _maxabs(acc, n)


def _maxabs(packed: int, n: int) -> int:
    return max(map(abs, _coefficients(packed, n)), default=0)


def _checked(bound: int, a: IndexSet, b: IndexSet, what: str = "straightening") -> None:
    """Refuse a packed sum for (a, b) whose coefficients may reach 2**31 in
    absolute value: it would not decode exactly."""
    if bound >= _FIELD_LIMIT:
        raise RuntimeError(
            f"coefficients {what} {a}|{b} may reach {bound}, "
            f"beyond the packed 32-bit fields"
        )


def _superset_sum(a: IndexSet, w: IndexSet, us: tuple[IndexSet, ...], n: int) -> tuple[int, int]:
    """S(a, w) of _solve: the packed sum of the results of the (u, w) for the
    row sets u in us, and the sum of their maxabs. With us = (a,) that is the
    result of (a, w) itself, which is returned as it is."""
    if us == (a,):
        return _straighten(a, w, n)
    key = (a, w, n)
    hit = _SUPERSET_SUMS.get(key)
    if hit is not None:
        return hit
    acc = bound = 0
    for u in us:
        # A superset of a is below a, so only other row sets need leq.
        if a & ~u and not leq(u, a):
            raise RuntimeError(f"no strict drop from row set {a} to {u}|{w}; this is a bug")
        packed, maxabs = _straighten(u, w, n)
        acc += packed
        bound += maxabs
    _checked(bound, a, w, "summing the row supersets of")
    result = _SUPERSET_SUMS[key] = (acc, bound)
    return result


@cache
def straighten_pair(first: Minor, second: Minor) -> WordCombination:
    """Rewrite a product of two minors.

    If (rows1, cols1) <= (rows2, cols2) the product is returned unchanged,
    and if (rows2, cols2) <= (rows1, cols1) with its factors swapped: minors
    commute, and standard words are linearly independent, so that standard
    word is the product's only standard form. If either factor is
    size-mismatched the result is zero. Otherwise both row
    sets and both column sets are merged order-preservingly into {1..k},
    the corresponding Laplace product of the k x k pullback matrix is
    straightened, terms on which a merge map fails to be injective are
    dropped (they have repeated rows or columns), and the survivors are
    pushed back through the merges. Every surviving term has its first
    factor strictly below (rows1, cols1) and at most its second factor.

    The result is a combination of words of at most two factors: unit
    factors are dropped, as in every WordCombination. Row and column content
    is preserved per term as multisets. Indices are not checked against any
    matrix dimensions; the CLI checks its input. Results are cached per pair
    of minors, so every caller shares one result object: do not modify it.
    """
    if first.is_zero or second.is_zero:
        return WordCombination()
    if leq_pair(first, second):
        return WordCombination({(first, second): 1})
    if leq_pair(second, first):
        return WordCombination({(second, first): 1})

    phi = merge_map(first.rows, second.rows)
    psi = merge_map(first.cols, second.cols)
    k = phi.size
    base_exp = sum(phi.first) + sum(psi.first)

    terms = []
    for (ip, jp), coeff in straighten_laplace(phi.first, psi.first, k)._terms.items():
        iq = complement(ip, k)
        jq = complement(jp, k)
        if not (phi.injective_on(ip) and phi.injective_on(iq)
                and psi.injective_on(jp) and psi.injective_on(jq)):
            continue
        sign = parity_sign(base_exp + sum(ip) + sum(jp))
        word = (Minor(phi.image_set(ip), psi.image_set(jp)),
                Minor(phi.image_set(iq), psi.image_set(jq)))
        terms.append((word, sign * coeff))
    return WordCombination(terms)
