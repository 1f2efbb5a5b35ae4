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
    relation_inclusion_exclusion,
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

# Superset block sums of the small-pair rule, keyed by (a, w, ground):
# (packed, bound), the packed sum of the results of every (u, w) with u >= a
# and |u| = |w|, and the sum of their maxabs. Every column set b < w of size
# |a| shares the entry. Like the results, entries index into _SLOTS.
_SUPERSET_SUMS: dict[tuple[IndexSet, IndexSet, int], tuple[int, int]] = {}

# ground -> (pair code -> slot, slot -> pair code); the good pair (u, w) at
# ground n has the code u | w << n.
_SLOTS: defaultdict[int, tuple[dict[int, int], list[int]]] = defaultdict(lambda: ({}, []))

_FIELD = 32
_FIELD_LIMIT = 1 << (_FIELD - 1)
# The array typecode of a signed field, by its item size.
_TYPECODE = next(t for t in "hilq" if array(t).itemsize * 8 == _FIELD)


@cache
def _offset(k: int) -> int:
    """2**31 in each of k fields: adding it makes every signed field
    non-negative, and xor-ing it back leaves each field's two's complement."""
    return ((1 << _FIELD * k) - 1) // ((1 << _FIELD) - 1) << (_FIELD - 1)


def _slot(code: int, n: int) -> int:
    slot_of, codes = _SLOTS[n]
    slot = slot_of.get(code)
    if slot is None:
        slot = slot_of[code] = len(codes)
        codes.append(code)
    return slot


def _coefficients(packed: int, n: int) -> array:
    """The signed coefficient in each of the ground's slots."""
    k = len(_SLOTS[n][1])
    off = _offset(k)
    return array(_TYPECODE, ((packed + off) ^ off).to_bytes(_FIELD // 8 * k, sys.byteorder))


def _terms(packed: int, n: int):
    """The (pair code, coeff) terms of a packed result, in slot order."""
    coeffs = _coefficients(packed, n)
    return compress(zip(_SLOTS[n][1], coeffs), coeffs)


def _encode(terms, n: int) -> int:
    """The packed int of (pair code, coeff) terms, each |coeff| < 2**31."""
    fields = [(_slot(code, n), coeff) for code, coeff in terms]
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
    which are stored as they are.
    """
    a, b = check_ground(n, a, b)
    out = LaplaceCombination(n)
    if len(a) == len(b):
        full = (1 << n) - 1
        out._terms = {(from_mask(p & full), from_mask(p >> n)): c
                      for p, c in _terms(_straighten(a, b, n)[0], n)}
    return out


def _straighten(a: IndexSet, b: IndexSet, n: int) -> tuple[int, int]:
    key = (a, b, n)
    hit = _STRAIGHTEN_CACHE.get(key)
    if hit is not None:
        return hit

    if is_good(a, n) and is_good(b, n):
        result = (1 << _FIELD * _slot(a | b << n, n), 1)
    elif 2 * len(a) < n:
        result = _straighten_small(a, b, n)
    elif not is_good(b, n):
        # Minimal-violation rewrite on the column side: pin the first place
        # where b exceeds its complement, enlarge b there, and trade through
        # the signed refinement relation. Every other stored term keeps the
        # row set comparable and strictly lowers the column set.
        bc = complement(b, n)
        nu = next(
            v for v, (i_v, j_v) in enumerate(zip(b.elements, bc.elements), start=1)
            if i_v > j_v
        )
        prefix = bc.elements[:nu]
        c = IndexSet(prefix + b.elements[nu - 1:])
        d = from_mask(b | c)
        rel = relation_inclusion_exclusion(a, d, c, n)
        result = _eliminate(rel, a, b, n)
    else:
        # Only the row set is bad: straighten the transposed product and swap
        # the coordinates back (a Laplace product is symmetric under
        # transposition together with swapping its index sets).
        full = (1 << n) - 1
        packed, maxabs = _straighten(b, a, n)
        swapped = (((p >> n) | (p & full) << n, c) for p, c in _terms(packed, n))
        result = (_encode(swapped, n), maxabs)

    _STRAIGHTEN_CACHE[key] = result
    return result


def _eliminate(rel: LaplaceCombination, a: IndexSet, b: IndexSet, n: int) -> tuple[int, int]:
    """Solve a vanishing combination for its (a, b) term and recurse on the
    remaining terms, which must sit strictly lower in the order. Each term
    adds its packed result whole, so the work per term is one big-int
    operation, whatever the size of that result."""
    eps = rel.coefficient(a, b)
    if eps not in (1, -1):
        raise RuntimeError(
            f"target {a}|{b} does not appear with unit coefficient in {rel}; this is a bug"
        )
    row_drops: dict = {}
    col_drops: dict = {}
    acc = bound = 0
    for (u, w), coeff in rel._terms.items():
        if u == a and w == b:
            continue
        # Strict decrease in the pair order at every recursion edge is what
        # makes the recursion terminate. Relations repeat their row and
        # column sets, so each is compared once.
        row_drop = row_drops.get(u)
        if row_drop is None:
            row_drop = row_drops[u] = leq(u, a)
        col_drop = col_drops.get(w)
        if col_drop is None:
            col_drop = col_drops[w] = lt(w, b)
        if not (row_drop and col_drop):
            raise RuntimeError(f"no strict drop from {a}|{b} to {u}|{w}; this is a bug")
        packed, maxabs = _straighten(u, w, n)
        scale = -eps * coeff
        if scale == 1:
            acc += packed
        elif scale == -1:
            acc -= packed
        else:
            acc += scale * packed
        bound += abs(scale) * maxabs
    _checked(bound, a, b)
    return acc, _maxabs(acc, n)


def _maxabs(packed: int, n: int) -> int:
    coeffs = _coefficients(packed, n)
    return max(max(coeffs, default=0), -min(coeffs, default=0))


def _checked(bound: int, a: IndexSet, b: IndexSet, what: str = "straightening") -> None:
    """Refuse a packed sum for (a, b) whose coefficients may reach 2**31 in
    absolute value: it would not decode exactly."""
    if bound >= _FIELD_LIMIT:
        raise RuntimeError(
            f"coefficients {what} {a}|{b} may reach {bound}, "
            f"beyond the packed 32-bit fields"
        )


def _straighten_small(a: IndexSet, b: IndexSet, n: int) -> tuple[int, int]:
    """Straighten a pair with 2|a| < n by solving relation_complementary for
    it. Its complement tail is empty there, so the relation is
        sum over w >= b of (-1)**(n - |w|) * S(a, w) = 0,
    where S(a, w) sums the products (u, w) with u >= a and |u| = |w|. The
    w = b block is the target alone, with the unit coefficient eps, so
        (a, b) = -eps * sum over w > b of (-1)**(n - |w|) * S(a, w).
    Every (u, w) in a block with w > b lies strictly below (a, b) in both
    coordinates, and S(a, w) does not depend on b: it is cached in
    _SUPERSET_SUMS, shared by every b < w of size |a|."""
    eps = None
    acc = bound = 0
    for w, sign, us in superset_blocks(a, b, n):
        if w == b:
            if us == (a,):
                eps = sign
            continue
        if not lt(w, b):
            raise RuntimeError(f"no strict drop from {a}|{b} to column set {w}; this is a bug")
        packed, block_bound = _superset_sum(a, w, us, n)
        if sign == 1:
            acc += packed
        else:
            acc -= packed
        bound += block_bound
    if eps is None:
        raise RuntimeError(
            f"target {a}|{b} is not alone in the w = b block of its relation; this is a bug")
    _checked(bound, a, b)
    if eps == 1:
        acc = -acc
    return acc, _maxabs(acc, n)


def _superset_sum(a: IndexSet, w: IndexSet, us: tuple[IndexSet, ...], n: int) -> tuple[int, int]:
    """S(a, w) of _straighten_small: the packed sum of the results of the
    (u, w) for the row sets u in us, and the sum of their maxabs."""
    key = (a, w, n)
    hit = _SUPERSET_SUMS.get(key)
    if hit is not None:
        return hit
    acc = bound = 0
    for u in us:
        if not lt(u, a):
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

    If (rows1, cols1) <= (rows2, cols2) the product is returned unchanged; if
    either factor is size-mismatched the result is zero. Otherwise both row
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
