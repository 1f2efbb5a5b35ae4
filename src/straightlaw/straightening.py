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
    relation_complementary,
    relation_inclusion_exclusion,
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
# packed is the int sum of coeff * 2**(64 * slot) over the result's good pairs,
# each a signed 64-bit field, and maxabs is the largest |coeff|. Slots are
# numbered per ground in the order good pairs are first reached, so a
# registry grows with the pairs reached, never with the ground's Catalan
# number of good pairs. Summing packed ints adds whole results in one big-int
# operation; a sum decodes exactly while every field stays below 2**63 in
# absolute value, which _eliminate checks before it stores one. The poset of
# pairs is finite, so the cache is bounded; same key always maps to the same
# entry. Entries index into _SLOTS, which must never be cleared on its own.
_STRAIGHTEN_CACHE: dict[tuple[IndexSet, IndexSet, int], tuple[int, int]] = {}

# ground -> (pair code -> slot, slot -> pair code); the good pair (u, w) at
# ground n has the code u | w << n.
_SLOTS: defaultdict[int, tuple[dict[int, int], list[int]]] = defaultdict(lambda: ({}, []))

_FIELD = 64
_FIELD_LIMIT = 1 << (_FIELD - 1)


@cache
def _offset(k: int) -> int:
    """2**63 in each of k fields: adding it makes every signed field
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
    return array("q", ((packed + off) ^ off).to_bytes(8 * k, sys.byteorder))


def _terms(packed: int, n: int):
    """The (pair code, coeff) terms of a packed result, in slot order."""
    coeffs = _coefficients(packed, n)
    return compress(zip(_SLOTS[n][1], coeffs), coeffs)


def _encode(terms, n: int) -> int:
    """The packed int of (pair code, coeff) terms, each |coeff| < 2**63."""
    fields = [(_slot(code, n), coeff) for code, coeff in terms]
    k = len(_SLOTS[n][1])
    coeffs = array("q", bytes(8 * k))
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
        # Small pairs: the alternating superset relation contains the target
        # once, and every other stored term is strictly below in both
        # coordinates.
        rel = relation_complementary(a, b, n)
        result = _eliminate(rel, a, b, n, require_row_drop=True)
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
        result = _eliminate(rel, a, b, n, require_row_drop=False)
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


def _eliminate(rel: LaplaceCombination, a: IndexSet, b: IndexSet, n: int,
               require_row_drop: bool) -> tuple[int, int]:
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
            row_drop = row_drops[u] = lt(u, a) if require_row_drop else leq(u, a)
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
    if bound >= _FIELD_LIMIT:
        raise RuntimeError(
            f"coefficients straightening {a}|{b} may reach {bound}, "
            f"beyond the packed 64-bit fields"
        )
    coeffs = _coefficients(acc, n)
    return acc, max(max(coeffs, default=0), -min(coeffs, default=0))


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
    for (ip, jp), coeff in straighten_laplace(phi.first, psi.first, k).items():
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
