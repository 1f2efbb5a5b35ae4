"""Constructive straightening with explicit integer coefficients: Laplace
products are rewritten into combinations of good ones, and products of two
rectangular-matrix minors are rewritten through an order-preserving merge of
their index sets so that the first factor strictly drops in the dominance
order."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

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
    check_bounds,
    relation_complementary,
    relation_inclusion_exclusion,
)


@dataclass(frozen=True)
class MergeMap:
    """Order-preserving surjection from positions {1..k} onto the merged
    multiset of two index sets.

    values[p-1] is the image of position p. first/second are the positions
    carrying the copies of the first/second input set; when two positions
    share a value, the first-set copy comes earlier.
    """

    size: int
    values: tuple[int, ...]
    first: IndexSet
    second: IndexSet

    def injective_on(self, positions: IndexSet) -> bool:
        seen = set()
        for p in positions:
            v = self.values[p - 1]
            if v in seen:
                return False
            seen.add(v)
        return True

    def image_set(self, positions: IndexSet) -> IndexSet:
        return IndexSet(self.values[p - 1] for p in positions)


def merge_map(u1: IndexSet, u2: IndexSet) -> MergeMap:
    """Merge two index sets into sorted order, the u1-copy preceding the
    u2-copy on equal values, and record which positions came from where."""
    tagged = [(v, 0) for v in u1] + [(v, 1) for v in u2]
    tagged.sort()
    values = tuple(v for v, _ in tagged)
    first = IndexSet(p for p, (_, tag) in enumerate(tagged, start=1) if tag == 0)
    second = IndexSet(p for p, (_, tag) in enumerate(tagged, start=1) if tag == 1)
    return MergeMap(len(tagged), values, first, second)


# Straightening results, keyed by (rows, cols, ground): tuples of
# (pair code, coefficient), where the good pair (u, w) at ground n has the
# code u | w << n. The poset of pairs is finite, so the cache is bounded; same
# key always maps to the same tuple.
_STRAIGHTEN_CACHE: dict[tuple[IndexSet, IndexSet, int], tuple] = {}


def straighten_laplace(a: IndexSet, b: IndexSet, n: int) -> LaplaceCombination:
    """Rewrite the Laplace product with row set a and column set b as an
    integer combination of Laplace products whose row and column sets are all
    good and below a and b in the dominance order.

    A size-mismatched pair denotes zero and yields the empty combination.
    The expansion of the output equals the expansion of the input exactly.
    """
    a, b = check_ground(n, a, b)
    if len(a) != len(b):
        return LaplaceCombination(n)
    full = (1 << n) - 1
    return LaplaceCombination._from_canonical(
        n, (((from_mask(p & full), from_mask(p >> n)), c) for p, c in _straighten(a, b, n)))


def _straighten(a: IndexSet, b: IndexSet, n: int) -> tuple:
    key = (a, b, n)
    hit = _STRAIGHTEN_CACHE.get(key)
    if hit is not None:
        return hit

    if is_good(a, n) and is_good(b, n):
        result = ((a | b << n, 1),)
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
        d = b.union(prefix)
        c = IndexSet(prefix + b.elements[nu - 1:])
        rel = relation_inclusion_exclusion(a, d, c, n)
        result = _eliminate(rel, a, b, n, require_row_drop=False)
    else:
        # Only the row set is bad: straighten the transposed product and swap
        # the coordinates back (a Laplace product is symmetric under
        # transposition together with swapping its index sets).
        full = (1 << n) - 1
        result = tuple(((p >> n) | (p & full) << n, coeff) for p, coeff in _straighten(b, a, n))

    _STRAIGHTEN_CACHE[key] = result
    return result


def _eliminate(rel: LaplaceCombination, a: IndexSet, b: IndexSet, n: int,
               require_row_drop: bool):
    """Solve a vanishing combination for its (a, b) term and recurse on the
    remaining terms, which must sit strictly lower in the order. The sums
    are keyed by pair code, so the work grows with the pairs reached, not
    with the ground."""
    eps = rel.coefficient(a, b)
    if eps not in (1, -1):
        raise RuntimeError(
            f"target {a}|{b} does not appear with unit coefficient in {rel}; this is a bug"
        )
    acc: dict = {}
    get = acc.get
    for (u, w), coeff in rel._terms.items():
        if u == a and w == b:
            continue
        # Strict decrease in the pair order at every recursion edge is what
        # makes the recursion terminate.
        if not ((lt(u, a) if require_row_drop else leq(u, a)) and lt(w, b)):
            raise RuntimeError(f"no strict drop from {a}|{b} to {u}|{w}; this is a bug")
        scale = -eps * coeff
        for p, inner in _straighten(u, w, n):
            acc[p] = get(p, 0) + scale * inner
    return tuple(filter(itemgetter(1), acc.items()))


def straighten_pair(first: Minor, second: Minor,
                    m: int | None = None, n: int | None = None) -> WordCombination:
    """Rewrite a product of two minors of an m x n matrix.

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
    is preserved per term as multisets.
    """
    check_bounds((first, second), m, n)
    if first.is_zero or second.is_zero:
        return WordCombination()
    if leq_pair((first.rows, first.cols), (second.rows, second.cols)):
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
