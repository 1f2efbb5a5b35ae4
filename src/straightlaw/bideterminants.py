"""Minors and Laplace products of a generic matrix, their exact polynomial
expansions (the brute-force oracle used to certify every identity), the
permutation-matrix criterion for linear relations, and the generators of the
relation families the straightening algorithms consume."""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Iterator, Tuple

from .indexsets import (
    EMPTY,
    IndexSet,
    check_ground,
    complement,
    from_mask,
    full_set,
    is_good,
    laplace_sign,
    parity_sign,
    permutation_sign,
    subsets_between,
)
from .polynomials import Combination, Polynomial, monomial, nonzero, xvar

# Ground bound for the permutation criterion (Catalan(n) basis, proven per ground).
SIGMA_CHECK_MAX_GROUND = 8
# Width of one basis permutation's field in a packed sigma row, and the bound
# on the sum of |coefficient| below which a packed total decides exactly.
_SIGMA_FIELD = 32
SIGMA_CHECK_COEFF_LIMIT = 1 << (_SIGMA_FIELD - 1)


class Minor(namedtuple("Minor", ("rows", "cols"))):
    """The minor with row set A and column set B of a generic matrix.

    A minor is the plain (rows, cols) tuple of its two index sets: it equals
    that tuple and hashes like it, so the pair order (leq_pair) takes it as
    it is. Other iterables are converted to IndexSets. When |A| != |B| the
    minor denotes the zero element; ([|]) with both sets empty denotes the
    constant 1.
    """

    __slots__ = ()

    def __new__(cls, rows, cols):
        return tuple.__new__(cls, (rows if isinstance(rows, IndexSet) else IndexSet(rows),
                                   cols if isinstance(cols, IndexSet) else IndexSet(cols)))

    @property
    def is_zero(self) -> bool:
        return len(self.rows) != len(self.cols)

    @property
    def is_unit(self) -> bool:
        return not self.rows and not self.cols

    def sort_key(self):
        """Also the sort key of a plain (rows, cols) pair."""
        return (self[0].elements, self[1].elements)

    def __str__(self) -> str:
        return _format_pair(self.rows, self.cols, "[]")

    def __repr__(self) -> str:
        return f"Minor({self.rows!r}, {self.cols!r})"


def _format_pair(rows: IndexSet, cols: IndexSet, brackets: str) -> str:
    r = " ".join(map(str, rows.elements))
    c = " ".join(map(str, cols.elements))
    return f"{brackets[0]}{r}|{c}{brackets[1]}"


@lru_cache(maxsize=None)
def _expand_minor(rows: IndexSet, cols: IndexSet) -> Polynomial:
    """expand_minor on a row and a column set."""
    if len(rows) != len(cols):
        return Polynomial.zero()
    return Polynomial(
        (monomial({xvar(r, c): 1 for r, c in zip(rows.elements, perm)}), permutation_sign(perm))
        for perm in itertools.permutations(cols.elements)
    )


def expand_minor(minor: Minor) -> Polynomial:
    """Leibniz expansion of a minor: the signed sum over all bijections from
    its row set to its column set; 1 for ([|]), 0 on a size mismatch."""
    return _expand_minor(minor.rows, minor.cols)


# A word is an ordered product of minors. The zero word (any factor with a
# row/column size mismatch) is represented by absence, never stored.
MinorWord = Tuple[Minor, ...]


def canonicalize(word: Iterable[Minor]) -> MinorWord | None:
    """Drop unit factors ([|]); return None when any factor is
    size-mismatched (the word is the zero element). Factor order is kept."""
    kept = []
    for f in word:
        if f.is_zero:
            return None
        if not f.is_unit:
            kept.append(f)
    return tuple(kept)


@lru_cache(maxsize=None)
def expand_word(word: MinorWord) -> Polynomial:
    """The product of the factors' Leibniz expansions, as the product of the
    cached expansions of the word's two halves. Every prefix and suffix of a
    standard word is standard, so a sweep that expands shorter words first
    pays one multiply per word; the recursion is log2(len(word)) deep."""
    if len(word) < 2:
        return _expand_minor(*word[0]) if word else Polynomial.one()
    half = len(word) // 2
    return expand_word(word[:half]) * expand_word(word[half:])


def format_word(word: MinorWord) -> str:
    return "".join(map(str, word)) or "[|]"


def word_order(word: MinorWord) -> tuple:
    """Sort key of a word: its factors' (rows, cols) in sequence."""
    return tuple(f.sort_key() for f in word)


class WordCombination(Combination):
    """Integer linear combination of canonical minor words."""

    __slots__ = ()
    _canonical = staticmethod(canonicalize)
    _sort_key = staticmethod(word_order)
    _expand_key = staticmethod(expand_word)
    _format_key = staticmethod(format_word)


@lru_cache(maxsize=None)
def _expand_laplace(rows: IndexSet, cols: IndexSet, ground: int) -> Polynomial:
    if len(rows) != len(cols):
        return Polynomial.zero()
    inner = _expand_minor(rows, cols)
    outer = _expand_minor(complement(rows, ground), complement(cols, ground))
    return (inner * outer) * laplace_sign(rows, cols)


def expand_laplace(rows, cols, ground: int) -> Polynomial:
    """The Laplace product {rows|cols} on a ground x ground matrix: the
    product of the minor and its complementary minor, with the sign
    (-1)**(sum rows + sum cols)."""
    return _expand_laplace(*check_ground(ground, rows, cols), ground)


def eval_on_permutation(rows, cols, sigma) -> int:
    """Value of the Laplace product {rows|cols} over the ground len(sigma) on
    the 0/1 matrix with entry 1 at (i, sigma(i)): the sign of sigma if sigma
    maps the row set onto the column set, 0 otherwise."""
    sigma = tuple(sigma)
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {sigma!r}")
    rows, cols = check_ground(n, rows, cols)
    if {sigma[a - 1] for a in rows} != set(cols.elements):
        return 0
    return permutation_sign(sigma)


class LaplaceCombination(Combination):
    """Integer linear combination of Laplace products over one ground size.

    Keys are (row set, column set) pairs; size-mismatched pairs denote zero
    and are never stored, nor are zero coefficients.
    """

    __slots__ = ("ground",)

    def __init__(self, ground: int, terms=()):
        check_ground(ground)
        self.ground = ground
        super().__init__(terms)

    @classmethod
    def _from_blocks(cls, ground: int, blocks: Iterable) -> "LaplaceCombination":
        """A combination from (row sets, column sets, coeff) blocks, every
        pair of a block's product taking its coeff. Keys must already be
        canonical: size-matched IndexSet pairs inside a checked ground, as
        the relation builders emit them. Terms keep the order of their first
        key, rows outer and columns inner within a block."""
        keys: list = []
        coeffs: list = []
        for us, ws, coeff in blocks:
            start = len(keys)
            keys += itertools.product(us, ws)
            coeffs += repeat(coeff, len(keys) - start)
        terms = dict(zip(keys, coeffs))
        if len(terms) < len(keys):  # some key repeats: sum, then drop zeros
            acc = dict.fromkeys(terms, 0)
            for key, coeff in zip(keys, coeffs):
                acc[key] += coeff
            terms = nonzero(acc)
        out = cls.__new__(cls)
        out.ground = ground
        out._terms = terms
        return out

    def _canonical(self, key):
        a, b = check_ground(self.ground, *key)
        return (a, b) if len(a) == len(b) else None

    _sort_key = staticmethod(Minor.sort_key)

    def coefficient(self, rows, cols) -> int:
        return super().coefficient((rows, cols))

    def __eq__(self, other) -> bool:
        return super().__eq__(other) is True and self.ground == other.ground

    def _expand_key(self, key) -> Polynomial:
        return _expand_laplace(key[0], key[1], self.ground)

    @staticmethod
    def _format_key(key) -> str:
        return _format_pair(key[0], key[1], "{}")

    def __repr__(self) -> str:
        return f"LaplaceCombination(n={self.ground}, {self})"


@lru_cache(maxsize=None, typed=True)
def _between(lower: IndexSet, upper: IndexSet, size: int | None = None) -> tuple[IndexSet, ...]:
    """subsets_between(lower, upper, size) as a tuple, for the relation
    builders, which ask for a few thousand distinct enumerations hundreds of
    thousands of times. typed: an IndexSet equals its mask as an int."""
    return tuple(subsets_between(lower, upper, size))


def _avoiding_231(n: int) -> list[tuple[int, ...]]:
    """The permutations of {0..n-1} (as value tuples, position i first)
    with no positions i < j < k and sigma(k) < sigma(i) < sigma(j): the
    maximum at any position k, the values 0..k-1 before it and the values
    k..n-2 after it, each side 231-avoiding. There are Catalan(n) of them."""
    if n == 0:
        return [()]
    top = n - 1
    return [left + (top,) + tuple(k + v for v in right)
            for k in range(n)
            for left in _avoiding_231(k)
            for right in _avoiding_231(n - 1 - k)]


def _images(perm: tuple[int, ...]) -> list[int]:
    """The image mask of every position mask under perm, indexed by mask."""
    images = [0] * (1 << len(perm))
    for a in range(1, len(images)):
        low = a & -a
        images[a] = images[a ^ low] | 1 << perm[low.bit_length() - 1]
    return images


def _good_pairs(n: int) -> list[int]:
    """Codes a | b << n of the size-matched pairs (a, b) at ground n with a
    and b both good: the pairs straighten_laplace writes every product in."""
    good = [s for s in _between(EMPTY, full_set(n)) if is_good(s, n)]
    return [a | b << n for a in good for b in good if len(a) == len(b)]


def _prove_basis(perms: list[tuple[int, ...]], n: int) -> None:
    """Raise RuntimeError unless the evaluation rows of perms span the rows
    of every permutation of {0..n-1}.

    E has a row per permutation sigma and a column per size-matched pair
    (a, b), with entry sign(sigma) when sigma maps a onto b and 0 otherwise;
    a combination vanishes iff E kills its coefficient vector. E_S is E on
    the rows of perms. ker E <= ker E_S always. By the straightening law the
    good Laplace products span them all, and evaluation is linear, so every
    column of E is a combination of good-pair columns: rank E <= g, the
    number of good pairs. Here we check that len(perms) == g and that E_S on
    the good-pair columns has rank g over GF(2), hence over Q (a rational
    dependency, scaled to coprime integers, stays nontrivial mod 2; signs
    vanish mod 2). Then rank E_S = rank E, and ker E_S = ker E.
    """
    column = {code: j for j, code in enumerate(_good_pairs(n))}
    if len(perms) != len(column):
        raise RuntimeError(
            f"sigma basis at ground {n} has {len(perms)} permutations for {len(column)} good pairs")
    pivots: dict[int, int] = {}
    for perm in perms:
        if sorted(perm) != list(range(n)):
            raise RuntimeError(f"sigma basis at ground {n} holds a non-permutation {perm!r}")
        row = 0
        for a, b in enumerate(_images(perm)):
            j = column.get(a | b << n)
            if j is not None:
                row |= 1 << j
        while row and row.bit_length() in pivots:
            row ^= pivots[row.bit_length()]
        if not row:
            raise RuntimeError(f"sigma basis at ground {n} is not independent over GF(2)")
        pivots[row.bit_length()] = row


@lru_cache(maxsize=None)
def _sigma_basis(n: int) -> tuple[int, dict[int, tuple[int, ...]]]:
    """The size of the proven 231-avoiding basis at ground n, and for every
    pair code a | b << n that some basis permutation realises, the indices
    of the basis permutations mapping the position set a onto the value set
    b. Built on the first check at a ground: 8,448 entries at n = 6, 54,912
    at n = 7 and 366,080 at n = 8."""
    perms = _avoiding_231(n)
    _prove_basis(perms, n)
    table: dict[int, list[int]] = {}
    for i, perm in enumerate(perms):
        for a, b in enumerate(_images(perm)):
            table.setdefault(a | b << n, []).append(i)
    return len(perms), {code: tuple(found) for code, found in table.items()}


@lru_cache(maxsize=None)
def _matching_perms_cached(rows: IndexSet, cols: IndexSet, n: int) -> int:
    """The packed sigma row of a (row set, column set) pair: the sum of
    2**(32 * i) over the indices i of the basis permutations (see
    _sigma_basis) mapping the row set onto the column set; 0 when none
    does, as for a size mismatch. Built on first use from the index table,
    so a check builds only the rows of the pairs it meets. A row takes up to
    4 * Catalan(n) bytes; the rows of all size-matched pairs, which a sweep
    of every family builds, take 0.4 MiB at n = 6, 4.4 MiB at n = 7 and
    54 MiB at n = 8."""
    return sum(1 << _SIGMA_FIELD * i for i in _sigma_basis(n)[1].get(rows | cols << n, ()))


def check_relation(rel: LaplaceCombination) -> bool:
    """Permutation criterion: the combination vanishes identically iff for
    every permutation sigma the coefficients of the terms whose row set maps
    onto their column set sum to zero.

    It suffices to test the Catalan(n) 231-avoiding permutations: their
    evaluation rows are proven, once per ground, to span those of all of
    S_n (see _prove_basis); every check proves the basis at its ground
    first, even for an empty combination. The sums are taken all at once:
    each term adds coeff times its packed sigma row (_matching_perms_cached),
    one 32-bit field per basis permutation. Every field's sum lies within
    the sum of |coeff|; while that is below SIGMA_CHECK_COEFF_LIMIT (2**31),
    a packed total of such fields is 0 only if every field is. Refuses
    ground sizes above SIGMA_CHECK_MAX_GROUND and combinations whose sum of
    |coeff| reaches SIGMA_CHECK_COEFF_LIMIT.
    """
    n = rel.ground
    if n > SIGMA_CHECK_MAX_GROUND:
        raise ValueError(
            f"permutation criterion refused for ground size {n} > {SIGMA_CHECK_MAX_GROUND}"
        )
    terms = rel._terms
    weight = sum(map(abs, terms.values()))
    if weight >= SIGMA_CHECK_COEFF_LIMIT:
        raise ValueError(
            f"permutation criterion refused for a coefficient sum {weight} >= 2**{_SIGMA_FIELD - 1}"
        )
    _sigma_basis(n)  # proves the basis, also for an empty combination
    total = 0
    for (a, b), coeff in terms.items():
        row = _matching_perms_cached(a, b, n)
        if coeff == 1:  # most terms: skip the big-int product
            total += row
        elif coeff == -1:
            total -= row
        else:
            total += coeff * row
    return not total


def relation_fundamental(a: IndexSet, b: IndexSet, n: int) -> LaplaceCombination:
    """The basic vanishing combination for a pair (a, b) (Theorem 1): summing
    over column subsets of b minus summing over row supersets of a. It is
    the inclusion-exclusion relation with the empty set pinned."""
    return relation_inclusion_exclusion(a, b, EMPTY, n)


def relation_inclusion_exclusion(a: IndexSet, b: IndexSet, c: IndexSet, n: int) -> LaplaceCombination:
    """Signed refinement of the fundamental relation by a pinned subset c of
    b: column sets range over c <= v <= b on one side, while the other side
    alternates over subsets w of c removed from b."""
    a, b, c = check_ground(n, a, b, c)
    return LaplaceCombination._from_blocks(n, inclusion_exclusion_blocks(a, b, c, n))


def inclusion_exclusion_blocks(a: IndexSet, b: IndexSet, c: IndexSet, n: int) -> list:
    """The blocks of relation_inclusion_exclusion: ((a,), the v with
    c <= v <= b and |v| = |a|, 1), then for every w <= c removed from b
    (the row sets u >= a of size |b - w|, (b - w,), -(-1)**|w|). A w with
    |b| - |w| < |a| adds nothing (no row set u >= a is that small) and is
    not visited. Callers pass IndexSets already checked against n."""
    blocks = [((a,), _between(c, b, len(a)), 1)]
    full = full_set(n)
    for size in range(min(len(c), len(b) - len(a)) + 1):
        sign = -parity_sign(size)
        for w in _between(EMPTY, c, size):
            bw = from_mask(b & ~w)
            blocks.append((_between(a, full, len(bw)), (bw,), sign))
    return blocks


def superset_blocks(a: IndexSet, b: IndexSet, n: int) -> list:
    """The superset part of relation_complementary, one block per column
    set: (the row sets u >= a of size |w|, (w,), (-1)**(n - |w|)) for every
    w >= b, starting with w = b. When |a| = |b| the w = b block holds a
    alone. Callers pass IndexSets already checked against n."""
    full = full_set(n)
    return [(_between(a, full, len(w)), (w,), parity_sign(n - len(w))) for w in _between(b, full)]


def relation_complementary(a: IndexSet, b: IndexSet, n: int) -> LaplaceCombination:
    """Superset-against-complement form: alternating sum over supersets
    (u, w) of (a, b) minus the sum over column subsets v of b taken against
    the complement of v. The second sum is empty when |a| + |b| < n."""
    a, b = check_ground(n, a, b)
    tail = ((a,), tuple(complement(v, n) for v in _between(EMPTY, b, n - len(a))), -1)
    return LaplaceCombination._from_blocks(n, superset_blocks(a, b, n) + [tail])


def laplace_expansion(fixed: IndexSet, n: int, side: str = "cols") -> LaplaceCombination:
    """Determinant minus its expansion over all complementary minors against
    a fixed column set (side="cols") or a fixed row set (side="rows")."""
    if side not in ("rows", "cols"):
        raise ValueError(f"side must be 'rows' or 'cols', got {side!r}")
    (fixed,) = check_ground(n, fixed)
    others = _between(EMPTY, full_set(n), len(fixed))
    block = (others, (fixed,), -1) if side == "cols" else ((fixed,), others, -1)
    return LaplaceCombination._from_blocks(n, [((EMPTY,), (EMPTY,), 1), block])


RELATION_FAMILIES = ("theorem1", "cor1", "cor2", "laplace")


def relation_family(n: int, family: str) -> Iterator[tuple[str, LaplaceCombination]]:
    """Every instance of one relation family on ground size n, as
    (label, combination) pairs."""
    if family not in RELATION_FAMILIES:
        raise ValueError(f"unknown relation family {family!r}; expected one of {RELATION_FAMILIES}")
    every = _between(EMPTY, full_set(n))
    label = {s: str(s) for s in every}
    if family in ("theorem1", "cor1"):
        # Every set comes from _between inside {1..n}: check the ground once
        # here, not once per relation in relation_inclusion_exclusion.
        check_ground(n)

    def inclusion_exclusion(a, b, c):
        return LaplaceCombination._from_blocks(n, inclusion_exclusion_blocks(a, b, c, n))

    if family == "theorem1":
        for a in every:
            for b in every:
                yield f"A={label[a]} B={label[b]}", inclusion_exclusion(a, b, EMPTY)
    elif family == "cor1":
        for b in every:
            for c in _between(EMPTY, b):
                for a in every:
                    yield f"A={label[a]} B={label[b]} C={label[c]}", inclusion_exclusion(a, b, c)
    elif family == "cor2":
        for a in every:
            for b in every:
                yield f"A={label[a]} B={label[b]}", relation_complementary(a, b, n)
    else:
        for side in ("cols", "rows"):
            for fixed in every:
                yield f"side={side} fixed={label[fixed]}", laplace_expansion(fixed, n, side)
