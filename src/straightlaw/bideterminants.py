"""Minors and Laplace products of a generic matrix, their exact polynomial
expansions (the brute-force oracle used to certify every identity), the
permutation-matrix criterion for linear relations, and the generators of the
relation families the straightening algorithms consume."""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Iterator, Tuple

from .indexsets import (
    EMPTY,
    IndexSet,
    check_ground,
    complement,
    from_mask,
    laplace_sign,
    parity_sign,
    permutation_sign,
    subsets,
    subsets_between,
    supersets,
)
from .polynomials import Combination, Polynomial, monomial, nonzero, xvar

# Ground bound for the permutation criterion (n! enumeration).
SIGMA_CHECK_MAX_GROUND = 8
# Matching-permutation rank lists are cached up to this ground size; beyond
# it they are rebuilt for every term to keep memory flat.
_SIGMA_CACHE_MAX_GROUND = 6


class Minor:
    """The minor with row set A and column set B of a generic matrix.

    When |A| != |B| the minor denotes the zero element; ([|]) with both sets
    empty denotes the constant 1.
    """

    __slots__ = ("rows", "cols", "_hash")

    def __init__(self, rows, cols):
        self.rows = rows if isinstance(rows, IndexSet) else IndexSet(rows)
        self.cols = cols if isinstance(cols, IndexSet) else IndexSet(cols)
        self._hash = hash((self.rows, self.cols))

    @property
    def is_zero(self) -> bool:
        return len(self.rows) != len(self.cols)

    @property
    def is_unit(self) -> bool:
        return not self.rows and not self.cols

    @property
    def order(self) -> int:
        return len(self.rows)

    def sort_key(self):
        return (self.rows.elements, self.cols.elements)

    def __eq__(self, other) -> bool:
        if isinstance(other, Minor):
            return self.rows == other.rows and self.cols == other.cols
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return _format_pair(self.rows, self.cols, "[]")

    def __repr__(self) -> str:
        return f"Minor({self.rows!r}, {self.cols!r})"


def _format_pair(rows: IndexSet, cols: IndexSet, brackets: str) -> str:
    r = " ".join(map(str, rows.elements))
    c = " ".join(map(str, cols.elements))
    return f"{brackets[0]}{r}|{c}{brackets[1]}"


def check_bounds(minors: Iterable[Minor], m: int | None = None, n: int | None = None) -> None:
    """Raise ValueError at the first minor with a row index above m or a
    column index above n; a bound of None is not checked."""
    for f in minors:
        if m is not None and f.rows.elements and f.rows.elements[-1] > m:
            raise ValueError(f"row index {f.rows.elements[-1]} exceeds m={m}")
        if n is not None and f.cols.elements and f.cols.elements[-1] > n:
            raise ValueError(f"column index {f.cols.elements[-1]} exceeds n={n}")


class LaplaceProduct:
    """The signed two-minor product (A|B)(A~|B~) on an n x n matrix, where
    A~, B~ are complements in {1..n} and the sign is (-1)**(sum A + sum B)."""

    __slots__ = ("rows", "cols", "ground")

    def __init__(self, rows, cols, ground: int):
        self.rows, self.cols = check_ground(ground, rows, cols)
        self.ground = ground

    @property
    def is_zero(self) -> bool:
        return len(self.rows) != len(self.cols)

    def sign(self) -> int:
        return laplace_sign(self.rows, self.cols)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaplaceProduct):
            return (self.rows, self.cols, self.ground) == (other.rows, other.cols, other.ground)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.ground))

    def __str__(self) -> str:
        return _format_pair(self.rows, self.cols, "{}")

    def __repr__(self) -> str:
        return f"LaplaceProduct({self.rows!r}, {self.cols!r}, ground={self.ground})"


def leibniz(rows, cols, var) -> Polynomial:
    """Determinant of the matrix with entry var(r, c) in row r and column c,
    as the plain signed sum over all bijections from the increasing index
    sequence rows onto cols; 1 when both are empty, 0 on a size mismatch."""
    if len(rows) != len(cols):
        return Polynomial.zero()
    return Polynomial(
        (monomial({var(r, c): 1 for r, c in zip(rows, perm)}), permutation_sign(perm))
        for perm in itertools.permutations(cols)
    )


@lru_cache(maxsize=None)
def _expand_minor(rows: IndexSet, cols: IndexSet) -> Polynomial:
    return leibniz(rows.elements, cols.elements, xvar)


def expand_minor(minor: Minor, m: int | None = None, n: int | None = None) -> Polynomial:
    """Leibniz expansion of a minor: the signed sum over all bijections from
    its row set to its column set; 1 for ([|]), 0 on a size mismatch."""
    check_bounds((minor,), m, n)
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
    total = Polynomial.one()
    for f in word:
        total = total * _expand_minor(f.rows, f.cols)
    return total


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


def expand_laplace(lp: LaplaceProduct) -> Polynomial:
    """Signed product of a minor and its complementary minor."""
    return _expand_laplace(lp.rows, lp.cols, lp.ground)


def eval_on_permutation(lp: LaplaceProduct, sigma) -> int:
    """Value of a Laplace product on the 0/1 matrix with entry 1 at
    (i, sigma(i)): the sign of sigma if sigma maps the row set onto the
    column set, 0 otherwise."""
    sigma = tuple(sigma)
    n = lp.ground
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {sigma!r}")
    if lp.is_zero:
        return 0
    image = {sigma[a - 1] for a in lp.rows}
    if image != set(lp.cols.elements):
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
    def _from_canonical(cls, ground: int, terms: Iterable) -> "LaplaceCombination":
        """A combination from (key, coeff) pairs whose keys are already
        canonical: size-matched IndexSet pairs inside a checked ground, as
        the relation builders and straighten_laplace emit them."""
        acc: dict = {}
        for key, coeff in terms:
            acc[key] = acc.get(key, 0) + coeff
        out = cls.__new__(cls)
        out.ground = ground
        out._terms = nonzero(acc)
        return out

    def _canonical(self, key):
        a, b = check_ground(self.ground, *key)
        return (a, b) if len(a) == len(b) else None

    @staticmethod
    def _sort_key(key) -> tuple:
        return (key[0].elements, key[1].elements)

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


@lru_cache(maxsize=None)
def _perm_ranks(n: int) -> dict[int, int]:
    """Lexicographic rank of each permutation sigma of {1..n}, keyed by its
    code sum((sigma(i) - 1) * n**(i - 1)); the code of a permutation is the
    sum of the codes of its restrictions to a set of positions and to the
    complementary positions."""
    return {
        sum(v * n ** i for i, v in enumerate(perm)): rank
        for rank, perm in enumerate(itertools.permutations(range(n)))
    }


def _restriction_codes(rows: IndexSet, cols: IndexSet, n: int) -> list[int]:
    """Codes of all bijections from the positions rows onto the values cols."""
    weights = [n ** (r - 1) for r in rows.elements]
    return [sum(w * (c - 1) for w, c in zip(weights, perm))
            for perm in itertools.permutations(cols.elements)]


def matching_ranks(rows: IndexSet, cols: IndexSet, n: int) -> list[int]:
    """Lexicographic ranks of all permutations of {1..n} mapping the row set
    onto the column set."""
    if len(rows) != len(cols):
        return []
    rank = _perm_ranks(n)
    outer = _restriction_codes(complement(rows, n), complement(cols, n), n)
    return [rank[x + y] for x in _restriction_codes(rows, cols, n) for y in outer]


@lru_cache(maxsize=None)
def _matching_perms_cached(rows: IndexSet, cols: IndexSet, n: int) -> tuple[int, ...]:
    return tuple(matching_ranks(rows, cols, n))


def check_relation(rel: LaplaceCombination) -> bool:
    """Permutation criterion: the combination vanishes identically iff for
    every permutation sigma the coefficients of the terms whose row set maps
    onto their column set sum to zero.

    Every sigma in S_n is covered, by its lexicographic rank in a list of n!
    sums: sigmas matched by no term keep an empty sum. Refuses ground sizes
    above SIGMA_CHECK_MAX_GROUND (n! blow-up guard).
    """
    n = rel.ground
    if n > SIGMA_CHECK_MAX_GROUND:
        raise ValueError(
            f"permutation criterion refused for ground size {n} > {SIGMA_CHECK_MAX_GROUND}"
        )
    ranks_of = _matching_perms_cached if n <= _SIGMA_CACHE_MAX_GROUND else matching_ranks
    totals = [0] * math.factorial(n)
    for (a, b), coeff in rel._terms.items():
        for r in ranks_of(a, b, n):
            totals[r] += coeff
    return not any(totals)


def relation_fundamental(a: IndexSet, b: IndexSet, n: int) -> LaplaceCombination:
    """The basic vanishing combination for a pair (a, b): summing over column
    subsets of b minus summing over row supersets of a.

    Only size-matched terms are materialized; the result always expands to
    the zero polynomial.
    """
    a, b = check_ground(n, a, b)
    return LaplaceCombination._from_canonical(n, itertools.chain(
        (((a, v), 1) for v in subsets(b, size=len(a))),
        (((u, b), -1) for u in supersets(a, n, size=len(b))),
    ))


def relation_inclusion_exclusion(a: IndexSet, b: IndexSet, c: IndexSet, n: int) -> LaplaceCombination:
    """Signed refinement of the fundamental relation by a pinned subset c of
    b: column sets range over c <= v <= b on one side, while the other side
    alternates over subsets w of c removed from b."""
    a, b, c = check_ground(n, a, b, c)
    if c & ~b:
        raise ValueError(f"{c} is not contained in {b}")
    terms = [((a, v), 1) for v in subsets_between(c, b, size=len(a))]
    for w in subsets(c):
        sign = parity_sign(len(w))
        bw = from_mask(b & ~w)
        terms += (((u, bw), -sign) for u in supersets(a, n, size=len(bw)))
    return LaplaceCombination._from_canonical(n, terms)


def relation_complementary(a: IndexSet, b: IndexSet, n: int) -> LaplaceCombination:
    """Superset-against-complement form: alternating sum over supersets
    (u, w) of (a, b) minus the sum over column subsets v of b taken against
    the complement of v."""
    a, b = check_ground(n, a, b)
    terms = [
        ((u, w), parity_sign(n - len(w)))
        for w in supersets(b, n)
        for u in supersets(a, n, size=len(w))
    ]
    terms += (((a, complement(v, n)), -1) for v in subsets(b) if n - len(v) == len(a))
    return LaplaceCombination._from_canonical(n, terms)


def laplace_expansion(fixed: IndexSet, n: int, side: str = "cols") -> LaplaceCombination:
    """Determinant minus its expansion over all complementary minors against
    a fixed column set (side="cols") or a fixed row set (side="rows")."""
    if side not in ("rows", "cols"):
        raise ValueError(f"side must be 'rows' or 'cols', got {side!r}")
    (fixed,) = check_ground(n, fixed)
    terms = [((EMPTY, EMPTY), 1)]
    terms += (((s, fixed) if side == "cols" else (fixed, s), -1) for s in subsets(n, size=len(fixed)))
    return LaplaceCombination._from_canonical(n, terms)


RELATION_FAMILIES = ("theorem1", "cor1", "cor2", "laplace")


def relation_family(n: int, family: str) -> Iterator[tuple[str, LaplaceCombination]]:
    """Every instance of one relation family on ground size n, as
    (label, combination) pairs."""
    if family == "theorem1":
        for a in subsets(n):
            for b in subsets(n):
                yield f"A={a} B={b}", relation_fundamental(a, b, n)
    elif family == "cor1":
        for b in subsets(n):
            for c in subsets(b):
                for a in subsets(n):
                    yield f"A={a} B={b} C={c}", relation_inclusion_exclusion(a, b, c, n)
    elif family == "cor2":
        for a in subsets(n):
            for b in subsets(n):
                yield f"A={a} B={b}", relation_complementary(a, b, n)
    elif family == "laplace":
        for side in ("cols", "rows"):
            for fixed in subsets(n):
                yield f"side={side} fixed={fixed}", laplace_expansion(fixed, n, side)
    else:
        raise ValueError(f"unknown relation family {family!r}; expected one of {RELATION_FAMILIES}")
