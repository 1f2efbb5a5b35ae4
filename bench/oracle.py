"""Correctness checks that share no code with straightlaw.

Every identity the library produces is checked by evaluating both sides at a
seeded random integer matrix: each minor's determinant is computed once with
an exact fraction-free (Bareiss) elimination written here, and a product of
minors is a product of those integers. A wrong identity survives only if the
random point is a root of a nonzero polynomial of low degree, which the entry
range makes negligible. Order tests (dominance order, goodness, standardness)
are also written here from their definitions.

Index sets are plain tuples of increasing 1-based integers throughout.
"""

from __future__ import annotations

import itertools
import random

# Entries are drawn from [-ENTRY, ENTRY]; a nonzero polynomial of degree d
# vanishes at a uniform random point with probability at most d / (2*ENTRY+1).
ENTRY = 1 << 30


def random_matrix(rng: random.Random, m: int, n: int) -> list[list[int]]:
    return [[rng.randint(-ENTRY, ENTRY) for _ in range(n)] for _ in range(m)]


def determinant(mat: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix by Bareiss elimination."""
    a = [list(row) for row in mat]
    size = len(a)
    if size == 0:
        return 1
    sign, prev = 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, size):
            row_i, row_k = a[i], a[k]
            aik = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
        prev = pivot
    return sign * a[size - 1][size - 1]


class MinorTable:
    """Determinants of every size-matched minor of one integer matrix,
    including the empty minor (value 1)."""

    def __init__(self, mat: list[list[int]]):
        self.m = len(mat)
        self.n = len(mat[0]) if mat else 0
        self.values: dict[tuple[tuple, tuple], int] = {}
        for k in range(min(self.m, self.n) + 1):
            for rows in itertools.combinations(range(1, self.m + 1), k):
                for cols in itertools.combinations(range(1, self.n + 1), k):
                    sub = [[mat[r - 1][c - 1] for c in cols] for r in rows]
                    self.values[(rows, cols)] = determinant(sub)

    def minor(self, rows, cols) -> int:
        rows, cols = tuple(rows), tuple(cols)
        if len(rows) != len(cols):
            return 0
        return self.values[(rows, cols)]

    def word(self, factors) -> int:
        """Value of a product of minors given as (rows, cols) pairs."""
        out = 1
        for rows, cols in factors:
            out *= self.minor(rows, cols)
        return out

    def laplace(self, rows, cols) -> int:
        """Value of the signed complementary product on a square matrix:
        (-1)**(sum rows + sum cols) * (rows|cols) * (rows~|cols~)."""
        n = self.n
        rows, cols = tuple(rows), tuple(cols)
        if len(rows) != len(cols):
            return 0
        sign = -1 if (sum(rows) + sum(cols)) % 2 else 1
        return sign * self.minor(rows, cols) * self.minor(complement(rows, n), complement(cols, n))


def complement(s, n: int) -> tuple:
    inside = set(s)
    return tuple(i for i in range(1, n + 1) if i not in inside)


def leq(s, t) -> bool:
    """Dominance order: |s| >= |t| and the v-th element of s is at most the
    v-th element of t for every v <= |t|."""
    return len(s) >= len(t) and all(x <= y for x, y in zip(s, t))


def is_good(s, n: int) -> bool:
    return leq(s, complement(s, n))


def is_standard(factors) -> bool:
    """A word of (rows, cols) factors is standard when rows and columns both
    form chains in the dominance order."""
    return all(
        leq(f[0], g[0]) and leq(f[1], g[1]) for f, g in zip(factors, factors[1:])
    )


def content(factors) -> tuple:
    """Sorted row indices and sorted column indices, with multiplicity."""
    rows = sorted(i for f in factors for i in f[0])
    cols = sorted(j for f in factors for j in f[1])
    return tuple(rows), tuple(cols)


def count_standard_words(m: int, n: int, max_factors: int) -> int:
    """Number of standard words with 1..max_factors factors of size >= 1 on
    an m x n matrix, counted by dynamic programming over the last factor."""
    minors = [
        (rows, cols)
        for k in range(1, min(m, n) + 1)
        for rows in itertools.combinations(range(1, m + 1), k)
        for cols in itertools.combinations(range(1, n + 1), k)
    ]
    ending = {f: 1 for f in minors}
    total = len(minors)
    for _ in range(max_factors - 1):
        ending = {
            g: sum(c for f, c in ending.items() if leq(f[0], g[0]) and leq(f[1], g[1]))
            for g in minors
        }
        total += sum(ending.values())
    return total


def size_matched_pairs(n: int) -> list[tuple[tuple, tuple]]:
    """All (rows, cols) pairs of equal size over {1..n}, in a fixed order."""
    return [
        (a, b)
        for k in range(n + 1)
        for a in itertools.combinations(range(1, n + 1), k)
        for b in itertools.combinations(range(1, n + 1), k)
    ]
