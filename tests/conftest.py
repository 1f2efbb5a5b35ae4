"""Shared test helpers: independent brute-force oracles that never reuse the
code paths they are checking."""

from __future__ import annotations

import itertools
from fractions import Fraction

from straightlaw import IndexSet, Minor, Polynomial, monomial, variable_key, xvar


def inversion_sign(seq) -> int:
    """Permutation sign from a literal inversion count."""
    seq = list(seq)
    inv = sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )
    return -1 if inv % 2 else 1


def cofactor_expand(rows: tuple, cols: tuple) -> Polynomial:
    """Minor expansion by recursive cofactors along the first row; an
    independent route to the same polynomial as the Leibniz sum."""
    if len(rows) != len(cols):
        return Polynomial.zero()
    if not rows:
        return Polynomial.one()
    r0 = rows[0]
    total = Polynomial.zero()
    for pos, c in enumerate(cols):
        sub = cofactor_expand(rows[1:], cols[:pos] + cols[pos + 1:])
        term = Polynomial.var(xvar(r0, c)) * sub
        total = total + (term if pos % 2 == 0 else -term)
    return total


def masked_determinant(a: IndexSet, b: IndexSet, n: int) -> Polynomial:
    """Determinant of the n x n matrix whose entry (i, j) is x[i,j] when
    (i, j) lies in a x b or in the complementary block, and 0 otherwise."""
    a_set, b_set = set(a), set(b)
    def allowed(i, j):
        return (i in a_set) == (j in b_set)
    total = {}
    for perm in itertools.permutations(range(1, n + 1)):
        if all(allowed(i, perm[i - 1]) for i in range(1, n + 1)):
            mono = monomial({xvar(i, perm[i - 1]): 1 for i in range(1, n + 1)})
            total[mono] = total.get(mono, 0) + inversion_sign(perm)
    return Polynomial(total)


def reference_compare(a: dict, b: dict) -> int:
    """Block order on variable -> exponent dicts, written out: -1, 0 or +1
    from comparing exponents variable by variable, from the greatest variable
    (the smallest variable_key) downward; the first difference decides."""
    m1 = sorted(((v, e) for v, e in a.items() if e), key=lambda ve: variable_key(ve[0]))
    m2 = sorted(((v, e) for v, e in b.items() if e), key=lambda ve: variable_key(ve[0]))
    i = j = 0
    while i < len(m1) and j < len(m2):
        (v1, e1), (v2, e2) = m1[i], m2[j]
        k1, k2 = variable_key(v1), variable_key(v2)
        if k1 < k2:  # m1 owns the greater variable
            return 1
        if k2 < k1:
            return -1
        if e1 != e2:
            return 1 if e1 > e2 else -1
        i += 1
        j += 1
    if i < len(m1):
        return 1
    if j < len(m2):
        return -1
    return 0


def fraction_rank(rows) -> int:
    """Dense Gaussian elimination over Fractions; oracle for integer_rank."""
    cols = sorted({c for row in rows for c in (row.keys() if isinstance(row, dict) else range(len(row)))})
    col_pos = {c: i for i, c in enumerate(cols)}
    dense = []
    for row in rows:
        vec = [Fraction(0)] * len(cols)
        items = row.items() if isinstance(row, dict) else enumerate(row)
        for c, v in items:
            if v:
                vec[col_pos[c]] = Fraction(v)
        dense.append(vec)
    rank = 0
    for c in range(len(cols)):
        pivot = next((i for i in range(rank, len(dense)) if dense[i][c] != 0), None)
        if pivot is None:
            continue
        dense[rank], dense[pivot] = dense[pivot], dense[rank]
        pv = dense[rank][c]
        for i in range(len(dense)):
            if i != rank and dense[i][c] != 0:
                f = dense[i][c] / pv
                dense[i] = [x - f * y for x, y in zip(dense[i], dense[rank])]
        rank += 1
    return rank


def all_subsets(n: int):
    """Every subset of {1..n} as an IndexSet, independently enumerated."""
    out = []
    for r in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), r):
            out.append(IndexSet(combo))
    return out


def size_matched_minors(m: int, n: int, include_unit: bool = True):
    """All minors (a|b) with |a| = |b| on an m x n matrix."""
    out = []
    lo = 0 if include_unit else 1
    for k in range(lo, min(m, n) + 1):
        for a in itertools.combinations(range(1, m + 1), k):
            for b in itertools.combinations(range(1, n + 1), k):
                out.append(Minor(IndexSet(a), IndexSet(b)))
    return out
