"""Linear-independence verification for standard monomials and completeness
of the fundamental relation family: exact integer rank of expansion matrices
over the generic matrix, plus the leading-witness route through the
factorization X = Y Z."""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from typing import Iterable

from .indexsets import IndexSet, is_good, leq, leq_pair, subsets
from .polynomials import (
    Monomial,
    Polynomial,
    exponents,
    monomial,
    monomial_part,
    mul_monomials,
    yvar,
    zvar,
)
from .bideterminants import (
    Minor,
    MinorWord,
    _expand_laplace,
    expand_word,
    relation_fundamental,
)
from .straightening import straighten_laplace

# Largest m and n verify_independence accepts.
INDEPENDENCE_MAX_DIM = 3


def minor_leading_monomial(a: IndexSet, b: IndexSet, N: int) -> Monomial:
    """Leading monomial, under the block order, of the minor (a|b) after the
    substitution X = Y Z through inner dimension N, with Y generic in y[i,v]
    and Z generic in z[j,v]: y[a_1,1]...y[a_p,p] * z[b_1,1]...z[b_p,p]. No
    substitution is performed; N only has to be at least p. The monomial is
    cached per (a, b); the checks run on every call."""
    if len(a) != len(b):
        raise ValueError(f"size mismatch: |{a}| != |{b}|")
    if N < len(a):
        raise ValueError(f"need N >= {len(a)}, got N={N}")
    return _leading_monomial(a, b)


@lru_cache(maxsize=None)
def _leading_monomial(a: IndexSet, b: IndexSet) -> Monomial:
    exps = {yvar(i, v): 1 for v, i in enumerate(a.elements, start=1)}
    exps.update((zvar(j, v), 1) for v, j in enumerate(b.elements, start=1))
    return monomial(exps)


def word_leading_witness(word: MinorWord, N: int) -> Monomial:
    """Product of the factors' leading monomials; for a standard word this is
    the leading monomial of the substituted product."""
    return mul_monomials(*(minor_leading_monomial(f.rows, f.cols, N) for f in word))


def decode_leading(mono: Monomial, kind: str) -> list[IndexSet]:
    """Recover the chain of index sets from a witness monomial built from
    y-variables (kind="rows") or z-variables (kind="cols").

    The longest set is peeled off first: its s-th element is the least index
    carrying superscript s. The indices of each superscript are kept sorted,
    with multiplicity, so peel t takes the t-th index of every superscript
    that still has one. Raises ValueError when the monomial is not a product
    of witness factors for a chain.
    """
    if kind == "rows":
        want = "y"
    elif kind == "cols":
        want = "z"
    else:
        raise ValueError(f"kind must be 'rows' or 'cols', got {kind!r}")
    by_sup: defaultdict[int, list[int]] = defaultdict(list)
    for (k, i, s), e in exponents(mono).items():
        if k != want:
            raise ValueError(f"expected only {want}-variables, found {k}[{i},{s}]")
        by_sup[s] += [i] * e
    if 0 in by_sup:  # the only superscript below 1: they are never negative
        raise ValueError("superscript 0 is below 1")
    columns = [sorted(by_sup.get(s, ())) for s in range(1, max(by_sup, default=0) + 1)]

    chain: list[IndexSet] = []
    for peel in zip_longest(*columns):
        elems = list(peel)
        while elems[-1] is None:
            elems.pop()
        if None in elems:
            raise ValueError(
                f"no variable with superscript {elems.index(None) + 1} while {len(elems)} is present")
        if not all(map(operator.lt, elems, elems[1:])):
            raise ValueError(f"peeled indices {elems} are not strictly increasing")
        chain.append(IndexSet(elems))

    for s, t in zip(chain, chain[1:]):
        if not leq(s, t):
            raise ValueError(f"decoded sets {s}, {t} do not form a chain")
    return chain


def integer_rank(rows: Iterable) -> int:
    """Exact rank of an integer matrix given as dense rows (sequences) or
    sparse rows (dicts keyed by column).

    Fraction-free row-by-row reduction against a pivot table: each row's
    lowest column is cancelled by integer cross-multiplication with the pivot
    row owning that column, until that column has no pivot (the row becomes
    one, divided by its content) or the row vanishes. Columns are numbered in
    order of first sight. No floating point anywhere.
    """
    col_id: dict = {}
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        r = {col_id.setdefault(c, len(col_id)): v for c, v in items if v}
        while r:
            lead = min(r)
            pivot = pivots.get(lead)
            if pivot is None:
                g = math.gcd(*r.values())
                pivots[lead] = {c: v // g for c, v in r.items()}
                break
            a, b = pivot[lead], r[lead]
            g = math.gcd(a, b)
            fa, fb = a // g, b // g
            if fa != 1:
                for c in r:
                    r[c] *= fa
            for c, v in pivot.items():
                w = r.get(c, 0) - fb * v
                if w:
                    r[c] = w
                else:
                    del r[c]
    return len(pivots)


def polynomial_rank(polys: Iterable[Polynomial]) -> int:
    """Exact rank of a family of polynomials as vectors of coefficients."""
    return integer_rank(p._terms for p in polys)


def nonzero_minors(m: int, n: int) -> list[Minor]:
    """All size-matched minors of an m x n matrix with at least one row."""
    out = []
    for k in range(1, min(m, n) + 1):
        for a in subsets(m, size=k):
            for b in subsets(n, size=k):
                out.append(Minor(a, b))
    return out


def standard_words(m: int, n: int, max_factors: int) -> list[MinorWord]:
    """All standard monomials with 1..max_factors non-unit factors on an
    m x n matrix, enumerated by chain extension."""
    minors = nonzero_minors(m, n)
    successors = {f: [g for g in minors if leq_pair(f, g)] for f in minors}
    out: list[MinorWord] = []
    frontier: list[MinorWord] = [(f,) for f in minors]
    for _ in range(max_factors):
        out.extend(frontier)
        frontier = [word + (g,) for word in frontier for g in successors[word[-1]]]
        if not frontier:
            break
    return out


@dataclass
class IndependenceReport:
    """Both verification routes for the standard monomials within bounds."""

    m: int
    n: int
    max_factors: int
    N: int
    word_count: int
    rank: int
    witnesses_distinct: bool
    decode_round_trip: bool

    @property
    def rank_matches(self) -> bool:
        return self.rank == self.word_count

    @property
    def independent(self) -> bool:
        return self.rank_matches and self.witnesses_distinct and self.decode_round_trip

    def summary(self) -> str:
        lines = [
            f"standard monomials on a {self.m}x{self.n} matrix, up to "
            f"{self.max_factors} factors: {self.word_count}",
            f"exact rank of the expansion matrix: {self.rank} "
            f"({'matches' if self.rank_matches else 'MISMATCH'})",
            f"leading witnesses (N={self.N}) pairwise distinct: {self.witnesses_distinct}",
            f"witness decoding recovers every chain: {self.decode_round_trip}",
            f"verdict: {'independent' if self.independent else 'FAILED'}",
        ]
        return "\n".join(lines)


def verify_independence(m: int, n: int, max_factors: int, factor_bound: int = 3) -> IndependenceReport:
    """Enumerate the standard monomials within the given bounds and certify
    their independence two ways: distinct decodable leading witnesses under
    X = Y Z with N = min(m, n), and an exact integer rank equal to their
    number. m and n may not exceed INDEPENDENCE_MAX_DIM."""
    if m > INDEPENDENCE_MAX_DIM or n > INDEPENDENCE_MAX_DIM:
        raise ValueError(f"dimensions {m}x{n} exceed the bound {INDEPENDENCE_MAX_DIM}")
    if max_factors > factor_bound:
        raise ValueError(f"max_factors {max_factors} exceeds the bound {factor_bound}; raise factor_bound to force")
    if m < 1 or n < 1 or max_factors < 1:
        raise ValueError("m, n and max_factors must be >= 1")
    N = min(m, n)

    words = standard_words(m, n, max_factors)
    rank = polynomial_rank(expand_word(w) for w in words)

    witnesses: set[Monomial] = set()
    decode_ok = True
    for w in words:
        wit = word_leading_witness(w, N)
        witnesses.add(wit)
        try:
            rows_chain = decode_leading(monomial_part(wit, "y"), "rows")
            cols_chain = decode_leading(monomial_part(wit, "z"), "cols")
        except ValueError:
            decode_ok = False
            continue
        if rows_chain != [f.rows for f in w] or cols_chain != [f.cols for f in w]:
            decode_ok = False

    return IndependenceReport(
        m=m,
        n=n,
        max_factors=max_factors,
        N=N,
        word_count=len(words),
        rank=rank,
        witnesses_distinct=len(witnesses) == len(words),
        decode_round_trip=decode_ok,
    )


@dataclass
class CompletenessReport:
    """Span and reduction facts for the Laplace products on one ground size."""

    n: int
    pair_count: int
    good_count: int
    rank_good: int
    rank_all: int
    fundamental_rank: int
    all_reduce_to_good: bool
    reductions_oracle_verified: bool

    @property
    def good_products_independent(self) -> bool:
        return self.rank_good == self.good_count

    @property
    def span_dimension_matches(self) -> bool:
        return self.rank_all == self.good_count

    @property
    def fundamental_relations_complete(self) -> bool:
        # The fundamental relations always lie in the kernel of the expansion
        # matrix; spanning it is exactly matching its dimension.
        return self.fundamental_rank == self.pair_count - self.rank_all

    @property
    def complete(self) -> bool:
        return (
            self.good_products_independent
            and self.span_dimension_matches
            and self.all_reduce_to_good
            and self.reductions_oracle_verified
            and self.fundamental_relations_complete
        )

    def summary(self) -> str:
        lines = [
            f"ground size {self.n}: {self.pair_count} size-matched pairs, "
            f"{self.good_count} good pairs",
            f"rank of good Laplace products: {self.rank_good} "
            f"({'independent' if self.good_products_independent else 'DEPENDENT'})",
            f"rank of all Laplace products: {self.rank_all} "
            f"({'equals good count' if self.span_dimension_matches else 'MISMATCH'})",
            f"every product straightens to good ones, oracle-verified: "
            f"{self.all_reduce_to_good and self.reductions_oracle_verified}",
            f"fundamental relations span the kernel: {self.fundamental_relations_complete} "
            f"(rank {self.fundamental_rank} vs kernel dimension {self.pair_count - self.rank_all})",
            f"verdict: {'complete' if self.complete else 'FAILED'}",
        ]
        return "\n".join(lines)


def verify_relation_completeness(n: int, ground_bound: int = 4) -> CompletenessReport:
    """Certify that the good Laplace products are an independent spanning set
    and that the fundamental relation family generates every linear relation
    among Laplace products on ground size n."""
    if n > ground_bound:
        raise ValueError(f"ground size {n} exceeds the bound {ground_bound}; raise ground_bound to force")
    if n < 1:
        raise ValueError("ground size must be >= 1")

    pairs = [
        (a, b)
        for k in range(0, n + 1)
        for a in subsets(n, size=k)
        for b in subsets(n, size=k)
    ]
    good = [(a, b) for (a, b) in pairs if is_good(a, n) and is_good(b, n)]

    all_reduce = True
    oracle_ok = True
    for a, b in pairs:
        combo = straighten_laplace(a, b, n)
        for (u, w), _ in combo.items():
            if not (is_good(u, n) and is_good(w, n)):
                all_reduce = False
        if combo.expand() != _expand_laplace(a, b, n):
            oracle_ok = False

    rank_good = polynomial_rank(_expand_laplace(a, b, n) for a, b in good)
    rank_all = polynomial_rank(_expand_laplace(a, b, n) for a, b in pairs)

    coord = {pair: idx for idx, pair in enumerate(pairs)}
    fundamental_rows = []
    for a in subsets(n):
        for b in subsets(n):
            rel = relation_fundamental(a, b, n)
            row = {coord[key]: c for key, c in rel.items()}
            if row:
                fundamental_rows.append(row)
    fundamental_rank = integer_rank(fundamental_rows)

    return CompletenessReport(
        n=n,
        pair_count=len(pairs),
        good_count=len(good),
        rank_good=rank_good,
        rank_all=rank_all,
        fundamental_rank=fundamental_rank,
        all_reduce_to_good=all_reduce,
        reductions_oracle_verified=oracle_ok,
    )
