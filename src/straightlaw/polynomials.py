"""Sparse exact multivariate polynomials over Python's arbitrary-precision
integers, in the matrix variables x[i,j] and the factor variables y[i,v],
z[j,v], together with the block variable order used for leading-term
arguments."""

from __future__ import annotations

import functools
from typing import Iterable, Mapping, Tuple

# A variable is a plain tuple: ('x', row, col), ('y', row, superscript) or
# ('z', col, superscript). A monomial is a tuple of (variable, exponent)
# pairs with positive exponents, sorted by descending variable (ascending
# variable_key); the empty tuple is the monomial 1.
Variable = Tuple[str, int, int]
Monomial = Tuple[Tuple[Variable, int], ...]

MONOMIAL_ONE: Monomial = ()


def xvar(i: int, j: int) -> Variable:
    return ("x", i, j)


def yvar(i: int, nu: int) -> Variable:
    return ("y", i, nu)


def zvar(j: int, nu: int) -> Variable:
    return ("z", j, nu)


def variable_key(v: Variable):
    """Sort key; a smaller key means a greater variable.

    y/z variables follow the block order
    y[1,1] > ... > y[m,1] > z[1,1] > ... > z[n,1] > y[1,2] > ...
    (superscript first, y-block before z-block, then index). x variables rank
    below every y/z variable and are ordered among themselves by (row, col).
    """
    kind = v[0]
    if kind == "y":
        return (0, v[2], 0, v[1])
    if kind == "z":
        return (0, v[2], 1, v[1])
    if kind == "x":
        return (1, v[1], v[2], 0)
    raise ValueError(f"unknown variable {v!r}")


def format_variable(v: Variable) -> str:
    return f"{v[0]}[{v[1]},{v[2]}]"


def monomial(exponents: Mapping[Variable, int] | Iterable[tuple[Variable, int]]) -> Monomial:
    """Canonical monomial from a variable -> exponent mapping."""
    items = exponents.items() if isinstance(exponents, Mapping) else exponents
    kept = []
    for v, e in items:
        if e < 0:
            raise ValueError(f"negative exponent {e} on {format_variable(v)}")
        if e:
            kept.append((v, e))
    kept.sort(key=lambda ve: variable_key(ve[0]))
    return tuple(kept)


def mul_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    acc = dict(m1)
    for v, e in m2:
        acc[v] = acc.get(v, 0) + e
    return monomial(acc)


def compare_monomials(m1: Monomial, m2: Monomial, key=variable_key) -> int:
    """-1, 0 or +1: compare exponents variable by variable, from the greatest
    variable downward; the first difference decides."""
    i = j = 0
    while i < len(m1) and j < len(m2):
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        k1, k2 = key(v1), key(v2)
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


def format_monomial(m: Monomial) -> str:
    if not m:
        return "1"
    parts = []
    for v, e in m:
        parts.append(format_variable(v) if e == 1 else f"{format_variable(v)}^{e}")
    return "*".join(parts)


class Combination:
    """Sparse integer linear combination: a map from keys to nonzero ints.

    The constructor takes a dict or an iterable of (key, coeff) pairs, sums
    the coefficients of equal keys and drops the zero sums. Instances are
    treated as immutable. A subclass fixes the kind of key through hooks:
    _canonical (the stored form of a key, or None for a key that denotes
    zero), _sort_key (the order of items()), _format_key or _format_term
    (the text of one term) and _expand_key (the polynomial a key denotes).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        canonical = self._canonical
        acc: dict = {}
        for key, coeff in terms.items() if isinstance(terms, dict) else terms:
            key = canonical(key)
            if key is not None:
                acc[key] = acc.get(key, 0) + coeff
        self._terms = nonzero(acc)

    @staticmethod
    def _canonical(key):
        return key

    def items(self) -> list:
        """Deterministically ordered list of (key, coefficient)."""
        sort_key = self._sort_key
        return sorted(self._terms.items(), key=lambda kv: sort_key(kv[0]))

    def coefficient(self, key) -> int:
        return self._terms.get(self._canonical(key), 0)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self._terms == other._terms
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def expand(self) -> "Polynomial":
        """The sum of coeff times the polynomial of key over all terms."""
        acc: dict = {}
        for key, coeff in self._terms.items():
            for mono, c in self._expand_key(key)._terms.items():
                acc[mono] = acc.get(mono, 0) + coeff * c
        return Polynomial._wrap(acc)

    def _format_term(self, key, mag: int) -> str:
        body = self._format_key(key)
        return body if mag == 1 else f"{mag}{body}"

    def __str__(self) -> str:
        pieces = []
        for key, coeff in self.items():
            text = self._format_term(key, abs(coeff))
            if pieces:
                pieces.append(("+ " if coeff > 0 else "- ") + text)
            else:
                pieces.append(text if coeff > 0 else f"-{text}")
        return " ".join(pieces) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


def nonzero(acc: dict) -> dict:
    """The entries of an accumulator whose sums did not cancel to zero."""
    return {k: c for k, c in acc.items() if c}


class Polynomial(Combination):
    """Sparse polynomial: a map from monomials to nonzero int coefficients.

    Every operation returns a new value, so polynomials can be shared and
    cached freely.
    """

    __slots__ = ()

    @classmethod
    def _wrap(cls, acc: dict) -> "Polynomial":
        """A polynomial from sums keyed by canonical monomials."""
        out = cls.__new__(cls)
        out._terms = nonzero(acc)
        return out

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({MONOMIAL_ONE: 1})

    @classmethod
    def constant(cls, c: int) -> "Polynomial":
        return cls({MONOMIAL_ONE: c})

    @classmethod
    def var(cls, v: Variable, exponent: int = 1) -> "Polynomial":
        return cls({monomial({v: exponent}): 1})

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Polynomial.constant(other)
        return super().__eq__(other)

    def terms(self) -> list[tuple[Monomial, int]]:
        """(monomial, coefficient) pairs in ascending tuple order."""
        return sorted(self._terms.items())

    # items() and the printed form list the greatest monomial first.
    _sort_key = staticmethod(functools.cmp_to_key(lambda a, b: compare_monomials(b, a)))

    def _format_term(self, mono: Monomial, mag: int) -> str:
        body = format_monomial(mono)
        if body == "1":
            return str(mag)
        return body if mag == 1 else f"{mag}*{body}"

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        data = dict(self._terms)
        for mono, coeff in other._terms.items():
            data[mono] = data.get(mono, 0) + coeff
        return Polynomial._wrap(data)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._wrap({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return Polynomial._wrap({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        data: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = mul_monomials(m1, m2)
                data[mono] = data.get(mono, 0) + c1 * c2
        return Polynomial._wrap(data)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        result = Polynomial.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def leading_monomial(self, key=variable_key) -> Monomial:
        """The greatest monomial present; raises on the zero polynomial."""
        if not self._terms:
            raise ValueError("the zero polynomial has no leading monomial")
        best = None
        for mono in self._terms:
            if best is None or compare_monomials(mono, best, key) > 0:
                best = mono
        return best

    def evaluate(self, values: Mapping[Variable, int]) -> int:
        """Exact integer evaluation; every variable present must be assigned."""
        total = 0
        for mono, coeff in self._terms.items():
            term = coeff
            for v, e in mono:
                if v not in values:
                    raise ValueError(f"no value supplied for {format_variable(v)}")
                term *= values[v] ** e
            total += term
        return total

    def substitute(self, images: Mapping[Variable, "Polynomial"]) -> "Polynomial":
        """Replace variables by polynomials; unmapped variables stay."""
        pow_cache: dict[tuple[Variable, int], Polynomial] = {}
        total = Polynomial.zero()
        for mono, coeff in self._terms.items():
            prod = Polynomial.constant(coeff)
            for v, e in mono:
                img = images.get(v)
                if img is None:
                    prod = prod * Polynomial.var(v, e)
                else:
                    p = pow_cache.get((v, e))
                    if p is None:
                        p = img ** e
                        pow_cache[(v, e)] = p
                    prod = prod * p
            total = total + prod
        return total
