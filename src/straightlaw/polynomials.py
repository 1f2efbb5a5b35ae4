"""Sparse exact multivariate polynomials over Python's arbitrary-precision
integers, in the matrix variables x[i,j] and the factor variables y[i,v],
z[j,v], together with the block variable order used for leading-term
arguments."""

from __future__ import annotations

from functools import cache
from itertools import chain, groupby
from typing import Mapping, Tuple

# A variable is a plain tuple: ('x', row, col), ('y', row, superscript) or
# ('z', col, superscript). A monomial is a descending tuple of int variable
# ids, each repeated once per unit of its exponent; () is the monomial 1. A
# greater variable has a larger id, so tuple order is the block order. Ids stay
# inside this module: read a monomial with exponents() and monomial_part().
Variable = Tuple[str, int, int]
Monomial = Tuple[int, ...]

MONOMIAL_ONE: Monomial = ()

# Width in bits of each of the four packed components of variable_key; an
# index or superscript outside 0..2**VAR_ID_BITS - 1 raises ValueError.
VAR_ID_BITS = 7
_FIELD_MASK = (1 << VAR_ID_BITS) - 1
_ID_TOP = (1 << 4 * VAR_ID_BITS) - 1


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


def _variable_id(v: Variable) -> int:
    """variable_key packed into four VAR_ID_BITS fields, taken from the top."""
    packed = 0
    for part in variable_key(v):
        if not 0 <= part <= _FIELD_MASK:
            raise ValueError(f"{format_variable(v)} has an index outside 0..{_FIELD_MASK}")
        packed = packed << VAR_ID_BITS | part
    return _ID_TOP - packed


@cache
def _variable(vid: int) -> Variable:
    """Inverse of _variable_id. Cached: there are at most 3 * 128**2 ids."""
    packed = _ID_TOP - vid
    first = packed >> 2 * VAR_ID_BITS & _FIELD_MASK
    second = packed >> VAR_ID_BITS & _FIELD_MASK
    index = packed & _FIELD_MASK
    if packed >> 3 * VAR_ID_BITS:
        return xvar(first, second)
    return zvar(index, first) if second else yvar(index, first)


def monomial(powers: Mapping[Variable, int]) -> Monomial:
    """Canonical monomial from a variable -> exponent mapping."""
    ids = []
    for v, e in powers.items():
        if e < 0:
            raise ValueError(f"negative exponent {e} on {format_variable(v)}")
        if e:
            ids += [_variable_id(v)] * e
    ids.sort(reverse=True)
    return tuple(ids)


def exponents(mono: Monomial) -> dict[Variable, int]:
    """The variable -> exponent mapping of a monomial, greatest variable first."""
    return {_variable(vid): len(list(run)) for vid, run in groupby(mono)}


def monomial_part(mono: Monomial, kind: str) -> Monomial:
    """The factor of a monomial in the variables of one kind: 'x', 'y' or 'z'."""
    return tuple(vid for vid in mono if _variable(vid)[0] == kind)


def mul_monomials(*monos: Monomial) -> Monomial:
    """The product of any number of monomials, joined and sorted once."""
    return tuple(sorted(chain.from_iterable(monos), reverse=True))


def format_monomial(m: Monomial) -> str:
    if not m:
        return "1"
    parts = []
    for v, e in exponents(m).items():
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
    def var(cls, v: Variable) -> "Polynomial":
        return cls({monomial({v: 1}): 1})

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Polynomial.constant(other)
        return super().__eq__(other)

    def items(self) -> list:
        """(monomial, coefficient) pairs, the greatest monomial first."""
        return sorted(self._terms.items(), reverse=True)

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
                mono = tuple(sorted(m1 + m2, reverse=True))  # mul_monomials(m1, m2), inlined
                data[mono] = data.get(mono, 0) + c1 * c2
        return Polynomial._wrap(data)

    __rmul__ = __mul__
