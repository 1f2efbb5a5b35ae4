import functools
import itertools

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from straightlaw import (
    MONOMIAL_ONE,
    Polynomial,
    exponents,
    format_monomial,
    monomial,
    mul_monomials,
    variable_key,
    xvar,
    yvar,
    zvar,
)
from straightlaw.polynomials import VAR_ID_BITS

from conftest import evaluate, reference_compare, substitute

y11, y21, z11, z21 = yvar(1, 1), yvar(2, 1), zvar(1, 1), zvar(2, 1)

_POOL = (
    [yvar(i, v) for i in (1, 2, 3) for v in (1, 2)]
    + [zvar(j, v) for j in (1, 2, 3) for v in (1, 2)]
    + [xvar(i, j) for i in (1, 2) for j in (1, 2)]
)

monomials = st.dictionaries(st.sampled_from(_POOL), st.integers(1, 3), max_size=3).map(monomial)
polys = st.dictionaries(monomials, st.integers(-5, 5), max_size=4).map(Polynomial)


def test_variable_order_blocks():
    # y[1,1] > ... > y[m,1] > z[1,1] > ... > z[n,1] > y[1,2] > ...
    chain = [yvar(1, 1), yvar(2, 1), zvar(1, 1), zvar(2, 1), yvar(1, 2), zvar(1, 2)]
    keys = [variable_key(v) for v in chain]
    assert keys == sorted(keys)
    assert all(k1 != k2 for k1, k2 in itertools.combinations(keys, 2))


# Largest index or superscript that fits a variable id.
_BOUND = (1 << VAR_ID_BITS) - 1
_index = st.integers(1, 3) | st.integers(_BOUND - 1, _BOUND)
_var = st.sampled_from([xvar, yvar, zvar])
_exponent_dicts = st.dictionaries(st.builds(lambda var, i, j: var(i, j), _var, _index, _index),
                                  st.integers(0, 3), max_size=4)


@given(st.lists(_exponent_dicts, min_size=1, max_size=4), _var, st.booleans())
def test_id_order_matches_reference(dicts, var, past_row):
    monos = {monomial(d): {v: e for v, e in d.items() if e} for d in dicts}
    for (m1, d1), (m2, d2) in itertools.product(monos.items(), repeat=2):
        assert (m1 > m2) - (m1 < m2) == reference_compare(d1, d2)
    for mono, d in monos.items():
        assert exponents(mono) == d
    ordered = sorted(monos.values(), key=functools.cmp_to_key(reference_compare), reverse=True)
    p = Polynomial({mono: 1 for mono in monos})
    assert [monos[mono] for mono, _ in p.items()] == ordered
    assert monos[p.items()[0][0]] == ordered[0]
    past = var(_BOUND + 1, 1) if past_row else var(1, _BOUND + 1)
    with pytest.raises(ValueError):
        monomial({**dicts[0], past: 1})


def test_add_examples():
    p = Polynomial.var(xvar(1, 1)) * Polynomial.var(xvar(2, 2))
    assert p + Polynomial.zero() == p
    assert Polynomial.var(x := xvar(1, 1)) + (-Polynomial.var(x)) == 0
    assert p + p == 2 * p


def test_mul_examples():
    p = Polynomial.var(xvar(1, 1)) + 3
    assert p * Polynomial.one() == p
    x11, x12 = Polynomial.var(xvar(1, 1)), Polynomial.var(xvar(1, 2))
    assert x11 * x12 == Polynomial({monomial({xvar(1, 1): 1, xvar(1, 2): 1}): 1})
    assert (x11 - x12) * (x11 + x12) == x11 * x11 - x12 * x12


def test_compare_examples():
    assert monomial({y11: 1}) > monomial({y21: 1})
    m = monomial({y11: 2, z11: 1})
    assert m == monomial({y11: 2, z11: 1})
    # first differing variable is y[1,1] with exponents 1 vs 0
    assert monomial({y11: 1, y21: 1}) > monomial({y21: 2})


def test_leading_monomial_examples():
    p = Polynomial.var(y11) + Polynomial.var(y21)
    assert p.items()[0][0] == monomial({y11: 1})
    single = Polynomial({monomial({z21: 3}): -7})
    assert single.items()[0][0] == monomial({z21: 3})


@given(polys, polys)
@settings(deadline=None)
def test_leading_monomial_multiplicative(f, g):
    if not f or not g:
        return
    lead = mul_monomials(f.items()[0][0], g.items()[0][0])
    # brute force: compare against every monomial of the expanded product
    prod = f * g
    assert prod.items()[0][0] == lead
    for mono, _ in prod.items():
        assert lead >= mono


@given(monomials, monomials, monomials)
def test_order_respects_multiplication(a, b, c):
    # a < b implies ac < bc; the k-fold version follows by replacing factors
    # one at a time.
    ac, bc = mul_monomials(a, c), mul_monomials(b, c)
    assert (ac > bc) - (ac < bc) == (a > b) - (a < b)


@given(st.lists(st.tuples(monomials, monomials), min_size=1, max_size=4))
def test_factorwise_domination(pairs):
    # u_i <= v_i for all i with one strict gives a strict product comparison.
    us, vs = MONOMIAL_ONE, MONOMIAL_ONE
    strict = False
    for u, v in pairs:
        if u > v:
            u, v = v, u
        strict = strict or u < v
        us, vs = mul_monomials(us, u), mul_monomials(vs, v)
    assert us < vs if strict else us == vs


@given(polys, polys, polys)
@settings(deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Polynomial.zero() == p
    assert p * Polynomial.one() == p
    assert p - p == 0


def test_evaluate():
    x11, x22 = xvar(1, 1), xvar(2, 2)
    p = Polynomial.var(x11) * Polynomial.var(x22) - 3
    assert evaluate(p, {x11: 2, x22: 5}) == 7
    with pytest.raises(ValueError):
        evaluate(p, {x11: 2})


def test_substitute():
    x11 = Polynomial.var(xvar(1, 1))
    p = x11 * x11
    image = Polynomial.var(y11) * Polynomial.var(z11) + Polynomial.var(yvar(1, 2)) * Polynomial.var(zvar(1, 2))
    q = substitute(p, 2)
    assert q == image * image
    untouched = Polynomial.var(y21) * Polynomial.var(z21)
    assert substitute(untouched, 2) == untouched


def test_formatting():
    assert format_monomial(MONOMIAL_ONE) == "1"
    assert format_monomial(monomial({y11: 2, z11: 1})) == "y[1,1]^2*z[1,1]"
    assert str(Polynomial.zero()) == "0"
    p = Polynomial.var(xvar(1, 1)) * Polynomial.var(xvar(2, 2)) - Polynomial.var(xvar(1, 2)) * Polynomial.var(xvar(2, 1))
    assert str(p) == "x[1,1]*x[2,2] - x[1,2]*x[2,1]"


def test_terms_iteration_is_deterministic():
    p = Polynomial.var(y11) + 2 * Polynomial.var(z11) - Polynomial.var(y21)
    assert p.items() == p.items()
    q = Polynomial(dict(reversed(p.items())))
    assert q.items() == p.items()
