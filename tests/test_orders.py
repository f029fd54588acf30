"""Monomial order semantics: global vs local ranking, multiplicativity, the
elimination block, the packed monomials of the kernel, and leading
monomials."""

from __future__ import annotations

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germlab.orders import DEGREVLEX, ELIM_FIRST, LOCAL, _DEGREE_LIMIT
from conftest import RING_XYZ, leading_monomial, mono_divides, packed_divides

exps3 = st.tuples(*[st.integers(min_value=0, max_value=5)] * 3)


def mono_mul(a, b):
    return tuple(map(operator.add, a, b))


def test_degrevlex_examples():
    # x^2 > x*y > y^2 at equal degree, and degree dominates
    assert DEGREVLEX.key((2, 0, 0)) > DEGREVLEX.key((1, 1, 0)) > DEGREVLEX.key((0, 2, 0))
    assert DEGREVLEX.key((0, 0, 3)) > DEGREVLEX.key((2, 0, 0))


def test_local_order_ranks_one_above_variables():
    one = (0, 0, 0)
    for mono in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 0)]:
        assert LOCAL.key(one) > LOCAL.key(mono)
    # within one degree the tie-break matches the global order
    assert LOCAL.key((2, 0, 0)) > LOCAL.key((1, 1, 0))


@settings(deadline=None)
@given(exps3, exps3, exps3)
def test_multiplicative_compatibility(a, b, c):
    shifted = lambda m: tuple(x + y for x, y in zip(m, c))
    for order in (DEGREVLEX, LOCAL):
        if order.key(a) > order.key(b):
            assert order.key(shifted(a)) > order.key(shifted(b))


def test_elimination_block_dominates():
    # any monomial containing the first variable beats any that does not
    assert ELIM_FIRST.key((1, 0, 0)) > ELIM_FIRST.key((0, 9, 9))


def test_leading_monomial_local_vs_global():
    ring = RING_XYZ
    x, z = ring.variable(0), ring.variable(2)
    p = x + z**3
    assert leading_monomial(p, DEGREVLEX) == (0, 0, 3)
    assert leading_monomial(p, LOCAL) == (1, 0, 0)
    with pytest.raises(ValueError):
        leading_monomial(ring.zero(), LOCAL)


ORDERS = [DEGREVLEX, LOCAL, ELIM_FIRST]


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.kind)
@settings(deadline=None, max_examples=300)
@given(st.data())
def test_packed_monomials_follow_the_order(order, data):
    # ELIM_FIRST packs up to four variables inside saturation
    nvars = data.draw(st.integers(1, 4), label="nvars")
    # small exponents collide and tie often; large ones reach the guard bits
    exponent = st.one_of(st.integers(0, 4), st.integers(0, (_DEGREE_LIMIT - 1) // nvars))
    monomial = st.tuples(*[exponent] * nvars)
    a, c = data.draw(monomial), data.draw(monomial)
    # a permutation of a ties with it in degree, so the lower fields decide
    b = data.draw(st.one_of(monomial, st.permutations(a).map(tuple)))
    pk = order._packing(nvars)
    pa, pb = pk.pack(a), pk.pack(b)
    # the sum over packed variables is the fields' big-endian encoding
    assert pa == int.from_bytes(pk.words.pack(*order._fields(a), *a), "big")
    # the larger int is the larger monomial, the smaller one under LOCAL
    assert ((pb < pa) if order.is_local else (pa < pb)) == (order.key(a) < order.key(b))
    assert (pa == pb) == (a == b)
    assert packed_divides(pk, pa, pb) == mono_divides(a, b)
    if sum(a) + sum(b) < _DEGREE_LIMIT:
        assert pa + pb == pk.pack(mono_mul(a, b))
    if sum(a) + sum(c) < _DEGREE_LIMIT:
        assert packed_divides(pk, pa, pk.pack(mono_mul(a, c)))
    assert pk.unpack(pa) == a
    assert pk.degree(pa) == sum(a)
    if pk.degree_on_top:  # DEGREVLEX, LOCAL, and ELIM_FIRST in one variable
        d = data.draw(st.sampled_from([0, 1, sum(a), sum(a) + 1, _DEGREE_LIMIT]), label="corner")
        assert (pa < pk.corner(d)) == (sum(a) < d)


def test_zero_polynomial_keeps_raising():
    zero = RING_XYZ.zero()
    for _ in range(3):
        for order in ORDERS:
            with pytest.raises(ValueError):
                leading_monomial(zero, order)
