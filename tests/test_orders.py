"""Monomial order semantics: global vs local ranking, multiplicativity, the
elimination block, the packed monomials of the kernel, and the per-order
leading-monomial cache."""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germlab.orders import DEGREVLEX, ELIM_FIRST, LOCAL, _DEGREE_LIMIT, leading_monomial, leading_term
from germlab.rings import mono_divides, mono_mul
from conftest import RING_XYZ, from_terms, nonzero_poly_strategy

exps3 = st.tuples(*[st.integers(min_value=0, max_value=5)] * 3)


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
    # the larger int is the larger monomial, the smaller one under LOCAL
    assert ((pb < pa) if order.is_local else (pa < pb)) == (order.key(a) < order.key(b))
    assert (pa == pb) == (a == b)
    assert pk.divides(pa, pb) == mono_divides(a, b)
    if sum(a) + sum(b) < _DEGREE_LIMIT:
        assert pa + pb == pk.pack(mono_mul(a, b))
    if sum(a) + sum(c) < _DEGREE_LIMIT:
        assert pk.divides(pa, pk.pack(mono_mul(a, c)))
    assert pk.unpack(pa) == a
    assert pk.degree(pa) == sum(a)
    if pk.degree_on_top:  # DEGREVLEX, LOCAL, and ELIM_FIRST in one variable
        d = data.draw(st.sampled_from([0, 1, sum(a), sum(a) + 1, _DEGREE_LIMIT]), label="corner")
        assert (pa < pk.corner(d)) == (sum(a) < d)


@settings(deadline=None, max_examples=60)
@given(
    nonzero_poly_strategy(RING_XYZ, max_degree=4, max_terms=6),
    st.lists(st.sampled_from(ORDERS), min_size=1, max_size=8),
)
def test_cached_leading_monomial_matches_a_fresh_scan(p, queries):
    # every order is asked on the same object, interleaved and repeated, so a
    # cache keyed by the polynomial alone would answer for the wrong order
    for order in [*ORDERS, *queries, *reversed(ORDERS)]:
        assert leading_monomial(p, order) == max(p.terms, key=order.key)


def test_zero_polynomial_keeps_raising():
    zero = RING_XYZ.zero()
    for _ in range(3):
        for order in ORDERS:
            for query in (leading_monomial, leading_term):
                with pytest.raises(ValueError):
                    query(zero, order)


def test_lead_cache_is_consistent_across_threads():
    polys = [
        from_terms(RING_XYZ, {(i % 5, j, (i + j) % 4): i + j + 1 for j in range(6)})
        for i in range(60)
    ]
    expected = [[max(p.terms, key=o.key) for o in ORDERS] for p in polys]
    wrong = []

    def worker(shift: int) -> None:
        for k, p in enumerate(polys):
            for m in range(len(ORDERS)):
                o = (m + shift) % len(ORDERS)
                if leading_monomial(p, ORDERS[o]) != expected[k][o]:
                    wrong.append((k, o))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
