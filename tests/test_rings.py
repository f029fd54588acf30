"""Arithmetic laws and calculus on sparse rational polynomials."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germlab import PolyRing, RingMismatchError
from conftest import RING_XY, RING_XYZ, from_terms, poly_strategy, total_degree

xy = poly_strategy(RING_XY)


def test_basic_construction(ring_xy):
    x, y = ring_xy.variable(0), ring_xy.variable(1)
    p = x**2 + y - 3
    assert total_degree(p) == 2
    assert p.constant_term() == -3
    assert (p - p).is_zero


def test_zero_coefficients_never_stored(ring_xy):
    x = ring_xy.variable(0)
    p = x + (-1) * x
    assert p.terms == {}
    q = from_terms(ring_xy, {(1, 0): 1, (0, 0): 0})
    assert (0, 0) not in q.terms


@settings(deadline=None)
@given(xy, xy, xy)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(deadline=None)
@given(xy, xy)
def test_leibniz_rule(p, q):
    for i in range(2):
        assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)


@settings(deadline=None)
@given(xy)
def test_pow_matches_repeated_product(p):
    assert p**0 == RING_XY.one()
    assert p**1 == p
    assert p**3 == p * p * p


def test_evaluate_and_substitute(ring_xyz):
    x, y, z = (ring_xyz.variable(i) for i in range(3))
    p = x * y + z**2
    assert p.evaluate([Fraction(1), Fraction(2), Fraction(3)]) == 11
    swapped = p.substitute(ring_xyz, [y, x, z])
    assert swapped == p
    collapsed = p.substitute(ring_xyz, [x, x, x])
    assert collapsed == x**2 + x**2


def test_ring_mismatch_raises(ring_xy, ring_xyz):
    with pytest.raises(RingMismatchError):
        ring_xy.variable(0) + ring_xyz.variable(0)


def test_immutable_and_hashable(ring_xy):
    x = ring_xy.variable(0)
    p = x + 1
    with pytest.raises(AttributeError):
        p.terms = {}
    assert hash(p) == hash(x + 1)
    assert len({p, x + 1, x}) == 2


def test_determinism_bit_identical(ring_xyz):
    x, y, z = (ring_xyz.variable(i) for i in range(3))

    def build():
        return str((x + 2 * y) * (y - z) ** 3 + x**4)

    assert build() == build()


def test_min_degree_is_germ_multiplicity(ring_xy):
    x, y = ring_xy.variable(0), ring_xy.variable(1)
    assert (x**2 + y**3).min_degree() == 2
    assert (x * y * (x + y)).min_degree() == 3


T = PolyRing(("t",))


def images_strategy(target: PolyRing, count: int):
    """Image vectors in the target ring, zero images included."""
    image = st.one_of(st.just(target.zero()), poly_strategy(target, max_degree=2, max_terms=3))
    return st.lists(image, min_size=count, max_size=count)


@settings(max_examples=150, deadline=None)
@given(st.data(), poly_strategy(RING_XYZ))
def test_packed_substitution_is_the_termwise_evaluation(data, p):
    # the packed route brings every kept term to one denominator and builds
    # one Fraction per output term; Poly arithmetic evaluates term by term.
    # Zero images are drawn too: the terms they multiply are skipped
    target = data.draw(st.sampled_from([T, RING_XY]), label="target")
    images = data.draw(images_strategy(target, 3), label="images")
    want = target.zero()
    for exps, c in p.terms.items():
        term = target.constant(c)
        for image, e in zip(images, exps):
            term = term * image**e
        want = want + term
    got = p.substitute(target, images)
    assert got.terms == want.terms
    assert stored_fractions(got)


def schoolbook(a: dict, b: dict, sign: int = 1, product: bool = False) -> dict:
    """a + sign*b, or a*b with product, term by term in Fractions, in the
    order Poly keeps: a monomial joins at its first nonzero sum and leaves
    when its sum cancels."""
    out: dict = {} if product else dict(a)
    pairs = (
        ((tuple(i + j for i, j in zip(ea, eb)), ca * cb) for ea, ca in a.items() for eb, cb in b.items())
        if product
        else ((e, sign * c) for e, c in b.items())
    )
    for e, c in pairs:
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def stored_fractions(p) -> bool:
    return all(type(c) is Fraction and c != 0 for c in p.terms.values())


# few monomials and non-integral coefficients, so that sums and products
# cancel often and denominators differ between terms
small = poly_strategy(RING_XY, max_degree=2, max_terms=4)
rational = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(lambda c: c.denominator > 1)


@settings(max_examples=100, deadline=None)
@given(small, small, rational)
def test_arithmetic_matches_schoolbook_fractions(p, q, c):
    q = q + p * c  # shares monomials with p
    for got, want in (
        (p + q, schoolbook(p.terms, q.terms)),
        (p - q, schoolbook(p.terms, q.terms, sign=-1)),
        (p * q, schoolbook(p.terms, q.terms, product=True)),
        (p * c, {e: k * c for e, k in p.terms.items()}),
    ):
        assert list(got.terms.items()) == list(want.items())
        assert stored_fractions(got)
    # (p + q)(p - q) = p^2 - q^2 cancels the cross terms
    assert (p + q) * (p - q) == p * p - q * q
    assert (p - p * 1).is_zero and (p * q - q * p).is_zero


@settings(max_examples=100, deadline=None)
@given(small, st.integers(0, 5))
def test_powers_match_schoolbook_fractions(p, n):
    want = {(0, 0): Fraction(1)}
    for _ in range(n):
        want = schoolbook(want, p.terms, product=True)
    got = p**n
    assert got.terms == want
    assert stored_fractions(got)
