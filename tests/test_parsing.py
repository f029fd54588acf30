"""Grammar coverage and the parse/print round trip."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

from germlab import ParseError, PolyRing, parse_poly
from conftest import RING_XY, RING_XYZ, poly_strategy


def test_two_terms_over_three_variables():
    p = parse_poly("x^2 + y^2", PolyRing(("x", "y", "z")))
    assert len(p.terms) == 2
    assert p.ring.variables == ("x", "y", "z")


def test_product_expansion():
    p = parse_poly("x*y*(x + y)", PolyRing(("x", "y")))
    q = parse_poly("x^2*y + x*y^2", PolyRing(("x", "y")))
    assert p == q


def test_negative_exponent_rejected():
    with pytest.raises(ParseError, match="negative exponent"):
        parse_poly("x^-1", PolyRing(("x",)))


def test_unknown_identifier_with_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x + w", PolyRing(("x", "y")))
    assert err.value.column == 5


def test_implicit_multiplication_forbidden():
    with pytest.raises(ParseError):
        parse_poly("2x", PolyRing(("x",)))
    with pytest.raises(ParseError):
        parse_poly("x y", PolyRing(("x", "y")))


def test_exponent_cap():
    parse_poly("x^255", PolyRing(("x",)))
    with pytest.raises(ParseError, match="cap"):
        parse_poly("x^256", PolyRing(("x",)))


def test_rational_literals_and_unary_minus():
    p = parse_poly("-3/2*x + 1/3", PolyRing(("x",)))
    assert p.terms[(1,)] == Fraction(-3, 2)
    assert p.constant_term() == Fraction(1, 3)


def test_division_is_not_an_operator():
    with pytest.raises(ParseError):
        parse_poly("x/2", PolyRing(("x",)))


def test_lexical_error_position_multiline():
    with pytest.raises(ParseError) as err:
        parse_poly("x +\n $", PolyRing(("x",)))
    assert err.value.line == 2


def test_printing_examples():
    ring = RING_XY
    x, y = ring.variable(0), ring.variable(1)
    assert str(ring.zero()) == "0"
    assert str(x**2 * y + x * y**2) == "x^2*y + x*y^2"
    assert str(x * Fraction(-3, 2)) == "-3/2*x"
    assert str(x - y) == "x - y"


@settings(deadline=None)
@given(poly_strategy(RING_XYZ, max_degree=4, max_terms=5))
def test_round_trip(p):
    assert parse_poly(str(p), RING_XYZ) == p


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_poly("", PolyRing(("x",)))
    with pytest.raises(ParseError):
        parse_poly("x + ", PolyRing(("x",)))
