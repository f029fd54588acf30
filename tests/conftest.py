from __future__ import annotations

import operator
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

import germlab
from germlab import (
    DEGREVLEX,
    IdealPresentation,
    MonomialOrder,
    Poly,
    PolyRing,
    intersection_number,
    load_scenario,
    relative_polar_ideal,
)
from germlab.verifier import DeformationCase, ScenarioContext

# the directory this germlab was imported from, for child interpreters
GERMLAB_SRC = str(Path(germlab.__file__).resolve().parent.parent)

RING_XY = PolyRing(("x", "y"))
RING_XYZ = PolyRing(("x", "y", "z"))


def child_env() -> dict[str, str]:
    """The environment of a child `python -m germlab.cli` that imports the
    same germlab as the tests, installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (GERMLAB_SRC, env.get("PYTHONPATH"))))
    return env


@pytest.fixture
def ring_xy() -> PolyRing:
    return RING_XY


@pytest.fixture
def ring_xyz() -> PolyRing:
    return RING_XYZ


def deformation_case(g: Poly, f: Poly, n: int) -> tuple[ScenarioContext, DeformationCase]:
    """The run context of the scenario (g, f) and its deformation g + f^n."""
    scenario = load_scenario({"variables": list(g.ring.variables), "g": str(g), "f": str(f)})
    ctx = ScenarioContext(scenario)
    return ctx, ctx.case(n)


def per_n_m_tilde(f: Poly, g: Poly, n: int) -> int:
    """m~ of g + f^n by the per-N route: the polar curve of (f, g + f^n),
    saturated by f*(g + f^n), met with {f = 0} (0 when that curve is empty)."""
    curve = relative_polar_ideal(f, g + f**n)
    return 0 if curve.is_empty else intersection_number(curve, f)


def same_ideal(I: IdealPresentation, J: IdealPresentation) -> bool:
    """Whether I and J present one ideal: a reduced Groebner basis is unique
    (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, 2.7, Prop. 6)."""
    return I.standard_basis(DEGREVLEX) == J.standard_basis(DEGREVLEX)


def leading_monomial(p: Poly, order: MonomialOrder) -> tuple[int, ...]:
    """Exponent vector of the leading term; p must be nonzero."""
    return max(p.terms, key=order.key)


def mono_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True when the monomial with exponents a divides the one with b."""
    return all(map(operator.le, a, b))


def mono_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Exponent vector of the least common multiple of a and b."""
    return tuple(map(max, a, b))


def packed_divides(pk, a: int, b: int) -> bool:
    """Whether the monomial packed by pk as a divides the one packed as b:
    the kernel's test, one subtraction of raw fields whose guard bits
    survive exactly when no exponent of b is below a's."""
    return ((b | pk.guards) - (a & pk.raw)) & pk.guards == pk.guards


def mono_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Exponent vector of a/b; the caller guarantees divisibility."""
    return tuple(map(operator.sub, a, b))


def total_degree(p: Poly) -> int:
    """Maximal term degree; -1 for the zero polynomial."""
    return max((sum(e) for e in p.terms), default=-1)


def from_terms(ring: PolyRing, terms) -> Poly:
    """The polynomial with the given {exponents: coefficient} terms."""
    return sum((ring.monomial(e, c) for e, c in terms.items()), ring.zero())


def poly_strategy(ring: PolyRing, max_degree: int = 3, max_terms: int = 4) -> st.SearchStrategy[Poly]:
    exponent = st.integers(min_value=0, max_value=max_degree)
    exps = st.tuples(*[exponent] * ring.nvars)
    coeff = st.fractions(
        min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
    ).filter(lambda c: c != 0)
    terms = st.dictionaries(exps, coeff, min_size=0, max_size=max_terms)
    return terms.map(lambda t: from_terms(ring, t))


def nonzero_poly_strategy(ring: PolyRing, **kw) -> st.SearchStrategy[Poly]:
    return poly_strategy(ring, **kw).filter(lambda p: not p.is_zero)
