from __future__ import annotations

import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

import germlab
from germlab import Poly, PolyRing

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


def poly_strategy(ring: PolyRing, max_degree: int = 3, max_terms: int = 4) -> st.SearchStrategy[Poly]:
    exponent = st.integers(min_value=0, max_value=max_degree)
    exps = st.tuples(*[exponent] * ring.nvars)
    coeff = st.fractions(
        min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
    ).filter(lambda c: c != 0)
    terms = st.dictionaries(exps, coeff, min_size=0, max_size=max_terms)
    return terms.map(ring.from_terms)


def nonzero_poly_strategy(ring: PolyRing, **kw) -> st.SearchStrategy[Poly]:
    return poly_strategy(ring, **kw).filter(lambda p: not p.is_zero)
