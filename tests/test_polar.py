"""Relative polar curves, intersection numbers, gap ratios, thresholds, and
the polar decomposition of deformations."""

from __future__ import annotations

from fractions import Fraction

import pytest

from germlab import (
    BranchParam,
    ComponentMismatchError,
    ImproperIntersectionError,
    IdealPresentation,
    PolarCurve,
    gap_ratios,
    intersection_number,
    iomdin_threshold,
    relative_polar_ideal,
    verify_polar_decomposition,
)
from germlab.ideals import contains, ideal_equal, saturate_single
from germlab.invariants import T_RING
from germlab.orders import DEGREVLEX
from germlab.polar import jacobian_minors
from conftest import RING_XY, RING_XYZ
from oracles import sympy_saturation

x, y = RING_XY.variable(0), RING_XY.variable(1)
X, Y, Z = (RING_XYZ.variable(i) for i in range(3))
t = T_RING.variable(0)
o = T_RING.zero()
AXIS = BranchParam("axis", (o, o, t), host="polar")


class TestRelativePolarIdeal:
    def test_cylinder_polar_is_empty(self):
        curve = relative_polar_ideal(Z, X**2 + Y**2)
        assert curve.is_empty
        assert curve.ideal.generators == (RING_XYZ.one(),)

    def test_axis_polar_curve(self):
        curve = relative_polar_ideal(Z, X**2 + Y**2 + Z**3)
        assert curve.dim == 1
        target = IdealPresentation(RING_XYZ, [X, Y])
        assert ideal_equal(curve.ideal, target)

    def test_three_lines_polar_lands_in_critical_locus(self):
        curve = relative_polar_ideal(Z, X * Y * (X + Y))
        assert curve.is_empty

    def test_component_validation(self):
        curve = relative_polar_ideal(Z, X**2 + Y**2 + Z**3, components=[AXIS])
        assert curve.components == (AXIS,)
        bad = BranchParam("bad", (t, o, o), host="polar")
        with pytest.raises(ComponentMismatchError):
            relative_polar_ideal(Z, X**2 + Y**2 + Z**3, components=[bad])

    def test_must_vanish_at_origin(self):
        with pytest.raises(ValueError):
            relative_polar_ideal(Z + 1, X**2)

    def test_components_inside_g_zero_locus_are_removed(self):
        # the dependency locus of (z, x^2 + y^2 z) contains the y-axis, which
        # lies inside {g = 0} and must not survive into the polar curve
        curve = relative_polar_ideal(Z, X**2 + Y**2 * Z)
        assert curve.is_empty


class TestIntersectionNumber:
    def test_transverse_line_plane(self):
        axis = IdealPresentation(RING_XYZ, [X, Y])
        assert intersection_number(axis, Z) == 1

    def test_order_along_axis(self):
        g = X**2 + Y**2 + Z**3
        curve = relative_polar_ideal(Z, g, components=[AXIS])
        assert intersection_number(curve, g) == 3

    def test_cusp_against_line(self):
        cusp = IdealPresentation(RING_XY, [y**2 - x**3])
        assert intersection_number(cusp, x) == 2

    def test_improper_raises(self):
        axis = IdealPresentation(RING_XYZ, [X, Y])
        with pytest.raises(ImproperIntersectionError):
            intersection_number(axis, X)

    def test_component_mismatch_detected(self):
        # claim the scheme <x^2, y^3> is the reduced axis: orders disagree
        ideal = IdealPresentation(RING_XYZ, [X**2, Y**3])
        curve = PolarCurve(ideal, 1, (AXIS,))
        with pytest.raises(ComponentMismatchError):
            intersection_number(curve, Z)

    def test_declared_multiplicity_scales_orders(self):
        ideal = IdealPresentation(RING_XYZ, [X**2, Y**3])
        fat = BranchParam("axis", (o, o, t), host="polar", multiplicity=6)
        curve = PolarCurve(ideal, 1, (fat,))
        assert intersection_number(curve, Z) == 6


class TestGapRatios:
    def test_empty_polar_curve(self):
        curve = relative_polar_ideal(Z, X**2 + Y**2)
        report = gap_ratios(Z, X**2 + Y**2, curve)
        assert report.ratios == ()
        assert report.sound_bound == 2
        assert report.exact_max is None

    def test_axis_ratio(self):
        g = X**2 + Y**2 + Z**3
        curve = relative_polar_ideal(Z, g, components=[AXIS])
        report = gap_ratios(Z, g, curve)
        assert [(r.ord_g, r.ord_f) for r in report.ratios] == [(3, 1)]
        assert report.exact_max == 3
        assert report.sound_bound == 4

    def test_synthetic_line_ratio(self):
        line = PolarCurve(
            IdealPresentation(RING_XYZ, [Y, Z]),
            1,
            (BranchParam("line", (t, o, o), host="polar"),),
        )
        report = gap_ratios(X, X**3, line)
        assert report.ratios[0].ratio == 3


class TestIomdinThreshold:
    def test_empty_polar_convention(self):
        assert iomdin_threshold(Z, X**2 + Y**2) == 2

    def test_exact_ratio_three(self):
        g = X**2 + Y**2 + Z**3
        curve = relative_polar_ideal(Z, g, components=[AXIS])
        assert iomdin_threshold(Z, g, curve) == 4

    def test_fractional_ratios_round_up(self):
        # components with ratios 5/2 and 3: the smallest exponent beyond the
        # maximum is 4
        curve = PolarCurve(
            IdealPresentation(RING_XY, [x * y]),
            1,
            (
                BranchParam("h", (t, o), host="polar"),
                BranchParam("v", (o, t), host="polar"),
            ),
        )
        g = x**5 + y**3
        f = x**2 + y
        report = gap_ratios(f, g, curve)
        ratios = sorted(r.ratio for r in report.ratios)
        assert ratios == [Fraction(5, 2), Fraction(3)]
        assert iomdin_threshold(f, g, curve) == 4

    def test_sound_bound_without_components(self):
        g = X**2 + Y**2 + Z**3
        curve = relative_polar_ideal(Z, g)
        assert iomdin_threshold(Z, g, curve) == 4


class TestPolarDecomposition:
    @pytest.mark.parametrize("n", (2, 3, 5))
    def test_cylinder(self, n):
        assert verify_polar_decomposition(Z, X**2 + Y**2, n, components=[AXIS])

    @pytest.mark.parametrize("n", (2, 3, 5))
    def test_three_lines(self, n):
        assert verify_polar_decomposition(Z, X * Y * (X + Y), n, components=[AXIS])

    @pytest.mark.parametrize("n", (2, 3, 5))
    def test_axis_cubed(self, n):
        assert verify_polar_decomposition(Z, X**2 + Y**2 + Z**3, n)

    def test_failure_carries_witness(self):
        bad = BranchParam("off-locus", (t, o, o), host="sigma")
        verdict = verify_polar_decomposition(Z, X**2 + Y**2, 3, components=[bad])
        assert verdict.status == "FAIL"
        assert "off-locus" in verdict.witness

    def test_exponent_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            verify_polar_decomposition(Z, X**2 + Y**2, 1)


class TestPairingStability:
    def test_pairing_stable_beyond_threshold(self):
        g = X**2 + Y**2 + Z**3
        curve = relative_polar_ideal(Z, g, components=[AXIS])
        base = intersection_number(curve, g)
        assert base == 3
        for n in range(4, 11):
            assert intersection_number(curve, g + Z**n) == base

    def test_pairing_moves_below_threshold(self):
        g = X**2 + Y**2 + Z**3
        curve = relative_polar_ideal(Z, g, components=[AXIS])
        assert intersection_number(curve, g + Z**2) == 2 != 3


def test_saturation_idempotent_on_polar_ideals():
    cases = [
        (Z, X**2 + Y**2 * Z),
        (Z, X**2 + Y**2 + Z**3),
        (Z, X * Y * (X + Y)),
        (Z, X**3 + Y**4 + Z**5),
    ]
    for f, g in cases:
        curve = relative_polar_ideal(f, g)
        assert saturate_single(curve.ideal, f * g) is curve.ideal


# the Le-number germs of the benchmark's heavy tier, with the first generic
# linear form of the verifier's ladder
SYMPY_ORACLE_GERMS = (
    X**2 * Y**2 + X**2 * Z**2 + Y**2 * Z**2,
    Y**2 - X**3 + Z * X**2 * Y,
    X**2 * Y**2 + Z**3,
    X**3 + Y**3 + X * Y * Z,
)


@pytest.mark.parametrize("g", SYMPY_ORACLE_GERMS, ids=str)
def test_saturation_matches_sympy(g):
    pytest.importorskip("sympy")
    f = X + 2 * Y + 3 * Z
    minors = jacobian_minors(f, g)
    expected = sympy_saturation([m.terms for m in minors], (f * g).terms)
    sat = saturate_single(IdealPresentation(RING_XYZ, minors), f * g)
    assert ideal_equal(sat, IdealPresentation(RING_XYZ, map(RING_XYZ.from_terms, expected)))


def test_polar_generators_are_canonical():
    a = relative_polar_ideal(Z, X**2 + Y**2 + Z**3).ideal.generators
    b = relative_polar_ideal(Z, X**2 + Y**2 + Z**3).ideal.generators
    assert a == b
    assert all(contains(IdealPresentation(RING_XYZ, list(a)), g, DEGREVLEX) for g in (X, Y))
