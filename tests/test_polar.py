"""Relative polar curves, intersection numbers, gap ratios, thresholds, and
the polar decomposition of deformations."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germlab import (
    BranchParam,
    ComponentMismatchError,
    ImproperIntersectionError,
    IdealPresentation,
    PolarCurve,
    gap_ratios,
    intersection_number,
    iomdin_threshold,
    load_fixture,
    relative_polar_ideal,
    verify_polar_decomposition,
)
from germlab.ideals import Budget, has_power_in, normal_form, saturate_single
from germlab.invariants import T_RING
from germlab.orders import DEGREVLEX
from germlab.polar import jacobian_minors
from conftest import RING_XY, RING_XYZ, nonzero_poly_strategy, same_ideal
from oracles import sympy_is_reduced_basis_of, sympy_saturation
from test_ideals import PROPERTY_CAP

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
        assert same_ideal(curve.ideal, target)

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

    def test_a_dependent_pair_has_the_whole_space_as_polar_locus(self):
        # d(x + y) and d((x + y)^2) are parallel everywhere, so no minor
        # survives: the zero ideal, whose locus is the plane, not an empty curve
        curve = relative_polar_ideal(x + y, (x + y) ** 2)
        assert curve.ideal.generators == (RING_XY.zero(),)
        assert curve.dim == 2 and not curve.is_empty

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

    def test_wrong_multiplicity_reports_the_exact_orders(self):
        # the true order 8 exceeds the total 1, and the message names it
        slow = BranchParam("slow", (o, o, t**8), host="polar")
        curve = PolarCurve(IdealPresentation(RING_XYZ, [X, Y]), 1, (slow,))
        message = (
            "component orders sum to 8 but the scheme-side intersection number "
            "is 1; the component list is incomplete or has wrong multiplicities"
        )
        with pytest.raises(ComponentMismatchError) as exc:
            intersection_number(curve, Z)
        assert str(exc.value) == message
        doubled = BranchParam("axis", (o, o, t), host="polar", multiplicity=2)
        curve = PolarCurve(IdealPresentation(RING_XYZ, [X**2, Y**3]), 1, (doubled,))
        with pytest.raises(ComponentMismatchError) as exc:
            intersection_number(curve, Z)
        assert str(exc.value).startswith("component orders sum to 2 but the scheme-side intersection number is 6;")

    def test_h_vanishing_on_a_component_is_improper(self):
        x_axis = BranchParam("x-axis", (t, o, o), host="polar")
        curve = PolarCurve(IdealPresentation(RING_XYZ, [X, Y]), 1, (AXIS, x_axis))
        with pytest.raises(ImproperIntersectionError) as exc:
            intersection_number(curve, Z)
        assert str(exc.value) == "z vanishes identically on component 'x-axis'"

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
        # at N = 2 the deformation of the double-axes fixture cancels its
        # -(x - y)^2, and the polar curve of (x - y, x^2 y^2) gains the line
        # x + y = 0, which lies in neither side of the decomposition
        scenario = load_fixture("double-axes")
        verdict = verify_polar_decomposition(scenario.f, scenario.g, 2, components=scenario.branches)
        assert verdict.status == "FAIL"
        assert verdict.witness == "no power of x + y lies in Jac(g) * polar(f, g)"

    def test_exponent_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            verify_polar_decomposition(Z, X**2 + Y**2, 1)


# Budget spends of verify_polar_decomposition, recorded once each radical
# membership became one saturation, again when the global completion took
# the chain criterion, and again when each deformed generator was tested
# against Jac(g) and polar(f, g) apart instead of their product, and again
# when the global completion took the local one's reduction loop, and again
# when global completions updated their pairs by Gebauer-Moeller, returned
# only the elimination ideal under ELIM_FIRST and let monomial generators
# strip their multiples (cylinder 43/41/41, three-lines 92/92/89, axis-cubed
# 76 and heavy 1744 before), and again when the Budget kept the bases it
# completed, so that the two polar ideals and Jac(g) are completed once per
# order (three-lines 44/44/41, axis-cubed 13, heavy 1020 before): equal
# counts mean the same eliminations select, skip and reduce the same pairs
DECOMPOSITION_SPENDS = {
    "cylinder": (Z, X**2 + Y**2, (AXIS,), {2: 9, 3: 9, 5: 9}),
    "three-lines": (Z, X * Y * (X + Y), (AXIS,), {2: 39, 3: 39, 5: 36}),
    "axis-cubed": (Z, X**2 + Y**2 + Z**3, (), {2: 12, 3: 12, 5: 12}),
    "heavy": (X + 2 * Y + 3 * Z, X**2 * Y**2 + X**2 * Z**2 + Y**2 * Z**2, (), {3: 1004}),
}


@pytest.mark.parametrize("name", DECOMPOSITION_SPENDS)
def test_decomposition_spend_is_pinned(name):
    f, g, components, spends = DECOMPOSITION_SPENDS[name]
    for n, expected in spends.items():
        budget = Budget(10**5)
        assert verify_polar_decomposition(f, g, n, components=components, cap=budget)
        assert 10**5 - budget.remaining == expected


SMALL_GENERATORS = st.lists(nonzero_poly_strategy(RING_XY, max_degree=2, max_terms=3), min_size=1, max_size=2)


@settings(deadline=None, max_examples=40)
@given(SMALL_GENERATORS, SMALL_GENERATORS, nonzero_poly_strategy(RING_XY, max_degree=2, max_terms=3))
def test_a_power_in_a_product_is_a_power_in_each_factor(i_gens, j_gens, p):
    # the radical of IJ is the radical of I meet that of J, also in the
    # local ring: verify_polar_decomposition tests a deformed generator
    # against Jac(g) and polar(f, g) apart, never against their product
    product = IdealPresentation(RING_XY, [a * b for a in i_gens for b in j_gens])
    budget = Budget(PROPERTY_CAP)
    apart = has_power_in(p, IdealPresentation(RING_XY, i_gens), budget) and has_power_in(
        p, IdealPresentation(RING_XY, j_gens), budget
    )
    assert has_power_in(p, product, budget) == apart


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
        assert same_ideal(saturate_single(curve.ideal, f * g), curve.ideal)


def test_a_polar_ideal_the_saturation_keeps_is_presented_by_its_minors():
    # `polar --vars x,y,z --g x^2*y^2+z^3 --f z` prints the minors as given,
    # not their reduced basis (x*y^2, x^2*y)
    f, g = Z, X**2 * Y**2 + Z**3
    minors = tuple(jacobian_minors(f, g))
    assert minors == (-2 * X * Y**2, -2 * X**2 * Y)
    assert relative_polar_ideal(f, g).ideal.generators == minors


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
    lex = sympy_saturation([m.terms for m in minors], (f * g).terms)
    sat = saturate_single(IdealPresentation(RING_XYZ, minors), f * g)
    assert sympy_is_reduced_basis_of([s.terms for s in sat.generators], lex, 3)


def test_polar_generators_are_canonical():
    a = relative_polar_ideal(Z, X**2 + Y**2 + Z**3).ideal.generators
    b = relative_polar_ideal(Z, X**2 + Y**2 + Z**3).ideal.generators
    assert a == b
    assert all(normal_form(g, a, DEGREVLEX).is_zero for g in (X, Y))
