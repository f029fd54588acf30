"""Milnor numbers, critical loci, branch validation, local degrees, and
slice Milnor numbers, checked against independent classical oracles."""

from __future__ import annotations

from fractions import Fraction

import pytest

from germlab import (
    BranchParam,
    DegenerateBranchError,
    InstabilityError,
    NonisolatedError,
    branch_slice_milnor,
    critical_locus,
    local_degree,
    milnor_number,
    validate_branch,
)
from germlab.ideals import IdealPresentation
from germlab.invariants import (
    MAX_TAU_HALVINGS,
    T_RING,
    compose_on_branch,
    jacobian_ideal,
    stable_along_branch,
)
from germlab.rings import jacobian
from conftest import RING_XY, RING_XYZ
from oracles import brieskorn_mu, homogeneous_plane_mu, monomial_quotient_count, thom_sebastiani

x, y = RING_XY.variable(0), RING_XY.variable(1)
X, Y, Z = (RING_XYZ.variable(i) for i in range(3))
t = T_RING.variable(0)
o = T_RING.zero()

AXIS = BranchParam("axis", (o, o, t))


class TestMilnorNumber:
    def test_morse_point(self):
        assert milnor_number(x**2 + y**2) == 1

    def test_cusp_sum_vs_monomial_oracle(self):
        mu = milnor_number(x**3 + y**3)
        assert mu == 4
        assert mu == monomial_quotient_count([(2, 0), (0, 2)])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_brieskorn_column(self, n):
        assert milnor_number(X**2 + Y**2 + Z**n) == n - 1

    def test_brieskorn_sweep(self):
        for a in range(2, 6):
            for b in range(2, 6):
                for c in range(2, 6):
                    g = X**a + Y**b + Z**c
                    assert milnor_number(g) == brieskorn_mu(a, b, c)

    def test_thom_sebastiani_sweep(self):
        factors = {
            x**2 + y**2: 1,
            x * y * (x + y): 4,
            x**3 + y**3: 4,
        }
        for h, mu_h in factors.items():
            lifted = h.substitute(RING_XYZ, [X, Y])
            for n in range(2, 9):
                assert milnor_number(lifted + Z**n) == thom_sebastiani(mu_h, n)

    def test_nonisolated_raises(self):
        with pytest.raises(NonisolatedError):
            milnor_number(x**2 * y)

    def test_must_vanish_at_origin(self):
        with pytest.raises(ValueError):
            milnor_number(x**2 + 1)

    def test_nonsingular_is_zero(self):
        assert milnor_number(x + y**2) == 0


class TestCriticalLocus:
    def test_cylinder_axis(self):
        report = critical_locus(X**2 + Y**2)
        assert report.dim == 1

    def test_isolated_plane_cusps(self):
        assert critical_locus(x**3 + y**3).dim == 0

    def test_one_dimensional_with_f_check(self):
        # the critical locus of x^2*y is the y-axis, so f = y meets it only
        # at the origin while f = x contains it outright
        report = critical_locus(x**2 * y, f=y)
        assert report.dim == 1
        assert report.meets_f_only_at_origin is True
        report = critical_locus(x**2 * y, f=x)
        assert report.meets_f_only_at_origin is False

    def test_f_check_failure(self):
        report = critical_locus(X**2 + Y**2, f=X)
        assert report.meets_f_only_at_origin is False


class TestValidateBranch:
    def test_axis_on_cylinder(self):
        assert validate_branch(AXIS, jacobian_ideal(X**2 + Y**2)).ok

    def test_wrong_axis_detected(self):
        bad = BranchParam("bad", (t, o, o))
        report = validate_branch(bad, jacobian_ideal(X**2 + Y**2))
        assert not report.ok
        gen, order = report.violation
        assert order == 1

    def test_cusp_parametrization(self):
        cusp = BranchParam("cusp", (t**2, t**3))
        host = IdealPresentation(RING_XY, [y**2 - x**3])
        assert validate_branch(cusp, host).ok


class TestLocalDegree:
    def test_order_of_t(self):
        assert local_degree(Z, AXIS) == 1

    def test_order_along_cusp(self):
        cusp = BranchParam("cusp", (t**2, t**3))
        assert local_degree(x, cusp) == 2

    def test_linear_sum(self):
        diag = BranchParam("diag", (t, t, t))
        assert local_degree(X + Y + Z, diag) == 1

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateBranchError):
            local_degree(X, AXIS)

    def test_reparametrization_invariance(self):
        cusp = BranchParam("cusp", (t**2, t**3))
        for u in (T_RING.one(), t, 1 - 2 * t + t**2):
            s = t * (1 + t * u)
            re = BranchParam(
                "re", tuple(c.substitute(T_RING, [s]) for c in cusp.components), trunc=32
            )
            assert local_degree(x, re) == local_degree(x, cusp)
            assert local_degree(y, re) == local_degree(y, cusp)


class TestBranchSliceMilnor:
    def test_cylinder_slice_is_morse(self):
        assert branch_slice_milnor(X**2 + Y**2, Z, AXIS) == 1

    def test_three_lines_slice(self):
        mu = branch_slice_milnor(X * Y * (X + Y), Z, AXIS)
        assert mu == homogeneous_plane_mu(3)

    def test_zero_slice_level_rejected(self):
        with pytest.raises(DegenerateBranchError):
            branch_slice_milnor(X**2 + Y**2, X, AXIS)

    def test_stability_across_the_ladder(self):
        # the ladder starts at t = 1/2; scaling the branch parameter starts
        # it at z = tau instead
        for tau in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
            scaled = BranchParam("axis", (o, o, 2 * tau * t))
            assert branch_slice_milnor(X**2 + Y**2 * Z, Z, scaled) == 1

    def test_nonisolated_slice_propagates(self):
        g = X**2 * Y**2  # slice at z = tau still has nonisolated critical locus
        branch = BranchParam("z-axis", (o, o, t))
        with pytest.raises(NonisolatedError):
            branch_slice_milnor(g, Z, branch)

    def test_ladder_walks_past_an_accidentally_degenerate_level(self):
        # at tau = 1/2 the quadratic term vanishes and the slice jumps to a
        # cusp; the halving ladder recovers the stable Morse value
        g = X**2 + Y**3 + (Z - Fraction(1, 2)) * Y**2
        branch = BranchParam("axis", (o, o, t))
        assert branch_slice_milnor(g, Z, branch) == 1


class TestStableAlongBranch:
    def test_returns_the_first_value_two_halvings_agree_on(self):
        seen = []

        def at(tau):
            seen.append(tau)
            return {Fraction(1, 2): 5, Fraction(1, 4): 4}.get(tau, 3)

        assert stable_along_branch("value", AXIS, at) == 3
        assert seen == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]

    def test_a_ladder_that_never_agrees_raises(self):
        seen = []

        def at(tau):
            seen.append(tau)
            return tau.denominator  # a new value on every rung

        with pytest.raises(InstabilityError, match="^transverse multiplicity along branch 'axis' never stabilized$"):
            stable_along_branch("transverse multiplicity", AXIS, at)
        assert len(seen) == MAX_TAU_HALVINGS + 1


def test_compose_on_branch_is_exact():
    g = X**2 + Y**3 + Z**5
    comp = compose_on_branch(g, BranchParam("curve", (t**3, t**2, o)))
    assert comp == 2 * t**6


def test_jacobian_matches_partials():
    g = X**2 * Y + Z**3
    assert jacobian(g) == [g.diff(0), g.diff(1), g.diff(2)]
