"""Milnor numbers, critical loci, branch validation, local degrees, and
slice Milnor numbers, checked against independent classical oracles."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from germlab.ideals import Budget, IdealPresentation
from germlab.invariants import (
    MAX_TAU_HALVINGS,
    T_RING,
    compose_on_branch,
    jacobian_ideal,
    slice_germ,
    stable_along_branch,
)
from germlab.rings import PolyRing, jacobian
from conftest import RING_XY, RING_XYZ, poly_strategy
from test_ideals import PROPERTY_CAP
from oracles import (
    brieskorn_mu,
    homogeneous_plane_mu,
    milnor_orlik_mu,
    monomial_quotient_count,
    sympy_local_quotient_dim,
    thom_sebastiani,
)

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

    # germs whose untruncated local completion runs for minutes, with two D
    # past the highest corner, where sympy's dim O/(Jac + m^D) must equal mu
    CORNER_GERMS = [
        (X**2 + Y**2 * Z + (X**2 + Y**2 + Z**2) ** 3, 7, (6, 8)),
        (X * Y * (X + Y) + (Z**2 + X**3 + Y**3) ** 4, 28, (9, 10)),
    ]

    @pytest.mark.parametrize("g, mu, degrees", CORNER_GERMS, ids=["x2+y2z", "xy(x+y)"])
    def test_germs_that_need_the_corner(self, g, mu, degrees):
        assert milnor_number(g, cap=100) == mu
        pytest.importorskip("sympy")
        jac = [p.terms for p in jacobian(g)]
        assert [sympy_local_quotient_dim(jac, d) for d in degrees] == [mu, mu]

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
        assert validate_branch(AXIS, jacobian_ideal(X**2 + Y**2)) is None

    def test_wrong_axis_detected(self):
        bad = BranchParam("bad", (t, o, o))
        gen, order = validate_branch(bad, jacobian_ideal(X**2 + Y**2))
        assert order == 1

    def test_cusp_parametrization(self):
        cusp = BranchParam("cusp", (t**2, t**3))
        host = IdealPresentation(RING_XY, [y**2 - x**3])
        assert validate_branch(cusp, host) is None


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

    def test_an_order_past_the_truncation_is_an_order(self):
        # compositions are exact, so trunc bounds no order: z^9 has order 9
        # on the z-axis declared with trunc 1
        axis = BranchParam("axis", (T_RING.zero(), T_RING.zero(), t), trunc=1)
        assert local_degree(Z**9 + X**2, axis) == 9

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


RATIONALS = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4)
NONZERO_RATIONALS = st.builds(
    lambda sign, p, q: Fraction(sign * p, q), st.sampled_from((1, -1)), st.integers(1, 9), st.integers(1, 4)
)


@settings(deadline=None, max_examples=60)
@given(st.data(), st.lists(st.integers(min_value=2, max_value=6), min_size=2, max_size=3))
def test_weighted_homogeneous_mu_matches_milnor_orlik(data, exponents):
    # x_1^a_1 + ... + x_k^a_k has integer weights w_i = d / a_i for
    # d = lcm(a_i); one mixed monomial of weighted degree d keeps the germ
    # weighted homogeneous, and Milnor-Orlik gives mu when it is isolated
    ring = PolyRing(("x", "y", "z")[: len(exponents)])
    degree = math.lcm(*exponents)
    weights = [degree // a for a in exponents]
    g = sum((ring.variable(i) ** a for i, a in enumerate(exponents)), ring.zero())
    mixed = [
        e
        for e in product(*(range(a) for a in exponents))
        if sum(1 for k in e if k) >= 2 and sum(k * w for k, w in zip(e, weights)) == degree
    ]
    if mixed:
        g = g + ring.monomial(data.draw(st.sampled_from(mixed)), data.draw(NONZERO_RATIONALS))
    assert all(sum(k * w for k, w in zip(e, weights)) == degree for e in g.terms)
    try:
        mu = milnor_number(g, Budget(PROPERTY_CAP))
    except NonisolatedError:
        assume(False)
    assert mu == milnor_orlik_mu(weights, degree)


@settings(deadline=None, max_examples=60)
@given(
    st.data(),
    st.lists(st.integers(min_value=2, max_value=16), min_size=2, max_size=2)
    | st.lists(st.integers(min_value=2, max_value=7), min_size=3, max_size=3),
)
def test_a_semi_quasihomogeneous_germ_has_the_milnor_number_of_its_principal_part(data, exponents):
    # x^a + y^b [+ z^c] plus terms strictly above its Newton diagram, where
    # i/a + j/b [+ k/c] > 1, keeps mu = (a-1)(b-1)[(c-1)] (Arnold, Normal
    # forms of functions near degenerate critical points, 1974): local
    # staircases of up to 225 monomials, counted at the default cap
    ring = PolyRing(("x", "y", "z")[: len(exponents)])
    above = [
        e
        for e in product(*(range(a + 1) for a in exponents))
        if sum(Fraction(k, a) for k, a in zip(e, exponents)) > 1
    ]
    g = sum((ring.variable(i) ** a for i, a in enumerate(exponents)), ring.zero())
    for e in data.draw(st.lists(st.sampled_from(above), min_size=1, max_size=3, unique=True)):
        g = g + ring.monomial(e, data.draw(NONZERO_RATIONALS))
    assert milnor_number(g) == brieskorn_mu(*exponents)


@settings(deadline=None, max_examples=60)
@given(st.data(), st.integers(min_value=2, max_value=4))
def test_a_slice_at_a_point_agrees_with_p_on_the_parallel_hyperplane(data, nvars):
    ring = PolyRing(("x", "y", "z", "w")[:nvars])
    p = data.draw(poly_strategy(ring, max_degree=3, max_terms=5))
    coeffs = data.draw(st.lists(RATIONALS, min_size=nvars, max_size=nvars).filter(any))
    form = sum((ring.variable(i) * c for i, c in enumerate(coeffs) if c), ring.zero())
    base = data.draw(st.lists(RATIONALS, min_size=nvars, max_size=nvars))
    sliced = slice_germ(p, form, base)
    (k,) = [i for i, v in enumerate(ring.variables) if v not in sliced.ring.variables]
    kept = [i for i in range(nvars) if i != k]
    assert sliced.constant_term() == 0
    for _ in range(3):
        q = data.draw(st.lists(RATIONALS, min_size=nvars - 1, max_size=nvars - 1))
        point = list(base)
        for i, value in zip(kept, q):
            point[i] = base[i] + value
        # the pivot coordinate solved from form = form(base)
        point[k] = (form.evaluate(base) - sum(coeffs[i] * point[i] for i in kept)) / coeffs[k]
        assert form.evaluate(point) == form.evaluate(base)
        assert sliced.evaluate(q) == p.evaluate(point) - p.evaluate(base)


def test_compose_on_branch_is_exact():
    g = X**2 + Y**3 + Z**5
    comp = compose_on_branch(g, BranchParam("curve", (t**3, t**2, o)))
    assert comp == 2 * t**6


def test_jacobian_matches_partials():
    g = X**2 * Y + Z**3
    assert jacobian(g) == [g.diff(0), g.diff(1), g.diff(2)]
