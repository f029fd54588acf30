"""Le numbers and fibre Euler characteristics."""

from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from germlab import (
    BranchParam,
    ComponentMismatchError,
    UndefinedLeError,
    euler_char_fibre,
    iomdin_threshold,
    le_numbers,
    milnor_number,
)
from germlab.ideals import Budget, IdealPresentation, dim_at_origin, quotient_dim_local
from germlab.invariants import T_RING, jacobian_ideal
from germlab.le import _hyperplane_slice_dim, _polar_ideal_after_alignment, align_first
from germlab.rings import Poly, PolyRing
from germlab.verifier import generic_linear_candidates
from conftest import RING_XY, RING_XYZ, poly_strategy
from oracles import euler_chi_isolated
from test_ideals import PROPERTY_CAP

x, y = RING_XY.variable(0), RING_XY.variable(1)
X, Y, Z = (RING_XYZ.variable(i) for i in range(3))
t = T_RING.variable(0)
o = T_RING.zero()
AXIS = BranchParam("axis", (o, o, t))


def test_cylinder_pair():
    le = le_numbers(X**2 + Y**2, Z, [AXIS])
    assert le.as_pair() == (0, 1)
    assert euler_char_fibre(X**2 + Y**2, le) == 0


def test_three_lines_pair():
    g = X * Y * (X + Y)
    le = le_numbers(g, Z, [AXIS])
    assert le.as_pair() == (0, 4)
    assert euler_char_fibre(g, le) == -3


def test_isolated_cusp_pair():
    g = x**3 + y**3
    le = le_numbers(g, x + 2 * y)
    assert le.as_pair() == (4, 0)
    assert euler_char_fibre(g, le) == -3


def test_pinch_point_pair():
    g = X**2 + Y**2 * Z
    le = le_numbers(g, Z, [AXIS])
    assert le.as_pair() == (2, 1)
    assert euler_char_fibre(g, le) == 2


def test_sphere_fibre():
    g = X**2 + Y**2 + Z**2
    le = le_numbers(g, Z)
    assert le.as_pair() == (1, 0)
    assert euler_char_fibre(g, le) == 2


@pytest.mark.parametrize(
    "g_factory, v",
    [
        (lambda: x**3 + y**3, 2),
        (lambda: X**2 + Y**2 + Z**2, 3),
        (lambda: X**3 + Y**4 + Z**5, 3),
    ],
)
def test_isolated_degeneration(g_factory, v):
    g = g_factory()
    form = g.ring.variable(0) + 2 * g.ring.variable(1)
    le = le_numbers(g, form)
    assert le.lambda1 == 0
    assert euler_char_fibre(g, le) == euler_chi_isolated(v, le.lambda0)


def test_branch_free_fallback_matches_branch_route():
    for g in (X**2 + Y**2, X * Y * (X + Y)):
        with_branches = le_numbers(g, Z, [AXIS])
        without = le_numbers(g, Z)
        assert with_branches.as_pair() == without.as_pair()


def test_coordinate_robustness_under_cyclic_relabeling():
    # the same geometry written with the critical axis along each coordinate
    ring = RING_XYZ
    cases = [
        (X**2 + Y**2, Z, (o, o, t)),
        (Y**2 + Z**2, X, (t, o, o)),
        (X**2 + Z**2, Y, (o, t, o)),
    ]
    for g, form, comps in cases:
        le = le_numbers(g, form, [BranchParam("axis", comps)])
        assert le.as_pair() == (0, 1)


def test_vanishing_form_on_branch_rejected():
    with pytest.raises(UndefinedLeError):
        le_numbers(X**2 + Y**2, X, [AXIS])


def test_wrong_multiplicity_mismatch_detected():
    fat = BranchParam("axis", (o, o, t), multiplicity=2)
    with pytest.raises(ComponentMismatchError):
        le_numbers(X * Y * (X + Y), Z, [fat])


@pytest.mark.parametrize("g", [X**2 + Y**2 + Z**2 + 1, X**2 + Y**2 + 1], ids=("isolated", "curve"))
def test_a_germ_that_does_not_vanish_at_the_origin_is_refused(g):
    # whether the critical locus is a point or a curve, as milnor_number and
    # relative_polar_ideal refuse it
    with pytest.raises(ValueError, match="vanish at the origin"):
        le_numbers(g, Z)


def test_two_dimensional_critical_locus_unsupported():
    ring = PolyRing(("x", "y", "z", "w"))
    g = ring.variable(0) ** 2
    with pytest.raises(UndefinedLeError):
        le_numbers(g, ring.variable(3))


def test_align_first_moves_form_to_front():
    g = X**2 + Y**2
    form = X + 2 * Y + 3 * Z
    gw, target, pivot = align_first(g, form)
    assert pivot == 2
    # the back-substituted germ evaluates identically
    w0 = form
    assert gw.substitute(RING_XYZ, [w0, X, Y]) == g


# the monomials of degree 2 to 4 in x, y, z
QUARTIC_MONOMIALS = [
    X**a * Y**b * Z**c for a in range(5) for b in range(5) for c in range(5) if 2 <= a + b + c <= 4
]
SMALL = st.sampled_from([-2, -1, 1, 2])


@settings(deadline=None, max_examples=40)
@given(
    st.lists(st.tuples(st.sampled_from(QUARTIC_MONOMIALS), SMALL), min_size=1, max_size=3),
    # at least two nonzero coefficients, so at least two pivots
    st.tuples(SMALL, SMALL, st.integers(-2, 2)).flatmap(st.permutations),
)
def test_every_pivot_gives_the_same_le_intersections(terms, coeffs):
    # le_numbers aligns at the default pivot only: at every pivot the
    # remaining partials span the same ideal, the first partial moves by an
    # element of it, and the hyperplane is w_0 = form, so lambda0 (None when
    # infinite) and the two slice counts cannot depend on the pivot
    g = sum((m * c for m, c in terms), RING_XYZ.zero())
    budget = Budget(PROPERTY_CAP)
    assume(dim_at_origin(jacobian_ideal(g), budget) == 1)
    form = sum((v * c for v, c in zip((X, Y, Z), coeffs) if c), RING_XYZ.zero())
    seen = set()
    for pivot in (i for i, c in enumerate(coeffs) if c):
        gw, target, _ = align_first(g, form, pivot)
        rest, polar = _polar_ideal_after_alignment(gw, budget)
        w0 = target.variable(0)
        meetings = ((polar, gw.diff(0)), (rest, w0), (polar, w0))
        seen.add(tuple(quotient_dim_local(ideal.plus([h]), budget) for ideal, h in meetings))
    assert len(seen) == 1


# 1-3 generators in x, y or in x, y, z, any of them zero or with a constant
# term
SLICED_IDEALS = st.sampled_from((RING_XY, RING_XYZ)).flatmap(
    lambda ring: st.lists(poly_strategy(ring, max_degree=3, max_terms=3), min_size=1, max_size=3)
)


@settings(deadline=None, max_examples=60)
@given(SLICED_IDEALS)
@example([RING_XY.zero()])
@example([RING_XYZ.zero(), RING_XYZ.zero()])
@example([1 + X * Y, Z**2])
@example([X + Y**2, X**2 - Z**3])
def test_a_slice_on_the_hyperplane_is_the_slice_by_its_equation(gens):
    # x_0 is a coordinate, so O/(I + x_0) is O_H modulo I restricted to
    # H = {x_0 = 0}; the restriction here substitutes 0 for x_0
    ring = gens[0].ring
    I = IdealPresentation(ring, gens)
    plane = PolyRing(ring.variables[1:])
    images = [plane.zero(), *(plane.variable(i) for i in range(plane.nvars))]
    on_plane = IdealPresentation(plane, [g.substitute(plane, images) for g in gens])
    cut = I.plus([ring.variable(0)])
    expected = quotient_dim_local(cut, PROPERTY_CAP)
    assert _hyperplane_slice_dim(I, PROPERTY_CAP) == quotient_dim_local(on_plane, PROPERTY_CAP) == expected
    assert dim_at_origin(on_plane, PROPERTY_CAP) == dim_at_origin(cut, PROPERTY_CAP)


@pytest.mark.parametrize("gens, size", [([], 1), ([lambda w: w**2], 1), ([lambda w: 1 + w], 0)])
def test_in_one_variable_the_hyperplane_is_the_origin(gens, size):
    # PolyRing refuses zero variables: the slice is Q, or 0 for a unit ideal
    ring = PolyRing(("w",))
    w = ring.variable(0)
    I = IdealPresentation(ring, [make(w) for make in gens])
    assert _hyperplane_slice_dim(I) == quotient_dim_local(I.plus([w])) == size
    if not gens:  # the zero germ: no partial survives, and the slice gives lambda^1
        assert le_numbers(ring.zero(), w).as_pair() == (0, 1)


def test_an_improper_polar_meeting_is_refused():
    # the critical locus of x(z - y) is the line x = 0, y = z, and lambda0 is
    # infinite, at the default pivot and so at every other
    with pytest.raises(UndefinedLeError, match="every admissible coordinate choice"):
        le_numbers(X * Z - X * Y, Z - Y - 2 * X)


def test_route_log_mentions_routes():
    le = le_numbers(X**2 + Y**2, Z, [AXIS])
    assert any("lambda1" in line for line in le.route_log)
    assert any("lambda0" in line for line in le.route_log)


HEAVY_FORM = X + 2 * Y + 3 * Z
# the Le-number germs of the benchmark's heavy tier, their pairs for
# x + 2y + 3z, and the exponent N and the pivot of the aligned coordinates
# (None: the original ones) at which the benchmark checks
# mu(g + l^N) = lambda0 + (N - 1) lambda1
HEAVY_LE = [
    (X**2 * Y**2 + X**2 * Z**2 + Y**2 * Z**2, (18, 3), (4, 0)),
    (Y**2 - X**3 + Z * X**2 * Y, (0, 2), (2, None)),
    (X**2 * Y**2 + Z**3, (6, 4), (9, None)),
    (X**3 + Y**3 + X * Y * Z, (6, 1), (10, 2)),
]


@pytest.mark.parametrize("g, pair, iomdin", HEAVY_LE, ids=[str(c[0]) for c in HEAVY_LE])
def test_heavy_le_pairs_and_le_iomdin(g, pair, iomdin):
    assert le_numbers(g, HEAVY_FORM).as_pair() == pair
    n, pivot = iomdin
    if pivot is None:
        deformed = g + HEAVY_FORM**n
    else:
        gw, target, _ = align_first(g, HEAVY_FORM, pivot)
        deformed = gw + target.variable(0) ** n
    lam0, lam1 = pair
    assert milnor_number(deformed) == lam0 + (n - 1) * lam1


def test_le_work_count_is_pinned():
    # one saturation of the remaining partials by the first partial; another
    # saturation route or pair order moves the count (110 before
    # Gebauer-Moeller's update, the elimination-only tail and the monomial
    # strip of the two hyperplane slices, 52 before the slices were
    # completed on the hyperplane, in the two other variables, 42 before the
    # LOCAL completion skipped pairs by the chain criterion)
    budget = Budget(10**5)
    le_numbers(X**2 * Y**2 + Z**3, HEAVY_FORM, cap=budget)
    assert 10**5 - budget.remaining == 40


@pytest.mark.parametrize("n, mu, steps", [(10, 45, 463), (25, 90, 1948)])
def test_le_iomdin_formula_in_the_papers_regime(n, mu, steps):
    # N = 25 is the threshold of the Le-Iomdin formula for this pair, where
    # the local bases of Jac(g + l^N) reach about 1300 terms; the two rows
    # spent 745 and 3102 steps before the LOCAL completion skipped pairs by
    # the chain criterion
    g, pair, _ = HEAVY_LE[0]
    lam0, lam1 = le_numbers(g, HEAVY_FORM).as_pair()
    assert (lam0, lam1) == pair == (18, 3)
    budget = Budget(10**5)
    assert milnor_number(g + HEAVY_FORM**n, budget) == lam0 + (n - 1) * lam1 == mu
    assert 10**5 - budget.remaining == steps


# the exponents of the monomials of degree 2 and 3 in x and y: with h and k
# in (x, y)^2, g = h + z*k is singular along the z-axis, and two terms of h,
# at most one of k, keep Jac(g + l^N) at the threshold within the cap
PLANE_EXPONENTS = [(a, b) for a in range(4) for b in range(4) if 2 <= a + b <= 3]


def plane_poly(terms) -> Poly:
    return sum((X**a * Y**b * c for (a, b), c in terms), RING_XYZ.zero())


def plane_terms(**size):
    return st.lists(st.tuples(st.sampled_from(PLANE_EXPONENTS), SMALL), unique_by=lambda t: t[0], **size)


CURVE_SINGULAR_GERMS = st.builds(
    lambda h, k: plane_poly(h) + Z * plane_poly(k), plane_terms(min_size=2, max_size=2), plane_terms(max_size=1)
)


@settings(deadline=None, max_examples=30)
@given(CURVE_SINGULAR_GERMS, st.sampled_from(list(generic_linear_candidates(RING_XYZ, 3))))
@example(HEAVY_LE[0][0], HEAVY_FORM)  # threshold 25, where mu = 90 and then 93
def test_le_iomdin_holds_at_the_threshold(g, form):
    # mu(g + l^N) = lambda0 + (N - 1) lambda1 for N at or above the Iomdin
    # threshold: lambda0 comes from an elimination-order saturation and mu
    # from a local completion, so each completion checks the other.  The
    # deformation is taken where l is the first coordinate, as the
    # benchmark's heavy tier does
    budget = Budget(PROPERTY_CAP)
    try:
        lam0, lam1 = le_numbers(g, form, cap=budget).as_pair()
    except UndefinedLeError:
        assume(False)  # a critical surface, or an improper polar meeting
    n = iomdin_threshold(form, g, cap=budget)
    gw, target, _ = align_first(g, form)
    for exponent in (n, n + 1):
        assert milnor_number(gw + target.variable(0) ** exponent, budget) == lam0 + (exponent - 1) * lam1
