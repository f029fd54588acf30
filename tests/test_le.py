"""Le numbers and fibre Euler characteristics."""

from __future__ import annotations

import pytest

from germlab import (
    BranchParam,
    ComponentMismatchError,
    UndefinedLeError,
    euler_char_fibre,
    le_numbers,
    milnor_number,
)
from germlab.ideals import Budget
from germlab.invariants import T_RING
from germlab.le import align_first
from germlab.rings import PolyRing
from conftest import RING_XY, RING_XYZ
from oracles import euler_chi_isolated

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


def test_route_log_mentions_routes():
    le = le_numbers(X**2 + Y**2, Z, [AXIS])
    assert any("lambda1" in line for line in le.route_log)
    assert any("lambda0" in line for line in le.route_log)


HEAVY_FORM = X + 2 * Y + 3 * Z
# the Le-number germs of the benchmark's heavy tier, their pairs for
# x + 2y + 3z, and where cheap enough the exponent N and the pivot of the
# aligned coordinates (None: the original ones) at which the benchmark checks
# mu(g + l^N) = lambda0 + (N - 1) lambda1
HEAVY_LE = [
    (X**2 * Y**2 + X**2 * Z**2 + Y**2 * Z**2, (18, 3), None),
    (Y**2 - X**3 + Z * X**2 * Y, (0, 2), (2, None)),
    (X**2 * Y**2 + Z**3, (6, 4), (9, None)),
    (X**3 + Y**3 + X * Y * Z, (6, 1), (10, 2)),
]


@pytest.mark.parametrize("g, pair, iomdin", HEAVY_LE, ids=[str(c[0]) for c in HEAVY_LE])
def test_heavy_le_pairs_and_le_iomdin(g, pair, iomdin):
    assert le_numbers(g, HEAVY_FORM).as_pair() == pair
    if iomdin is None:
        return
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
    # saturation route or pair order moves the count
    budget = Budget(10**5)
    le_numbers(X**2 * Y**2 + Z**3, HEAVY_FORM, cap=budget)
    assert 10**5 - budget.remaining == 386
