"""Normal forms, standard bases, quotient dimensions, and saturation."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

from germlab import (
    IdealPresentation,
    IterationLimitError,
    dim_at_origin,
    milnor_number,
    normal_form,
    quotient_dim_local,
    standard_basis_of,
)
from germlab.ideals import (
    Budget,
    contains,
    has_power_in,
    ideal_contains,
    ideal_equal,
    saturate_single,
)
from germlab.orders import DEGREVLEX, LOCAL, leading_monomial
from germlab.polar import jacobian_minors
from germlab.rings import jacobian
from conftest import RING_XY, RING_XYZ, poly_strategy

x, y = RING_XY.variable(0), RING_XY.variable(1)
X, Y, Z = (RING_XYZ.variable(i) for i in range(3))
# saturating by x gives (y, z^3)
ENLARGED_BY_X = [X * Y * Z, X**2 * Y + 2 * Y * Z**2, X * Z**3]


class TestNormalForm:
    def test_membership_of_a_multiple(self):
        assert normal_form(x**2, [x], DEGREVLEX).is_zero

    def test_one_step_division(self):
        assert normal_form(x**2 + y, [x**2 - y], DEGREVLEX) == 2 * y

    def test_unit_is_irreducible_by_variables(self):
        one = RING_XY.one()
        assert normal_form(one, [x, y], DEGREVLEX) == one

    def test_local_normal_form_has_no_divisible_terms(self):
        p = x + y**2 + x**3
        r = normal_form(p, [x - x**2], LOCAL)
        lead = leading_monomial(x - x**2, LOCAL)
        for exps in r.terms:
            assert not all(a <= b for a, b in zip(lead, exps))

    def test_contraction_property_on_groebner_bases(self):
        gens = [x**2 - y, y**2]
        basis = list(standard_basis_of(gens, DEGREVLEX))
        for p in (x**3 + y, x * y + 1, (x + y) ** 3, x**5):
            r = normal_form(p, basis, DEGREVLEX)
            assert normal_form(p - r, basis, DEGREVLEX).is_zero

    def test_local_membership_via_mora(self):
        # x lies in the local ideal generated by x - x^2 (unit 1 - x)
        assert normal_form(x, [x - x**2], LOCAL).is_zero


class TestStandardBasis:
    def test_principal_ideal(self):
        assert standard_basis_of([x], DEGREVLEX) == (x,)

    def test_unit_scaling_normalizes(self):
        basis = standard_basis_of([2 * x, 3 * y], DEGREVLEX)
        assert set(basis) == {x, y}

    def test_buchberger_two_generators(self):
        basis = standard_basis_of([x**2 - y, y**2], DEGREVLEX)
        lead = {leading_monomial(g, DEGREVLEX) for g in basis}
        # leading ideal is generated by y^2 ... plus what the s-pair adds
        I = IdealPresentation(RING_XY, list(basis))
        for p in (y**2, x**2 * y, x**4):
            assert contains(I, p, DEGREVLEX)
        assert not contains(I, x, DEGREVLEX)
        assert (0, 2) in lead

    def test_every_spolynomial_reduces_to_zero(self):
        basis = standard_basis_of([x**2 - y, y**2, x * y + y], DEGREVLEX)
        from germlab.ideals import _spoly

        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = _spoly(basis[i], basis[j], DEGREVLEX)
                assert normal_form(s, list(basis), DEGREVLEX).is_zero

    def test_deterministic(self):
        gens = [X**2 * Y + X * Y**2, X * Z**2 - Y**2, Z**3 - X * Y]
        a = standard_basis_of(gens, DEGREVLEX)
        b = standard_basis_of(list(gens), DEGREVLEX)
        assert a == b

    def test_cache_reduces_generators_to_zero(self):
        I = IdealPresentation(RING_XY, [x**2 - y, y**2])
        for order in (DEGREVLEX, LOCAL):
            basis = I.standard_basis(order)
            for g in I.generators:
                assert normal_form(g, list(basis), order).is_zero

    def test_permuted_local_order_gives_same_quotient_dims(self):
        from germlab import MonomialOrder
        from germlab.orders import leading_term
        from germlab.rings import mono_divides

        I = IdealPresentation(RING_XY, [x**2 - y**3, x * y])
        plain = quotient_dim_local(I)
        permuted = MonomialOrder("negdegrevlex", permutation=(1, 0))
        basis = I.standard_basis(permuted)
        lms = [leading_term(g, permuted)[0] for g in basis]
        count = 0
        for a in range(8):
            for b in range(8):
                if not any(mono_divides(lm, (a, b)) for lm in lms):
                    count += 1
        assert count == plain


class TestQuotientDim:
    def test_maximal_ideal(self):
        assert quotient_dim_local(IdealPresentation(RING_XY, [x, y])) == 1

    def test_monomial_box(self):
        assert quotient_dim_local(IdealPresentation(RING_XY, [x**2, y**2])) == 4

    def test_infinite_ladder(self):
        assert quotient_dim_local(IdealPresentation(RING_XY, [x])) is None

    def test_unit_ideal(self):
        assert quotient_dim_local(IdealPresentation(RING_XY, [RING_XY.one()])) == 0

    def test_local_ring_sees_units(self):
        # 1 + x is a unit near the origin, so <x^2 (1 + x)> has dimension 2
        assert quotient_dim_local(IdealPresentation(RING_XY, [x**2 + x**3, y])) == 2


class TestDimAtOrigin:
    def test_origin_only(self):
        assert dim_at_origin(IdealPresentation(RING_XY, [x, y])) == 0

    def test_coordinate_line(self):
        assert dim_at_origin(IdealPresentation(RING_XYZ, [X, Y])) == 1

    def test_empty_germ(self):
        assert dim_at_origin(IdealPresentation(RING_XY, [RING_XY.one()])) == -1

    def test_zero_ideal(self):
        assert dim_at_origin(IdealPresentation(RING_XY, [RING_XY.zero()])) == 2

    @pytest.mark.parametrize(
        "gens_factory",
        [
            lambda: [x, y],
            lambda: [x**2, y**3],
            lambda: [x],
            lambda: [x * y],
            lambda: [RING_XY.one()],
            lambda: [x**2 + y**3],
            lambda: [x**2 * y],
        ],
    )
    def test_zero_dim_agreement(self, gens_factory):
        I = IdealPresentation(RING_XY, gens_factory())
        finite = quotient_dim_local(I) is not None
        assert finite == (dim_at_origin(I) <= 0)


class TestSaturation:
    def test_colon_removes_shared_factor(self):
        sat = saturate_single(IdealPresentation(RING_XY, [x * y]), x)
        assert sat.generators == (y,)

    def test_no_common_component(self):
        sat = saturate_single(IdealPresentation(RING_XY, [x]), y)
        assert sat.generators == (x,)

    def test_everything_supported_on_locus(self):
        sat = saturate_single(IdealPresentation(RING_XY, [x**2]), x)
        assert sat.generators == (RING_XY.one(),)

    def test_idempotent(self):
        I = IdealPresentation(RING_XYZ, [X * Y, X * Z])
        once = saturate_single(I, X)
        twice = saturate_single(once, X)
        assert ideal_equal(once, twice)

    def test_contains_original(self):
        I = IdealPresentation(RING_XY, [x**2 * y])
        sat = saturate_single(I, x)
        for g in I.generators:
            assert contains(sat, g, DEGREVLEX)

    def test_embedded_point_saturated_away(self):
        # (x*y, y^2) is the line y = 0 with an embedded point at the origin
        I = IdealPresentation(RING_XY, [x * y, y**2])
        assert saturate_single(I, x).generators == (y,)

    def test_nothing_removed_returns_the_input(self):
        I = IdealPresentation(RING_XY, [2 * x**2 * y, x * y**2 + y**3])
        assert saturate_single(I, x + y + 1) is I

    def test_enlarged_result_is_a_reduced_degrevlex_basis(self):
        I = IdealPresentation(RING_XYZ, ENLARGED_BY_X)
        sat = saturate_single(I, X)
        assert sat is not I
        assert sat.generators == standard_basis_of(sat.generators, DEGREVLEX)
        assert ideal_equal(sat, IdealPresentation(RING_XYZ, [Y, Z**3]))

    def test_zero_divisor_gives_the_unit_ideal(self):
        I = IdealPresentation(RING_XY, [x])
        assert saturate_single(I, RING_XY.zero()).generators == (RING_XY.one(),)

    def test_budget_bounds_the_saturation(self):
        with pytest.raises(IterationLimitError):
            saturate_single(IdealPresentation(RING_XYZ, ENLARGED_BY_X), X, cap=3)


def test_iteration_cap_fails_loudly():
    with pytest.raises(IterationLimitError):
        standard_basis_of([x**3 - y, y**3 - x, x * y - 1], DEGREVLEX, cap=3)


def test_budget_counts_down():
    b = Budget(5)
    for _ in range(5):
        b.spend()
    with pytest.raises(IterationLimitError):
        b.spend()


@settings(deadline=None, max_examples=30)
@given(poly_strategy(RING_XY, max_degree=2, max_terms=3))
def test_contraction_against_fixed_basis(p):
    basis = list(standard_basis_of([x**2 - y, x * y], DEGREVLEX))
    r = normal_form(p, basis, DEGREVLEX)
    assert normal_form(p - r, basis, DEGREVLEX).is_zero


def test_work_counts_match_the_recorded_runs():
    # exact Budget spends recorded before the pair queue became a heap and
    # leading monomials were cached: equal counts mean pairs are selected and
    # reduced in the same order
    def spent(run) -> int:
        budget = Budget(10**5)
        run(budget)
        return 10**5 - budget.remaining

    mu = []
    g = X**2 * Y + Y**4 + Z**5 + X * Y * Z**2
    assert spent(lambda b: mu.append(milnor_number(g, b))) == 1226
    assert mu == [20]
    jac = jacobian(X**3 * Y + Y**3 * Z + Z**3 * X)
    assert spent(lambda b: standard_basis_of(jac, DEGREVLEX, b)) == 20
    assert spent(lambda b: standard_basis_of(jac, LOCAL, b)) == 71


def test_saturation_work_count_is_pinned():
    # the polar ideal of (x + 2y + 3z, xyz): one Rabinowitsch elimination plus
    # the containment check against the minors; another route or pair order
    # moves the count
    f, g = X + 2 * Y + 3 * Z, X * Y * Z
    minors = IdealPresentation(RING_XYZ, jacobian_minors(f, g))
    budget = Budget(10**5)
    sat = saturate_single(minors, f * g, budget)
    assert 10**5 - budget.remaining == 122
    assert sat.generators == (Y - Fraction(3, 2) * Z, X - 3 * Z)


def test_int_cap_bounds_the_whole_saturation():
    # the saturation above spends 122 steps across its elimination and its
    # containment check; an int cap bounds the two together
    f, g = X + 2 * Y + 3 * Z, X * Y * Z
    with pytest.raises(IterationLimitError):
        saturate_single(IdealPresentation(RING_XYZ, jacobian_minors(f, g)), f * g, cap=121)
    saturate_single(IdealPresentation(RING_XYZ, jacobian_minors(f, g)), f * g, cap=122)


MEMBERSHIP_CALLS = {
    "contains": lambda I, cap: contains(I, X**3 * Y + 2 * X * Y * Z**2, DEGREVLEX, cap),
    "ideal_contains": lambda I, cap: ideal_contains(
        I,
        IdealPresentation(RING_XYZ, [X**2 * Y * Z + Y * Z**3, X**3 * Y + 2 * X * Y * Z**2]),
        DEGREVLEX,
        cap,
    ),
    "ideal_equal": lambda I, cap: ideal_equal(
        I,
        IdealPresentation(RING_XYZ, [X * Y * Z, X**2 * Y + 2 * Y * Z**2 + X * Y * Z, X * Z**3]),
        DEGREVLEX,
        cap,
    ),
    "has_power_in": lambda I, cap: has_power_in(X * Y + Y * Z, I, cap),
}


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_CALLS))
def test_int_cap_bounds_the_whole_membership_test(name):
    # each call builds a standard basis and then reduces against it; an int
    # cap one below what the two spend together must raise
    call = MEMBERSHIP_CALLS[name]
    budget = Budget(10**5)
    assert call(IdealPresentation(RING_XYZ, ENLARGED_BY_X), budget)
    spent = 10**5 - budget.remaining
    with pytest.raises(IterationLimitError):
        call(IdealPresentation(RING_XYZ, ENLARGED_BY_X), spent - 1)
    assert call(IdealPresentation(RING_XYZ, ENLARGED_BY_X), spent)
