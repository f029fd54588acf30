"""Normal forms, standard bases, quotient dimensions, and saturation."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from germlab.orders import DEGREVLEX, ELIM_FIRST, LOCAL, leading_monomial
from germlab.polar import jacobian_minors
from germlab.rings import jacobian, mono_div, mono_lcm
from conftest import RING_XY, RING_XYZ, from_terms, nonzero_poly_strategy, poly_strategy
from oracles import sympy_reduced_basis

x, y = RING_XY.variable(0), RING_XY.variable(1)
X, Y, Z = (RING_XYZ.variable(i) for i in range(3))
# saturating by x gives (y, z^3)
ENLARGED_BY_X = [X * Y * Z, X**2 * Y + 2 * Y * Z**2, X * Z**3]
# on a few random inputs Mora's intermediate coefficients pass 10^5 bits
# within a thousand reduction steps, and a single step then costs seconds;
# the permutation property stops its local standard bases at this many
# steps, well before that, and drops an example that passes it
LOCAL_PROPERTY_CAP = 500


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

    # non-monic reducers with non-unit denominators, one with a negative
    # leading coefficient; the remainders and step counts were recorded when
    # the kernel still reduced over the rationals
    PINNED_REMAINDERS = {
        "global": (
            Fraction(1, 2) * x**3 + Fraction(2, 3) * x * y + Fraction(5, 7) * y**2 + Fraction(1, 3),
            [Fraction(3, 2) * x**2 - Fraction(1, 5) * y, -Fraction(2, 3) * y**2 + Fraction(1, 4) * x],
            DEGREVLEX,
            {(0, 0): Fraction(1, 3), (1, 0): Fraction(15, 56), (1, 1): Fraction(11, 15)},
            2,
        ),
        "local": (
            Fraction(1, 3) * x + Fraction(2, 5) * y + Fraction(3, 4) * x**2 * y
            + Fraction(1, 7) * y**2 + Fraction(5, 6) * x * y,
            [Fraction(2, 3) * x - Fraction(1, 2) * x**2 + Fraction(1, 5) * y**2,
             -Fraction(3, 7) * y**3 + Fraction(1, 4) * y**4],
            LOCAL,
            {(0, 1): Fraction(2, 5), (0, 2): Fraction(3, 70)},
            19,
        ),
    }

    @pytest.mark.parametrize("route", sorted(PINNED_REMAINDERS))
    def test_rational_remainders_are_pinned(self, route):
        p, basis, order, terms, steps = self.PINNED_REMAINDERS[route]
        budget = Budget(10**4)
        r = normal_form(p, basis, order, budget)
        assert r.terms == terms
        assert all(type(c) is Fraction for c in r.terms.values())
        assert 10**4 - budget.remaining == steps


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
        # the returned basis is monic, so S(f, g) = (l/lm f)*f - (l/lm g)*g
        # with l = lcm(lm f, lm g), built here with public Poly arithmetic
        basis = standard_basis_of([x**2 - y, y**2, x * y + y], DEGREVLEX)
        for f, g in itertools.combinations(basis, 2):
            lmf, lmg = leading_monomial(f, DEGREVLEX), leading_monomial(g, DEGREVLEX)
            lcm = mono_lcm(lmf, lmg)
            s = RING_XY.monomial(mono_div(lcm, lmf)) * f - RING_XY.monomial(mono_div(lcm, lmg)) * g
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

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_permuted_local_order_gives_same_quotient_dims(self, data):
        # permuting the ring variables is the local order read through a
        # permutation: x_i^a_i plus terms of higher degree keeps x_i^a_i as
        # local lead, so the ideal is zero-dimensional at the origin, and
        # neither its quotient dimension nor its dimension may move
        ring = data.draw(st.sampled_from([RING_XY, RING_XYZ]))
        gens = []
        for i in range(ring.nvars):
            a = data.draw(st.integers(1, 3))
            tail = data.draw(poly_strategy(ring, max_degree=2, max_terms=2))
            higher = {e: c for e, c in tail.terms.items() if sum(e) > a}
            gens.append(ring.variable(i) ** a + from_terms(ring, higher))
        gens += data.draw(st.lists(nonzero_poly_strategy(ring, max_degree=2, max_terms=2), max_size=1))
        perm = data.draw(st.permutations(range(ring.nvars)))
        images = [ring.variable(k) for k in perm]

        def dims(gens):
            I = IdealPresentation(ring, gens)
            try:
                return quotient_dim_local(I, LOCAL_PROPERTY_CAP), dim_at_origin(I, LOCAL_PROPERTY_CAP)
            except IterationLimitError:
                return None

        plain = dims(gens)
        permuted = dims([g.substitute(ring, images) for g in gens])
        assume(plain is not None and permuted is not None)
        assert plain == permuted
        assert plain[0] is not None and plain[1] <= 0


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


# random ideals: 1-3 generators in two variables up to degree 3, or in three
# variables up to degree 2, with coefficients in [-4, 4] of denominator <= 3
IDEALS = st.one_of(
    st.lists(nonzero_poly_strategy(RING_XY, max_degree=3, max_terms=3), min_size=1, max_size=3),
    st.lists(nonzero_poly_strategy(RING_XYZ, max_degree=2, max_terms=3), min_size=1, max_size=3),
)
SCALARS = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)
PROPERTY_CAP = 20_000


@settings(deadline=None, max_examples=40)
@given(IDEALS)
def test_reduced_basis_matches_sympy(gens):
    pytest.importorskip("sympy")
    basis = standard_basis_of(gens, DEGREVLEX)
    expected = sympy_reduced_basis([g.terms for g in gens], gens[0].ring.nvars)
    assert sorted(map(sorted, (g.terms.items() for g in basis))) == sorted(
        map(sorted, (t.items() for t in expected))
    )


def basis_and_spend(gens, order):
    """The standard basis (None past the cap) and the steps it spent."""
    budget = Budget(PROPERTY_CAP)
    try:
        basis = standard_basis_of(gens, order, budget)
    except IterationLimitError:
        basis = None
    return basis, PROPERTY_CAP - budget.remaining


@settings(deadline=None, max_examples=40)
@given(st.data(), IDEALS)
def test_scaling_generators_changes_neither_basis_nor_spend(data, gens):
    # the kernel keeps each polynomial up to a nonzero rational factor, so a
    # rescaled generator must take exactly the same steps
    scaled = [g * data.draw(SCALARS) for g in gens]
    for order in (DEGREVLEX, LOCAL, ELIM_FIRST):
        assert basis_and_spend(scaled, order) == basis_and_spend(gens, order)
