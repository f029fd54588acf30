"""Standard bases, quotient dimensions, and saturation."""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from germlab import (
    GermlabError,
    IdealPresentation,
    IterationLimitError,
    RingMismatchError,
    dim_at_origin,
    milnor_number,
    quotient_dim_local,
    standard_basis_of,
)
from germlab import ideals
from germlab.ideals import Budget, saturate_single
from germlab.orders import DEGREVLEX, ELIM_FIRST, LOCAL
from germlab.polar import jacobian_minors
from germlab.rings import PolyRing, jacobian
from conftest import (
    RING_XY,
    RING_XYZ,
    from_terms,
    leading_monomial,
    mono_div,
    mono_divides,
    mono_lcm,
    nonzero_poly_strategy,
    packed_divides,
    poly_strategy,
    same_ideal,
)
from oracles import (
    staircase_walk,
    sympy_is_reduced_basis_of,
    sympy_local_quotient_dim,
    sympy_reduced_basis,
    sympy_reduces_to_zero,
    sympy_remainder,
    sympy_saturation,
)

x, y = RING_XY.variable(0), RING_XY.variable(1)
X, Y, Z = (RING_XYZ.variable(i) for i in range(3))
# saturating by x gives (y, z^3)
ENLARGED_BY_X = [X * Y * Z, X**2 * Y + 2 * Y * Z**2, X * Z**3]


class TestStandardBasis:
    def test_principal_ideal(self):
        assert standard_basis_of([x], DEGREVLEX) == (x,)

    def test_unit_scaling_normalizes(self):
        basis = standard_basis_of([2 * x, 3 * y], DEGREVLEX)
        assert set(basis) == {x, y}

    def test_buchberger_two_generators(self):
        pytest.importorskip("sympy")
        basis = standard_basis_of([x**2 - y, y**2], DEGREVLEX)
        lead = {leading_monomial(g, DEGREVLEX) for g in basis}
        # leading ideal is generated by y^2 ... plus what the s-pair adds
        terms = [g.terms for g in basis]
        for p in (y**2, x**2 * y, x**4):
            assert sympy_reduces_to_zero(p.terms, terms, 2)
        assert not sympy_reduces_to_zero(x.terms, terms, 2)
        assert (0, 2) in lead

    def test_every_spolynomial_reduces_to_zero(self):
        # the returned basis is monic, so S(f, g) = (l/lm f)*f - (l/lm g)*g
        # with l = lcm(lm f, lm g), built here with public Poly arithmetic
        pytest.importorskip("sympy")
        basis = standard_basis_of([x**2 - y, y**2, x * y + y], DEGREVLEX)
        for f, g in itertools.combinations(basis, 2):
            lmf, lmg = leading_monomial(f, DEGREVLEX), leading_monomial(g, DEGREVLEX)
            lcm = mono_lcm(lmf, lmg)
            s = RING_XY.monomial(mono_div(lcm, lmf)) * f - RING_XY.monomial(mono_div(lcm, lmg)) * g
            assert sympy_reduces_to_zero(s.terms, [h.terms for h in basis], 2)

    def test_deterministic(self):
        gens = [X**2 * Y + X * Y**2, X * Z**2 - Y**2, Z**3 - X * Y]
        a = standard_basis_of(gens, DEGREVLEX)
        b = standard_basis_of(list(gens), DEGREVLEX)
        assert a == b

    def test_cache_reduces_generators_to_zero(self):
        pytest.importorskip("sympy")
        I = IdealPresentation(RING_XY, [x**2 - y, y**2])
        basis = I.standard_basis(DEGREVLEX)
        for g in I.generators:
            assert sympy_reduces_to_zero(g.terms, [h.terms for h in basis], 2)

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_permuted_local_order_gives_same_quotient_dims(self, data):
        # permuting the ring variables is the local order read through a
        # permutation: x_i^a_i plus terms of higher degree keeps x_i^a_i as
        # local lead, so the ideal is zero-dimensional at the origin, and
        # neither its quotient dimension nor its dimension may move; those
        # leads give a highest corner from the generators on, so both sides
        # must finish within the cap
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
            budget = Budget(PROPERTY_CAP)
            return quotient_dim_local(I, budget), dim_at_origin(I, budget)

        plain = dims(gens)
        permuted = dims([g.substitute(ring, images) for g in gens])
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

    def test_corner_bounds_the_coefficient_growth(self):
        # locally the maximal ideal; untruncated, Mora's completion takes 1474
        # steps and builds ints of 479 000 bits
        gens = [
            3 * X**2 * Y * Z**2 + X,
            -Fraction(7, 3) * Y**2 * Z**2 + Y,
            -Fraction(5, 2) * X**2 * Y**2 - 2 * Y**2 + Z,
            X * Z**2 + 2 * Y * Z**2,
        ]
        assert quotient_dim_local(IdealPresentation(RING_XYZ, gens), 50) == 1

    def test_staircase_and_corner_ride_on_the_local_basis(self):
        I = IdealPresentation(RING_XY, [x**2 + y**3, x * y])
        basis = I.standard_basis(LOCAL)
        # standard monomials 1, y, y^2, y^3 and x
        assert (basis.staircase_size, basis.corner) == (5, 4)
        assert quotient_dim_local(I) == 5
        assert I.standard_basis(DEGREVLEX).staircase_size is None
        assert IdealPresentation(RING_XY, [x]).standard_basis(LOCAL).staircase_size is None


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
        assert same_ideal(once, twice)

    def test_contains_original(self):
        pytest.importorskip("sympy")
        I = IdealPresentation(RING_XY, [x**2 * y])
        sat = saturate_single(I, x)
        for g in I.generators:
            assert sympy_reduces_to_zero(g.terms, [h.terms for h in sat.generators], 2)

    def test_embedded_point_saturated_away(self):
        # (x*y, y^2) is the line y = 0 with an embedded point at the origin
        I = IdealPresentation(RING_XY, [x * y, y**2])
        assert saturate_single(I, x).generators == (y,)

    def test_nothing_removed_gives_the_reduced_basis_of_the_input(self):
        # the saturation always carries its reduced degrevlex basis, never
        # the generators as given
        I = IdealPresentation(RING_XY, [2 * x**2 * y, x * y**2 + y**3])
        assert saturate_single(I, x + y + 1).generators == I.standard_basis(DEGREVLEX)

    def test_enlarged_result_is_a_reduced_degrevlex_basis(self):
        I = IdealPresentation(RING_XYZ, ENLARGED_BY_X)
        sat = saturate_single(I, X)
        assert sat.generators == standard_basis_of(sat.generators, DEGREVLEX)
        assert same_ideal(sat, IdealPresentation(RING_XYZ, [Y, Z**3]))

    def test_a_polynomial_of_another_ring_is_refused(self):
        # y of Q[x, y] is no element of Q[x, y, z]; lifting its exponents
        # into the tagged ring used to saturate by x instead
        with pytest.raises(RingMismatchError):
            saturate_single(IdealPresentation(RING_XYZ, [X * Y]), y)

    def test_zero_divisor_gives_the_unit_ideal(self):
        I = IdealPresentation(RING_XY, [x])
        assert saturate_single(I, RING_XY.zero()).generators == (RING_XY.one(),)

    def test_budget_bounds_the_saturation(self):
        with pytest.raises(IterationLimitError):
            saturate_single(IdealPresentation(RING_XYZ, ENLARGED_BY_X), X, cap=3)


def test_iteration_cap_fails_loudly():
    with pytest.raises(IterationLimitError):
        standard_basis_of([x**3 - y, y**3 - x, x * y - 1], DEGREVLEX, cap=3)


LIMIT = 2**31  # the kernel packs each exponent into a 32-bit field with a guard bit


def past_the_limit(degree: int):
    return pytest.raises(
        GermlabError,
        match=f"^monomial degree {degree} reaches the limit {LIMIT} of the packed exponent fields$",
    )


def test_a_degree_past_the_packed_fields_is_refused():
    big = RING_XY.monomial((LIMIT, 0))
    # on entry, whichever public route packs it
    with past_the_limit(LIMIT):
        standard_basis_of([big + y], DEGREVLEX)
    with past_the_limit(LIMIT):
        quotient_dim_local(IdealPresentation(RING_XY, [x, y + big]))
    # a pair lcm, and a reduction step, whose degree passes the limit
    top = LIMIT - 1
    with past_the_limit(2 * top - 2):
        standard_basis_of([x ** (top - 1) * y, x * y ** (top - 1)], DEGREVLEX)
    with past_the_limit(LIMIT):  # x leads x - y^top; its pair with x*y takes y times its tail
        standard_basis_of([x * y, x - y**top], ELIM_FIRST)
    # one below the limit still packs
    assert list(standard_basis_of([x**top + y**top], DEGREVLEX)) == [x**top + y**top]


def test_budget_counts_down():
    b = Budget(5)
    for _ in range(5):
        b.spend()
    with pytest.raises(IterationLimitError):
        b.spend()


def test_budget_spends_k_steps_at_once():
    # spend(k) is k calls of spend() in one: the same check and message
    b = Budget(3)
    b.spend(3)
    assert b.remaining == 0
    with pytest.raises(IterationLimitError, match="^reduction step cap exceeded$"):
        b.spend()
    with pytest.raises(IterationLimitError, match="^reduction step cap exceeded$"):
        Budget(3).spend(4)


def test_work_counts_match_the_recorded_runs():
    # exact Budget spends recorded before the pair queue became a heap and
    # leading monomials were cached, the local ones again when the local
    # completion began to truncate at the highest corner and once more when
    # it began to reduce within sugar, the global one again when it took the
    # chain criterion and once more (19 -> 12) when Gebauer-Moeller's update
    # replaced it, and the local milnor number once more (52 -> 41) when the
    # local completion took the chain criterion: equal counts mean pairs are
    # selected, skipped and reduced in the same order
    def spent(run) -> int:
        budget = Budget(10**5)
        run(budget)
        return 10**5 - budget.remaining

    mu = []
    g = X**2 * Y + Y**4 + Z**5 + X * Y * Z**2
    assert spent(lambda b: mu.append(milnor_number(g, b))) == 41
    assert mu == [20]
    jac = jacobian(X**3 * Y + Y**3 * Z + Z**3 * X)
    assert spent(lambda b: standard_basis_of(jac, DEGREVLEX, b)) == 12
    assert spent(lambda b: standard_basis_of(jac, LOCAL, b)) == 19


def test_a_cached_basis_serves_only_the_budget_that_paid_for_it():
    # the local basis of this Jacobian ideal spends 41 steps: its own budget
    # reads it again for free, but a cap of 1 must not
    I = IdealPresentation(RING_XYZ, jacobian(X**2 * Y + Y**4 + Z**5 + X * Y * Z**2))
    budget = Budget(10**5)
    assert quotient_dim_local(I, budget) == 20
    assert quotient_dim_local(I, budget) == 20
    assert 10**5 - budget.remaining == 41
    with pytest.raises(IterationLimitError):
        quotient_dim_local(I, cap=1)
    assert quotient_dim_local(I, cap=41) == 20


def test_a_budget_completes_each_ideal_once():
    # the Budget keeps every basis it completed, keyed on the ring, the order
    # and the set of primitive packed generators: the same generators listed
    # in another order, negated or scaled, or in another presentation, get
    # the same basis and spend nothing; another order or another Budget
    # completes again
    jac = jacobian(X**2 * Y + Y**4 + Z**5 + X * Y * Z**2)
    relisted = [-jac[2], 3 * jac[0], jac[1], jac[0]]
    budget = Budget(10**5)
    local = standard_basis_of(jac, LOCAL, budget)
    assert 10**5 - budget.remaining == 41
    assert standard_basis_of(relisted, LOCAL, budget) is local
    assert quotient_dim_local(IdealPresentation(RING_XYZ, relisted), budget) == 20
    assert 10**5 - budget.remaining == 41
    glob = standard_basis_of(jac, DEGREVLEX, budget)
    assert 10**5 - budget.remaining > 41
    spent = 10**5 - budget.remaining
    assert standard_basis_of(relisted, DEGREVLEX, budget) is glob
    assert 10**5 - budget.remaining == spent
    other = Budget(10**5)
    again = standard_basis_of(relisted, LOCAL, other)
    assert again is not local and again.staircase_size == local.staircase_size == 20
    assert 10**5 - other.remaining == 41


def test_saturation_work_count_is_pinned():
    # the polar ideal of (x + 2y + 3z, xyz): one Rabinowitsch elimination and
    # nothing else; another route or pair order moves the count (48 before
    # Gebauer-Moeller's update and the elimination-only tail)
    f, g = X + 2 * Y + 3 * Z, X * Y * Z
    minors = IdealPresentation(RING_XYZ, jacobian_minors(f, g))
    budget = Budget(10**5)
    sat = saturate_single(minors, f * g, budget)
    assert 10**5 - budget.remaining == 19
    assert sat.generators == (Y - Fraction(3, 2) * Z, X - 3 * Z)


def test_int_cap_bounds_the_whole_saturation():
    # the saturation above spends 19 steps on its elimination; an int cap
    # bounds it whole
    f, g = X + 2 * Y + 3 * Z, X * Y * Z
    with pytest.raises(IterationLimitError):
        saturate_single(IdealPresentation(RING_XYZ, jacobian_minors(f, g)), f * g, cap=18)
    saturate_single(IdealPresentation(RING_XYZ, jacobian_minors(f, g)), f * g, cap=19)


# a global basis with a polynomial of another ring, and a saturation by
# one, are refused alike
MEMBERSHIP_ROUTES = {
    "global": lambda p: standard_basis_of([x, p], DEGREVLEX, 10_000),
    "local": lambda p: saturate_single(IdealPresentation(RING_XY, [x]), p, 10_000),
}


@pytest.mark.parametrize("route", sorted(MEMBERSHIP_ROUTES))
def test_contains_rejects_a_polynomial_of_another_ring(route):
    # x*z is no element of Q[x, y]
    with pytest.raises(RingMismatchError):
        MEMBERSHIP_ROUTES[route](X * Z)


def test_a_zero_polynomial_of_another_ring_is_refused():
    # the zero of Q[u] is no element of Q[x, y] either: zero generators are
    # dropped only after the ring check
    zero_u = PolyRing(("u",)).zero()
    with pytest.raises(RingMismatchError):
        standard_basis_of([RING_XY.zero(), zero_u], DEGREVLEX)
    # zero generators of the one ring still give the zero basis
    assert len(standard_basis_of([RING_XY.zero()], DEGREVLEX)) == 0


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


# 4-5 generators in three variables: enough pairs that Buchberger's chain
# criterion skips some in every global completion, and divisors to saturate by
CHAIN_IDEALS = st.lists(nonzero_poly_strategy(RING_XYZ, max_degree=2, max_terms=3), min_size=4, max_size=5)
DIVISORS = nonzero_poly_strategy(RING_XYZ, max_degree=1, max_terms=2)


def sorted_terms(term_dicts) -> list:
    return sorted(sorted(t.items()) for t in term_dicts)


# a draw of --hypothesis-seed=11: sympy's lex basis of the saturation holds
# elements of degree 23, and its grevlex basis of them took minutes
SEED_11_GENS = [
    4 * X**2 * Y**2 * Z + X * Y * Z**2 + Fraction(7, 3),
    4 * X**2 * Y**2 * Z + X * Y * Z**2 + Fraction(7, 3),
    4 * X**2 * Z**2 - X**2 * Y * Z + Fraction(5, 3) * Y**2 * Z**2,
    4 * X**2 * Y**2 * Z + 2 * X - Fraction(3, 2) * Z**2,
]


@settings(deadline=None, max_examples=25)
@given(CHAIN_IDEALS, DIVISORS)
@example(SEED_11_GENS, -4 * X * Y)
def test_chain_criterion_bases_match_sympy(gens, f):
    pytest.importorskip("sympy")
    terms = [g.terms for g in gens]
    basis = standard_basis_of(gens, DEGREVLEX)
    assert sorted_terms(g.terms for g in basis) == sorted_terms(sympy_reduced_basis(terms, 3))
    sat = saturate_single(IdealPresentation(RING_XYZ, gens), f)
    assert sympy_is_reduced_basis_of([g.terms for g in sat.generators], sympy_saturation(terms, f.terms), 3)


def test_a_global_completion_divides_only_to_tail_reduce(monkeypatch):
    # every S-polynomial goes through the one reduction loop within its
    # sugar, under every order; full division serves only the tail reduction
    # of the minimal basis
    callers = []
    original = ideals._divide_global

    def recording(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args)

    monkeypatch.setattr(ideals, "_divide_global", recording)
    standard_basis_of([X**2 * Y + X * Y**2, X * Z**2 - Y**2, Z**3 - X * Y], DEGREVLEX)
    saturate_single(IdealPresentation(RING_XYZ, ENLARGED_BY_X), X)
    assert callers and set(callers) == {"_interreduce_global"}


def test_the_sugar_can_leave_a_reducible_lead_in_a_global_completion(monkeypatch):
    # saturating ENLARGED_BY_X by x reduces one S-polynomial of sugar 4 to a
    # remainder whose leading monomial only reducers of too large an ecart
    # divide; it joins the elimination basis, which stays a Groebner basis
    pytest.importorskip("sympy")
    blocked = []
    original = ideals._weak_normal_form

    def checking(h, reducers, pk, budget, bound, sugar):
        r = original(h, reducers, pk, budget, bound, sugar)
        if r and any(packed_divides(pk, g[0], pk.lead(r)) for g in reducers):
            blocked.append(sugar)
        return r

    monkeypatch.setattr(ideals, "_weak_normal_form", checking)
    sat = saturate_single(IdealPresentation(RING_XYZ, ENLARGED_BY_X), X)
    assert blocked == [4]
    lex = sympy_saturation([g.terms for g in ENLARGED_BY_X], X.terms)
    assert sympy_is_reduced_basis_of([g.terms for g in sat.generators], lex, 3)
    assert same_ideal(sat, IdealPresentation(RING_XYZ, [Y, Z**3]))


@settings(deadline=None, max_examples=40)
@given(st.data(), CHAIN_IDEALS, DIVISORS)
def test_bases_do_not_depend_on_generator_order_or_repeats(data, gens, f):
    # which pairs the chain criterion skips depends on which were popped
    # first, and so on the generators' order, repeats and redundant members;
    # the reduced bases do not
    a, b = data.draw(st.lists(st.sampled_from(gens), min_size=2, max_size=2))
    other = data.draw(st.permutations(gens)) + [data.draw(SCALARS) * a, a, a + b]
    assert standard_basis_of(other, DEGREVLEX) == standard_basis_of(gens, DEGREVLEX)
    sat = saturate_single(IdealPresentation(RING_XYZ, gens), f).generators
    assert saturate_single(IdealPresentation(RING_XYZ, other), f).generators == sat


@settings(deadline=None, max_examples=30)
@given(st.data(), IDEALS)
def test_saturation_matches_sympy(data, gens):
    # Gebauer-Moeller's update drops pairs in every elimination, which returns
    # only its t-free elements; the saturation is still sympy's, whose lex
    # basis reduces the result to zero and is reduced to zero by it
    pytest.importorskip("sympy")
    ring = gens[0].ring
    f = data.draw(nonzero_poly_strategy(ring, max_degree=2, max_terms=2), label="divisor")
    sat = saturate_single(IdealPresentation(ring, gens), f, PROPERTY_CAP)
    lex = sympy_saturation([g.terms for g in gens], f.terms)
    assert sympy_is_reduced_basis_of([g.terms for g in sat.generators], lex, ring.nvars)


def eliminated(gens, f):
    """The t-free part of the ELIM_FIRST basis of (gens, 1 - t*f) in Q[t, x]."""
    ring = f.ring
    ext = PolyRing(("t", *ring.variables))
    lift = [from_terms(ext, {(0, *e): c for e, c in p.terms.items()}) for p in (*gens, f)]
    basis = standard_basis_of([*lift[:-1], ext.one() - ext.variable(0) * lift[-1]], ELIM_FIRST, PROPERTY_CAP)
    return tuple(from_terms(ring, {e[1:]: c for e, c in p.terms.items()}) for p in basis if all(e[0] == 0 for e in p.terms))


def with_factors(gens):
    """gens, a monic monomial m with exponents up to 3, and h of degree <= 1."""
    ring = gens[0].ring
    monomial = st.tuples(*[st.integers(0, 3)] * ring.nvars).map(lambda e: from_terms(ring, {e: 1}))
    return st.tuples(st.just(gens), monomial, nonzero_poly_strategy(ring, max_degree=1, max_terms=2))


@settings(deadline=None, max_examples=30)
@given(IDEALS.flatmap(with_factors))
# (x*y) : (x^2)^infinity = (y): the factor x^2 is cut to x, never dropped
@example(([x * y], x**2, RING_XY.one()))
def test_saturation_by_a_monomial_factor_reads_only_its_support(case):
    # I : (m*h)^infinity = I : (support(m)*h)^infinity, and both are the
    # elimination of t from (I, 1 - t*m*h) with m*h left whole
    gens, m, h = case
    ring = m.ring
    support = from_terms(ring, {tuple(min(a, 1) for a in next(iter(m.terms))): 1})
    I = IdealPresentation(ring, gens)
    sat = saturate_single(I, m * h, PROPERTY_CAP).generators
    assert sat == saturate_single(I, support * h, PROPERTY_CAP).generators == eliminated(gens, m * h)


@settings(deadline=None, max_examples=30)
@given(st.data(), IDEALS)
def test_a_variable_generator_strips_its_multiples_locally(data, gens):
    # x_k removes its multiples from the other generators before the
    # completion starts; a pure power of every other variable, under terms of
    # higher degree, keeps the quotient finite, so m^D lies in the ideal at
    # the highest corner D and sympy counts the same quotient at D and D + 1
    pytest.importorskip("sympy")
    ring = gens[0].ring
    k = data.draw(st.integers(0, ring.nvars - 1), label="variable")
    powers = []
    for i in range(ring.nvars):
        if i != k:
            a = data.draw(st.integers(1, 3))
            tail = data.draw(poly_strategy(ring, max_degree=4, max_terms=2))
            higher = {e: c for e, c in tail.terms.items() if sum(e) > a}
            powers.append(ring.variable(i) ** a + from_terms(ring, higher))
    I = IdealPresentation(ring, gens + powers).plus([ring.variable(k)])
    basis = I.standard_basis(LOCAL, PROPERTY_CAP)
    terms = [g.terms for g in I.generators]
    expected = [sympy_local_quotient_dim(terms, d) for d in (basis.corner, basis.corner + 1)]
    assert [quotient_dim_local(I, PROPERTY_CAP)] * 2 == expected


@settings(deadline=None, max_examples=40)
@given(st.data(), IDEALS)
def test_global_division_matches_sympy(data, gens):
    # the remainder modulo the reduced basis is unique, so sympy's division
    # must find the same one; tail reduction's division returns it as one
    # positive int multiple, the terms moved to the tail early included
    pytest.importorskip("sympy")
    ring = gens[0].ring
    p = data.draw(poly_strategy(ring, max_degree=4, max_terms=6))
    basis = standard_basis_of(gens, DEGREVLEX)
    expected = sympy_remainder(p.terms, [g.terms for g in basis], ring.nvars)
    pk = DEGREVLEX._packing(ring.nvars)
    reducers = [ideals._reducer(ideals._integral(g, pk), pk) for g in basis]
    r = ideals._divide_global(ideals._packed(p, pk)[0], reducers, pk, Budget(PROPERTY_CAP))
    got = {pk.unpack(m): c for m, c in r.items()}
    assert got.keys() == expected.keys()
    if got:
        first = next(iter(got))
        scale = got[first] / expected[first]
        assert scale > 0
        assert {e: c / scale for e, c in got.items()} == expected


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


def local_completion(ring, gens, base=None):
    """The LOCAL completion of gens, packed, resuming base if given; None
    past the property cap."""
    pk = LOCAL._packing(ring.nvars)
    try:
        return ideals._complete(ring, LOCAL, [ideals._integral(g, pk) for g in gens], Budget(PROPERTY_CAP), base)
    except IterationLimitError:
        return None


@settings(deadline=None, max_examples=40)
@given(st.data(), IDEALS)
def test_a_resumed_completion_counts_what_a_fresh_one_does(data, gens):
    # resuming a completed base pairs only the added generators, and the
    # staircase and corner belong to the ideal alone; a pure power of each
    # variable, in the base, among the added generators or left out, makes
    # most quotients finite and lets the base's corner truncate
    ring = gens[0].ring
    base_gens, extra = list(gens), data.draw(
        st.lists(nonzero_poly_strategy(ring, max_degree=3, max_terms=3), min_size=1, max_size=2)
    )
    for i in range(ring.nvars):
        power = ring.variable(i) ** data.draw(st.integers(2, 5))
        where = data.draw(st.sampled_from([base_gens, extra, []]))
        where.append(power)
    base = local_completion(ring, base_gens)
    fresh = local_completion(ring, base_gens + extra)
    assume(base is not None and fresh is not None)
    for _ in range(2):  # the base serves again
        resumed = local_completion(ring, extra, base)
        assume(resumed is not None)
        assert (resumed.staircase_size, resumed.corner) == (fresh.staircase_size, fresh.corner)
        # both minimal bases lead with the minimal generators of one leading
        # ideal, read on first use
        assert len(resumed) == len(fresh)
        if fresh.corner is None:
            # nothing was truncated, so both lead with the minimal
            # generators of the leading ideal
            assert set(resumed.leading) == set(fresh.leading)


F = Fraction
# positive-dimensional local ideals that the scaling property drew: Mora's
# normal form chased their S-polynomials up in degree over ints of 10^4 bits
# and more
CURVE_GERMS = {
    # past 20 000 steps and minutes
    "x-and-y2": [
        -12 * X * Y**2 * Z + 12 * X**2 - 8 * Y**2,
        -6 * X**2 * Y**2 * Z**2 + F(2, 3) * X**2 * Y + F(22, 3) * X**2,
        F(4, 3) * X**2 * Y**2 * Z**2 + F(1, 6) * Y * Z - X,
    ],
    # over 15 s
    "two-generators": [
        F(16, 3) * X * Y**2 * Z**2 + F(20, 3) * X**2 * Y - 10 * Y**2 * Z,
        -F(3, 5) * X**2 * Y**2 * Z**2 - F(7, 15) * X * Y**2 * Z**2 - F(7, 10) * X * Y**2,
    ],
    # 1524 steps, 8 s
    "z-squared-lead": [
        2 * Y**2 * Z - F(7, 2) * X**2 + F(5, 2) * Z**2,
        4 * X**2 * Y * Z + 4 * X**2 * Y + X * Y,
        -4 * X**2 * Y - F(5, 3) * X**2 * Z + F(7, 3) * Z**2,
    ],
    # past 20 s
    "six-leads": [
        4 * X**2 * Y**2 * Z + X**2 * Y * Z**2 + X**2 * Z**2,
        F(9, 2) * X**2 * Y**2 * Z - F(9, 2) * X**2 * Z**2,
        -F(6, 5) * Y**2 * Z**2 + F(2, 5) * X**2 * Y + F(18, 5) * X * Z**2,
    ],
}


def standard_count_below(lead, nvars: int, degree: int) -> int:
    """The monomials of degree < degree that no monomial of lead divides."""
    below = [e for e in itertools.product(range(degree), repeat=nvars) if sum(e) < degree]
    return sum(1 for e in below if not any(mono_divides(lm, e) for lm in lead))


@pytest.mark.parametrize("name", CURVE_GERMS)
def test_local_basis_of_a_curve_germ_matches_sympy(name):
    # the completion reduces within sugar and skips pairs by the chain
    # criterion, so the first takes 1822 steps, the others under 500 (28 551
    # and about 2 s, and under 2000, before the chain criterion); for a local
    # degree order the leading ideal of I + m^D is L(I) + m^D, so its
    # standard monomials of degree < D count dim O/(I + m^D), which sympy
    # finds from a global basis
    pytest.importorskip("sympy")
    gens = CURVE_GERMS[name]
    I = IdealPresentation(RING_XYZ, gens)
    lead = [leading_monomial(g, LOCAL) for g in I.standard_basis(LOCAL, 30_000)]
    assert dim_at_origin(I) >= 1
    for degree in (4, 6):
        assert standard_count_below(lead, 3, degree) == sympy_local_quotient_dim([g.terms for g in gens], degree)


def germ_strategy(ring: PolyRing) -> st.SearchStrategy[Poly]:
    """Germs at the origin: up to four terms of degree 1 to 4."""
    exps = st.tuples(*[st.integers(0, 4)] * ring.nvars).filter(lambda e: 1 <= sum(e) <= 4)
    return st.dictionaries(exps, st.integers(-4, 4).filter(bool), min_size=1, max_size=4).map(
        lambda t: from_terms(ring, {e: Fraction(c) for e, c in t.items()})
    )


LOCAL_IDEALS = st.one_of(
    st.lists(germ_strategy(RING_XY), min_size=2, max_size=4),
    st.lists(germ_strategy(RING_XYZ), min_size=2, max_size=4),
)


@settings(deadline=None, max_examples=100)
@given(LOCAL_IDEALS)
# locally (y, x^2*z^2): a chain rule that skips without lm_k | lcm, or reads
# waiting pairs, or pairs popped with only one of i and j, miscounts it
@example([2 * X * Y * Z, -F(1, 2) * Y**3 * Z - F(1, 3) * Y, -2 * X**2 * Z**2 - Y, -F(1, 3) * X * Y**2 * Z])
def test_local_staircase_matches_sympy(gens):
    # the LOCAL completion skips a pair by the chain criterion, reading the
    # pairs popped before it; as for the curve germs above, its standard
    # monomials of degree < d must count dim O/(I + m^d), whether the
    # quotient is finite or not.  Some draws spend a minute on the 20 000
    # steps of PROPERTY_CAP, so a cap of 2000 bounds each one
    pytest.importorskip("sympy")
    try:
        basis = standard_basis_of(gens, LOCAL, 2000)
    except IterationLimitError:
        assume(False)
    for degree in (3, 5):
        count = standard_count_below(basis.leading, gens[0].ring.nvars, degree)
        assert count == sympy_local_quotient_dim([g.terms for g in gens], degree)


def test_a_staircase_longer_than_the_cap_raises_naming_its_size():
    # (x^1000, y^1000) has 10^6 standard monomials; they count against the
    # cap of 10 000, counted 1000 per exponent of x until the count passes it
    I = IdealPresentation(RING_XY, [x**1000, y**1000])
    budget = Budget(10_000)
    with pytest.raises(IterationLimitError) as exc:
        quotient_dim_local(I, budget)
    assert str(exc.value) == (
        "reduction step cap exceeded: the staircase has at least 11000 standard "
        "monomials, more than the cap of 10000"
    )
    # the count is not spent: the one (coprime) pair is the only step
    assert budget.remaining == 10_000 - 1


def test_a_staircase_in_three_variables_past_the_cap_names_the_first_row_past_it():
    # (x^9, y^9, z^9) holds 81 monomials per exponent of x: the walk passes
    # the cap of 100 in the second plane, at the end of its second row of 9
    I = IdealPresentation(RING_XYZ, [X**9, Y**9, Z**9])
    with pytest.raises(IterationLimitError) as exc:
        quotient_dim_local(I, Budget(100))
    assert str(exc.value) == (
        "reduction step cap exceeded: the staircase has at least 108 standard "
        "monomials, more than the cap of 100"
    )


def test_a_staircase_as_long_as_the_cap_is_counted():
    budget = Budget(10_000)
    assert quotient_dim_local(IdealPresentation(RING_XY, [x**100, y**100]), budget) == 10_000
    assert budget.remaining == 10_000 - 1


def brute_force_staircase(lead, powers):
    """The standard monomials of lead in lexicographic order, from the box
    that the pure powers x_i^powers[i] among lead bound."""
    box = itertools.product(*(range(a) for a in powers))
    return [e for e in box if not any(mono_divides(lm, e) for lm in lead)]


def leads_with_pure_powers(data, nvars: int, top: int) -> list:
    """A shuffled list of leading monomials in nvars variables, exponents up
    to top, that holds a pure power of each variable, up to six others
    (which may divide or repeat one another) and up to two repeats."""
    powers = data.draw(st.lists(st.integers(0, top), min_size=nvars, max_size=nvars))
    pure = [tuple(a if k == i else 0 for k in range(nvars)) for i, a in enumerate(powers)]
    others = data.draw(st.lists(st.tuples(*[st.integers(0, top)] * nvars), max_size=6))
    repeats = data.draw(st.lists(st.sampled_from(pure + others), max_size=2))
    return data.draw(st.permutations(pure + others + repeats))


def counted_or_refused(count, *args):
    """count(*args), or the text of the IterationLimitError it raises."""
    try:
        return count(*args)
    except IterationLimitError as exc:
        return str(exc)


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_a_counted_staircase_matches_the_box_it_lies_in(data):
    nvars = data.draw(st.integers(1, 4))
    lead = leads_with_pure_powers(data, nvars, 7 if nvars < 4 else 5)
    powers = [min(lm[i] for lm in lead if not any(lm[:i] + lm[i + 1 :])) for i in range(nvars)]
    standard = brute_force_staircase(lead, powers)
    size, corner = len(standard), 1 + max(map(sum, standard), default=-1)
    assert ideals._staircase_count(lead, nvars, 10**6) == (size, corner) == staircase_walk(lead, nvars, 10**6)
    # a staircase read as its lead list grows recounts after each growth
    stairs = ideals._Staircase([], nvars, 10**6)
    for lm in lead:
        stairs.lead.append(lm)
        stairs.add(sum(1 << i for i, a in enumerate(lm) if a))
        stairs.read()
    assert (stairs.size, stairs.corner) == (size, corner)
    if size:
        limit = data.draw(st.integers(0, size - 1))
        # the count at the end of the first run of last exponents, taken in
        # lexicographic order, that passes the limit
        ends = itertools.accumulate(len(list(run)) for _, run in itertools.groupby(standard, lambda e: e[:-1]))
        counted = next(n for n in ends if n > limit)
        message = (
            f"reduction step cap exceeded: the staircase has at least {counted} standard "
            f"monomials, more than the cap of {limit}"
        )
        assert counted_or_refused(ideals._staircase_count, lead, nvars, limit) == message
        assert counted_or_refused(staircase_walk, lead, nvars, limit) == message


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_the_closed_form_count_is_the_reference_walk(data):
    # exponents too large for a box: the count, its corner and the text of
    # the cap's error, at caps above and below the size, are the walk's
    nvars = data.draw(st.integers(1, 4))
    lead = leads_with_pure_powers(data, nvars, data.draw(st.sampled_from((3, 30, 300))))
    limit = data.draw(st.integers(1, 10**6) | st.integers(1, 60))
    assert counted_or_refused(ideals._staircase_count, lead, nvars, limit) == counted_or_refused(
        staircase_walk, lead, nvars, limit
    )


def count_minimalizations(monkeypatch) -> list:
    """The calls of ideals._minimalized, which picks a minimal basis out of
    a completion, from now on."""
    calls = []
    original = ideals._minimalized

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ideals, "_minimalized", counting)
    return calls


def test_a_local_basis_is_minimalized_on_first_read_once(monkeypatch):
    calls = count_minimalizations(monkeypatch)
    gens = [2 * x**2 - 3 * y**3 + x * y**2, x * y - Fraction(1, 5) * y**4]
    basis = standard_basis_of(gens, LOCAL)
    assert (basis.staircase_size, basis.corner) == (5, 4)
    assert calls == []
    assert basis.leading == ((0, 4), (1, 1), (2, 0))
    assert len(calls) == 1
    assert len(basis) == 3 and len(basis.elements) == 3
    assert basis == standard_basis_of(gens, LOCAL) and dim_at_origin(IdealPresentation(RING_XY, gens)) == 0
    assert len(calls) == 3  # the second basis, read to compare, and the presentation's
    # a global completion minimalizes before it tail-reduces, in the completion
    standard_basis_of(gens, DEGREVLEX)
    assert len(calls) == 4


def count_builds(monkeypatch) -> list:
    """The calls of ideals._unpacked, which turns a packed basis element
    into a Poly, from now on."""
    calls = []
    original = ideals._unpacked

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ideals, "_unpacked", counting)
    return calls


def test_counts_and_dimensions_build_no_fraction_basis(monkeypatch):
    builds = count_builds(monkeypatch)
    g = X**2 * Y + Y**4 + Z**5 + X * Y * Z**2
    assert milnor_number(g) == 20
    I = IdealPresentation(RING_XYZ, jacobian(g))
    assert quotient_dim_local(I) == 20
    assert dim_at_origin(I) == 0
    assert dim_at_origin(IdealPresentation(RING_XYZ, [X * Y, X * Z])) == 2
    assert builds == []


def test_a_read_basis_is_built_once_and_equals_its_tuple(monkeypatch):
    builds = count_builds(monkeypatch)
    gens = [2 * x**2 - 3 * y**3 + x * y**2, x * y - Fraction(1, 5) * y**4]
    basis = standard_basis_of(gens, LOCAL)
    assert (len(basis), basis.staircase_size, basis.corner) == (3, 5, 4)
    assert basis.leading == ((0, 4), (1, 1), (2, 0))
    assert builds == []
    # the tuple the basis equalled while it was built on return
    expected = (
        y**4,
        x * y - Fraction(1, 5) * y**4,
        x**2 + Fraction(1, 2) * x * y**2 - Fraction(3, 2) * y**3,
    )
    assert basis[1] == expected[1]
    assert len(builds) == 3
    assert basis == expected and expected == basis
    assert tuple(basis) == expected and list(basis) == list(expected)
    assert basis[0] is next(iter(basis))
    assert [leading_monomial(p, LOCAL) for p in basis] == list(basis.leading)
    assert hash(basis) == hash(expected)
    assert basis == standard_basis_of(gens, LOCAL)
    assert basis != expected[:2] and basis != list(expected)
    assert len(builds) == 6  # the second basis, built to compare
