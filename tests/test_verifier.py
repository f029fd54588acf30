"""Deformation cases, identity verdicts, and the full sweep law."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germlab import (
    ComponentMismatchError,
    ExponentRangeError,
    GermlabError,
    HypothesisError,
    IdealPresentation,
    IterationLimitError,
    branch_slice_milnor,
    critical_locus,
    deformed_polar_ideal,
    iomdin_threshold,
    relative_polar_ideal,
    load_scenario,
    milnor_number,
    parse_poly,
    verify_scenario,
)
from germlab import export_dataset, ideals, invariants, le, verifier
from germlab import polar as polar_module
from germlab.polar import GapReport
from germlab.ideals import Budget
from germlab.orders import DEGREVLEX, ELIM_FIRST, LOCAL
from germlab.rings import Poly, jacobian
from germlab.fixtures_lib import fixture_text, load_fixture
from germlab.verifier import (
    ScenarioContext,
    check_hypotheses,
    generic_linear_candidates,
    resolve_linear_form,
)
from germlab.invariants import BranchParam, T_RING, branch_terms
from germlab.le import le_numbers
from conftest import (
    RING_XY,
    RING_XYZ,
    deformation_case,
    leading_monomial,
    nonzero_poly_strategy,
    per_n_m_tilde,
    poly_strategy,
)
from oracles import sympy_local_quotient_dim

x, y = RING_XY.variable(0), RING_XY.variable(1)
X, Y, Z = (RING_XYZ.variable(i) for i in range(3))
t = T_RING.variable(0)
o = T_RING.zero()
AXIS = BranchParam("axis", (o, o, t))

CN_FIXTURES = [
    "cylinder",
    "three-lines",
    "pinch-point",
    "cusp-isolated",
    "double-axes",
    "brieskorn-345",
    "cylinder-z3",
]


class TestBuildDeformation:
    def test_cylinder_case(self):
        _, case = deformation_case(X**2 + Y**2, Z, 3)
        assert case.certificate == 2
        assert case.g_tilde == X**2 + Y**2 + Z**3

    def test_three_lines_case(self):
        _, case = deformation_case(X * Y * (X + Y), Z, 2)
        assert case.certificate == 4

    def test_hypothesis_failure(self):
        # the critical axis of the cylinder lies inside {x = 0}
        with pytest.raises(HypothesisError, match="sigma-meets-f"):
            deformation_case(X**2 + Y**2, X, 3)

    def test_subthreshold_nonisolation_is_reported_not_fatal(self):
        g = x**2 * y**2 - (x - y) ** 2
        ctx, case = deformation_case(g, x - y, 2)
        assert case.certificate is None
        # without parametrized components only the sound bound is available
        assert ctx.gap.threshold == 7

    def test_nonisolation_at_threshold_is_fatal(self):
        g = x**2 * y**2 - (x - y) ** 2
        ctx, _ = deformation_case(g, x - y, 2)
        ctx.gap = GapReport(ratios=(), g_intersection=1)  # threshold 2
        with pytest.raises(HypothesisError, match="isolation-at-threshold"):
            ctx.case(2)

    def test_exponent_lower_bound(self):
        with pytest.raises(ValueError):
            deformation_case(X**2 + Y**2, Z, 1)


def le_iomdin(g: Poly, f: Poly, n: int):
    """Row n's massey, chi, tibar and morse verdicts with the Morse defect and
    expansion, from the Le-Iomdin routine of the run on (g, f)."""
    ctx, case = deformation_case(g, f, n)
    return verifier._le_iomdin_rows(ctx)(n, case.certificate)


class TestIdentityExamples:
    def test_massey_cylinder_n5(self):
        verdict = le_iomdin(X**2 + Y**2, Z, 5)[0][0]
        assert verdict.status == "PASS" and verdict.left == 4 and verdict.right == 4

    def test_massey_three_lines_n3(self):
        verdict = le_iomdin(X * Y * (X + Y), Z, 3)[0][0]
        assert verdict.left == 8 and verdict.right == 8

    def test_massey_isolated_stability(self):
        verdict = le_iomdin(x**3 + y**3, x + 2 * y, 8)[0][0]
        assert verdict.status == "PASS" and verdict.left == 4

    def test_chi_sides_cylinder(self):
        for n in range(2, 7):
            verdict = le_iomdin(X**2 + Y**2, Z, n)[0][1]
            assert verdict.left == verdict.right == n

    def test_chi_sides_three_lines(self):
        for n in range(2, 7):
            verdict = le_iomdin(X * Y * (X + Y), Z, n)[0][1]
            assert verdict.left == verdict.right == 4 * n - 3

    def test_morse_defect_cylinder_n4(self):
        (*_, verdict), defect, expansion = le_iomdin(X**2 + Y**2, Z, 4)
        assert verdict.status == "PASS"
        assert expansion == 4 and defect == -4

    def test_morse_defect_three_lines_n2(self):
        (*_, verdict), defect, expansion = le_iomdin(X * Y * (X + Y), Z, 2)
        assert expansion == 8 and verdict.status == "PASS"

    def test_morse_defect_isolated_is_zero(self):
        (*_, verdict), defect, expansion = le_iomdin(x**3 + y**3, x + 2 * y, 8)
        assert defect == 0 and expansion == 0 and verdict.status == "PASS"


class TestSweep:
    @pytest.mark.parametrize("name", CN_FIXTURES)
    def test_full_sweep_law(self, name):
        table = verify_scenario(load_fixture(name), relative_to_threshold=True)
        assert table.ok, table.to_text()
        for row in table.rows:
            assert row.in_range
            assert row.certificate is not None
            for v in row.verdicts:
                assert v.status != "FAIL", (name, row.n, v)

    def test_subthreshold_rows_labeled_and_not_asserted(self):
        table = verify_scenario(load_fixture("double-axes"))
        below = [row for row in table.rows if row.n < table.threshold]
        assert below and all(not row.in_range for row in below)
        assert below[0].certificate is None  # reported, never asserted
        for v in below[0].verdicts[:4]:  # massey, chi, tibar and morse
            assert (v.status, v.note) == ("SKIPPED", "deformation is not isolated")
        assert table.ok

    def test_tibar_and_chi_defects_agree_row_by_row(self):
        # chi, tibar and morse present one identity, so they skip together
        # and, where evaluated, differ only by chi(F_g) and the sign
        for name in CN_FIXTURES:
            table = verify_scenario(load_fixture(name))
            sign = (-1) ** (len(table.variables) - 1)
            for row in table.rows:
                by_name = {v.name: v for v in row.verdicts}
                chi, tibar, morse = by_name["chi"], by_name["tibar"], by_name["morse"]
                assert chi.status == tibar.status == morse.status, (name, row.n)
                if chi.status == "SKIPPED":
                    continue
                assert (chi.left - table.chi_g) == tibar.left
                assert (chi.right - table.chi_g) == tibar.right
                assert morse.left == sign * tibar.left
                assert morse.right == sign * tibar.right

    def test_isolation_certificate_across_corpus(self):
        for name in CN_FIXTURES:
            table = verify_scenario(load_fixture(name), relative_to_threshold=True)
            assert all(row.certificate is not None for row in table.rows), name

    def test_hypotheses_are_checked_once_per_run(self, monkeypatch):
        calls = []
        original = verifier.check_hypotheses

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(verifier, "check_hypotheses", counting)
        table = verify_scenario(load_fixture("double-axes"))
        assert len(table.rows) == 7
        assert len(calls) == 1

    # cylinder has an empty polar curve; double-axes spends its last steps
    # inside a row's polar intersection
    @pytest.mark.parametrize("name", ["cylinder", "double-axes"])
    def test_one_budget_spans_the_whole_run(self, monkeypatch, name):
        made = []
        original = Budget.__init__

        def counting(budget, cap=None):
            original(budget, cap)
            made.append(budget)

        monkeypatch.setattr(Budget, "__init__", counting)
        sc = load_fixture(name)
        verify_scenario(sc)
        assert len(made) == 1
        spent = sc.limits.reduction_cap - made[0].remaining

        tight = sc._replace(limits=sc.limits._replace(reduction_cap=spent - 1))
        with pytest.raises(IterationLimitError):
            verify_scenario(tight)
        # with a fresh budget per kernel call no single call reaches the cap:
        # the context keeps the int cap, which each public kernel call turns
        # into a fresh Budget (see as_budget), and so does each completion of
        # a row kind's base and of a row
        class PerCall(int):
            def completed(self, *args):
                return Budget(self).completed(*args)

        def fresh(ring, order, gens, cap, base, real=verifier._complete):
            return real(ring, order, gens, Budget(cap), base)

        monkeypatch.setattr(verifier, "Budget", PerCall)
        monkeypatch.setattr(verifier, "_complete", fresh)
        assert verify_scenario(tight).ok

    def test_export_spends_from_one_budget(self, monkeypatch):
        made = []
        original = Budget.__init__

        def counting(budget, cap=None):
            original(budget, cap)
            made.append(budget)

        monkeypatch.setattr(Budget, "__init__", counting)
        sc = load_fixture("pinch-point")
        export_dataset(sc, 3)
        assert len(made) == 1
        spent = sc.limits.reduction_cap - made[0].remaining
        tight = sc._replace(limits=sc.limits._replace(reduction_cap=spent - 1))
        with pytest.raises(IterationLimitError):
            export_dataset(tight, 3)

    def test_export_saturates_each_polar_ideal_once(self, monkeypatch):
        # the polar ideal of g + f^N is the N-independent deformed one, so no
        # polar ideal of the deformation is built
        seen = []
        for name in ("relative_polar_ideal", "deformed_polar_ideal"):
            original = getattr(verifier, name)

            def counting(f, g, *args, original=original, name=name, **kwargs):
                seen.append((name, str(g)))
                return original(f, g, *args, **kwargs)

            monkeypatch.setattr(verifier, name, counting)
            monkeypatch.setattr(polar_module, name, counting)
        export_dataset(load_fixture("cylinder"), 3)
        assert seen == [("relative_polar_ideal", "x^2 + y^2"), ("deformed_polar_ideal", "x^2 + y^2")]

    def test_unbranched_critical_curve_skips_the_branch_sums(self):
        # the verdicts read the run's branch sum, lambda1 for a linear f, so
        # only the export's branch fields need declared branches
        sc = load_fixture("cylinder")._replace(branches=())
        table = verify_scenario(sc, n_range=(2, 3))
        assert table.terms is None and table.ok
        for row in table.rows:
            by_name = {v.name: v for v in row.verdicts}
            for name in ("chi", "tibar", "morse"):
                assert by_name[name].status == "PASS"
        ds = export_dataset(sc, 3)
        assert ds.branch_table is None
        assert "eu_Xg_0" not in ds.known and "B_f_Xg_0" not in ds.known

    def test_nothing_asserted_is_not_ok(self):
        table = verify_scenario(load_fixture("cusp-isolated"), n_range=(2, 5))
        assert table.threshold == 7 and table.rows
        assert not table.ok
        assert table.to_text().endswith("overall: NOTHING ASSERTED (every N below threshold 7)")

    def test_relative_range_is_bounded_by_n_max(self):
        with pytest.raises(ExponentRangeError, match="threshold 7 plus span 58"):
            verify_scenario(load_fixture("cusp-isolated"), n_range=(2, 60), relative_to_threshold=True)

    def test_chi_backward_consistency(self):
        # recover chi(F_g) from the deformed fibre and the branch sum
        for name in ("cylinder", "three-lines", "pinch-point"):
            table = verify_scenario(load_fixture(name))
            v = len(table.variables)
            sign = (-1) ** (v - 1)
            assert table.terms is not None
            total = sum(
                t.multiplicity * t.local_degree * t.slice_milnor for t in table.terms
            )
            for row in table.rows:
                if row.chi_gtilde is None:
                    continue
                assert table.chi_g == row.chi_gtilde - sign * row.n * total

    def test_dataset_only_scenario_rejected(self):
        sc = load_scenario(fixture_text("cusp-curve"))
        for run in (verify_scenario, lambda sc: export_dataset(sc, 3)):
            with pytest.raises(GermlabError, match=r"^this command needs a polynomial scenario \(variables and g\)$"):
                run(sc)

    def test_export_rejects_a_branch_off_the_critical_locus(self):
        # x(t) vanishes at the ladder points t = 1/2 and 1/4, so the slice
        # data are those of the axis, but 2*x has order 1 along the branch
        off = BranchParam("off", (t * (2 * t - 1) * (4 * t - 1), o, t))
        sc = load_fixture("cylinder")._replace(branches=(off,))
        message = "branch 'off' is not on the critical locus: generator 2[*]x vanishes only to order 1"
        with pytest.raises(GermlabError, match=message):
            verify_scenario(sc)
        with pytest.raises(GermlabError, match=message):
            export_dataset(sc, 3)


LE_GERM = X**2 * Y**2 + Z**3
POLAR_GERM = X**2 * Y**2 + X**2 * Z**2 + Y**2 * Z**2
FORM = X + 2 * Y + 3 * Z
PUBLIC_CALLS = {
    "le_numbers": lambda cap: le_numbers(LE_GERM, FORM, cap=cap),
    "relative_polar_ideal": lambda cap: relative_polar_ideal(FORM, POLAR_GERM, cap=cap),
    "deformed_polar_ideal": lambda cap: deformed_polar_ideal(FORM, POLAR_GERM, cap=cap),
    "critical_locus": lambda cap: critical_locus(POLAR_GERM, FORM, cap),
    "check_hypotheses": lambda cap: check_hypotheses(X * Y * (X + Y), Z, cap),
    "branch_slice_milnor": lambda cap: branch_slice_milnor(X * Y * (X + Y), Z, AXIS, cap),
    "branch_terms": lambda cap: branch_terms(X * Y * (X + Y), Z, [AXIS], cap),
    "iomdin_threshold": lambda cap: iomdin_threshold(Z, X**2 + Y**2 + Z**3, cap=cap),
    "resolve_linear_form": lambda cap: resolve_linear_form(load_fixture("cusp-isolated"), cap),
}


@pytest.mark.parametrize("name", sorted(PUBLIC_CALLS))
def test_int_cap_bounds_the_whole_public_call(name):
    # every call below runs several kernel calls; an int cap one below what
    # they spend together must raise, not start a fresh budget in each
    call = PUBLIC_CALLS[name]
    budget = Budget(10**6)
    call(budget)
    spent = 10**6 - budget.remaining
    with pytest.raises(IterationLimitError):
        call(spent - 1)
    call(spent)


def test_generic_ladder_is_deterministic():
    first = [str(c) for c in generic_linear_candidates(RING_XYZ)]
    second = [str(c) for c in generic_linear_candidates(RING_XYZ)]
    assert first == second
    assert first[0] == "x + 2*y + 3*z"


def test_verdict_table_json_shape():
    table = verify_scenario(load_fixture("cylinder"))
    doc = table.to_json_dict()
    assert doc["schema_version"] == "2"
    assert doc["defaults"]["limits"] == {"reduction_cap": 10**6, "trunc": 16}
    assert doc["ok"] is True
    assert doc["rows"][0]["N"] == 2
    assert json.dumps(doc, sort_keys=True)  # serializable


# reduction steps of verify_scenario over N = 2..30, the benchmark's sweep;
# 311, 271, 316, 106, 448, 208 and 283 (1943 in all) while every row
# completed its two ideals from scratch in the original coordinates.
# cusp-isolated rises: in the row coordinates of f = x + 2y both quadratic
# Jacobian generators lead with x^2, where in the original ones they lead
# with the coprime x^2 and y^2 (resuming there would spend 268).
# double-axes spent 118 while global completions divided S-polynomials fully.
# The four isolated fixtures spent 255, 448, 260 and 117 (1483 in all) while
# every row ran both completions; past its determinacy point a row now reuses
# the last computed numbers (see ScenarioContext.case), and the three fixtures
# whose g is not isolated never get there, so they spend what they spent.
# They spent 87, 73, 52, 78, 67, 180 and 145 (682 in all) before global
# completions updated their pairs by Gebauer-Moeller, returned only the
# elimination ideal under ELIM_FIRST and let monomial generators strip their
# multiples.  They spent 77, 70, 42, 71, 57, 166 and 137 (620 in all) while
# one run completed the same ideal more than once: Jac(g), the polar ideal
# (whose minors are the Jacobian row base's up to sign when f is a
# coordinate) and the slice Jacobians of the branch ladder.  cylinder,
# pinch-point and three-lines spent 68, 162 and 123 (578 in all) while the
# two hyperplane slices of lambda^1's cross-route were completed in all
# the variables, with the aligned coordinate as one more generator.
# double-axes spent 50 (564 in all) before the LOCAL completion skipped
# pairs by Buchberger's chain criterion.
SWEEP_SPEND = {
    "brieskorn-345": 72,
    "cusp-isolated": 66,
    "cylinder-z3": 37,
    "cylinder": 64,
    "double-axes": 48,
    "pinch-point": 160,
    "three-lines": 115,
}


# reduction steps of the benchmark's heavy tier at ladder rung 0: Le numbers
# against x + 2y + 3z, then Milnor numbers; the Le rows spent 421, 610, 173
# and 115 (1439 in all) while the elimination completion divided every
# S-polynomial fully and picked pairs by lcm alone, and 428, 303, 110 and
# 116 (1077 in all) before it updated its pairs by Gebauer-Moeller and
# returned only the elimination ideal, and monomial generators stripped
# their multiples, and 301, 168, 52 and 98 (739 in all, with the Milnor
# rows) while lambda^1's two hyperplane slices were completed in all three
# variables, with the aligned coordinate as one more generator; the rows
# that now spend less spent 284, 157, 42, 52 and 49 (688 in all) before the
# LOCAL completion skipped pairs by Buchberger's chain criterion
HEAVY_SPEND = {
    ("le", "x^2*y^2+x^2*z^2+y^2*z^2"): 249,
    ("le", "y^2-x^3+z*x^2*y"): 156,
    ("le", "x^2*y^2+z^3"): 40,
    ("le", "x^3+y^3+x*y*z"): 85,
    ("mu", "x^2*y+y^4+z^5+x*y*z^2"): 41,
    ("mu", "x^4+y^4+z^4+x^2*y*z"): 43,
    ("mu", "x^3*y+y^3*z+z^3*x"): 19,
}


def budget_spend(run) -> int:
    """Steps spent by every Budget that run() creates."""
    made = []
    original = Budget.__init__

    def counting(budget, cap=None):
        original(budget, cap)
        made.append((budget, budget.remaining))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Budget, "__init__", counting)
        run()
    return sum(start - b.remaining for b, start in made)


def test_sweep_spend_is_pinned():
    spend = {
        name: budget_spend(lambda: verify_scenario(load_fixture(name), n_range=(2, 30)))
        for name in SWEEP_SPEND
    }
    assert spend == SWEEP_SPEND
    assert sum(spend.values()) == 562


@pytest.mark.parametrize("name", SWEEP_SPEND)
def test_a_scenario_verified_twice_reports_and_spends_the_same(name):
    # the bases a run completes live in its Budget, not on the Scenario or
    # its polynomials, so a second run on the same objects pays again
    scenario = load_fixture(name)
    tables = []
    spends = [budget_spend(lambda: tables.append(verify_scenario(scenario, n_range=(2, 30)))) for _ in range(2)]
    assert spends == [SWEEP_SPEND[name]] * 2
    first, second = (json.dumps(table.to_json_dict(), sort_keys=True) for table in tables)
    assert first == second


def test_heavy_tier_spend_is_pinned():
    form = next(generic_linear_candidates(RING_XYZ))
    run = {"le": lambda g: le_numbers(g, form), "mu": milnor_number}
    spend = {
        (kind, text): budget_spend(lambda: run[kind](parse_poly(text, RING_XYZ)))
        for kind, text in HEAVY_SPEND
    }
    assert spend == HEAVY_SPEND
    assert sum(spend.values()) == 633


def test_heavy_tier_order_key_evaluations_are_pinned(monkeypatch):
    # the kernel packs monomials into ints that compare in the order, so keys
    # are left to leading-monomial queries outside it; a scan of every term
    # for the leading one after each step made 89 333, a second
    # interreduction pass, which reduced nothing, made 8933, the saturation's
    # check against a degrevlex basis of its input made 8805, and key plus
    # rank evaluations, while global division kept a heap by a per-order
    # rank, made 7928
    calls = [0]

    def counting(real):
        def wrapper(e):
            calls[0] += 1
            return real(e)

        return wrapper

    for order in (DEGREVLEX, LOCAL, ELIM_FIRST):
        monkeypatch.setattr(order, "key", counting(order.key))
    form = next(generic_linear_candidates(RING_XYZ))
    run = {"le": lambda g: le_numbers(g, form), "mu": milnor_number}
    for kind, text in HEAVY_SPEND:
        run[kind](parse_poly(text, RING_XYZ))
    assert calls[0] == 0
    # the counter is live: a fresh leading-monomial query keys each term
    leading_monomial(X + Y**2 + Z**3, DEGREVLEX)
    assert calls[0] == 3


# products by f per row of a sweep over N = 2..30 and then N = 5: the power
# of f is kept from the last row and extended by one product per exponent,
# and a smaller exponent starts again from f.  The Jacobian reads f^(N-1)
# and a polar meeting f^N.  cylinder's polar curve is empty, so its rows read
# f^(N-1) only; double-axes carries mu and the polar meeting from N = 5 on
# (see CARRIED_FROM), and a carried row builds no power of f.  Both took
# [1] * 29 + [4] while every row built g + f^N whether or not it was read
PRODUCTS_PER_ROW = {
    "cylinder": [0] + [1] * 28 + [3],
    "double-axes": [1] * 4 + [0] * 26,
}


@pytest.mark.parametrize("name", PRODUCTS_PER_ROW)
def test_each_sweep_row_costs_one_multiplication_by_f(monkeypatch, name):
    ctx = ScenarioContext(load_fixture(name))
    ctx.sigma_dim, ctx.gap, ctx._polar_rows  # the N-independent data, before counting
    f = ctx._row_f[0]  # f in the row coordinates, packed once per run
    products = [0]
    real = verifier._muladd

    def counting(x, s, a, b, t, pk):
        if b is f:
            products[0] += 1
        return real(x, s, a, b, t, pk)

    monkeypatch.setattr(verifier, "_muladd", counting)
    cases, per_row = [], []
    for n in [*range(2, 31), 5]:
        before = products[0]
        case = ctx.case(n)
        if not ctx.polar.is_empty:  # as verify_gap_stability reads it
            ctx.polar_intersection(case)
        cases.append(case)
        per_row.append(products[0] - before)
    assert per_row == PRODUCTS_PER_ROW[name]
    monkeypatch.undo()
    pk, polar = LOCAL._packing(ctx.ring.nvars), ctx._polar_rows
    built, real = [], verifier._complete
    monkeypatch.setattr(verifier, "_complete", lambda ring, order, gens, *rest: built.append(gens) or real(ring, order, gens, *rest))
    for case in cases:
        ctx._carries.clear()  # so that the polar kind builds the row generator
        built.clear()
        ctx._row(polar, case.n)
        # the row's g' + f'^n, in the row coordinates, packed as the kernel's representative
        assert built == [[ideals._integral(ctx._in_row_coordinates(ctx.g + ctx.f**case.n), pk)]]


@pytest.mark.parametrize("name", ["three-lines", "cylinder"])
def test_export_computes_each_slice_milnor_number_once(monkeypatch, name):
    calls = []
    original = verifier._slice_milnor_at_origin

    def counting(g, form, cap=None):
        calls.append((str(g), str(form)))
        return original(g, form, cap)

    monkeypatch.setattr(verifier, "_slice_milnor_at_origin", counting)
    export_dataset(load_fixture(name), 3)
    assert len(calls) == len(set(calls)) == 3


@pytest.mark.parametrize("name", ["cylinder", "pinch-point", "three-lines"])
def test_verify_computes_each_branch_slice_milnor_number_once(monkeypatch, name):
    calls = []
    original = invariants.branch_slice_milnor

    def counting(*args):
        calls.append(args[2].name)
        return original(*args)

    for module in (invariants, le, verifier):
        if getattr(module, "branch_slice_milnor", None) is original:
            monkeypatch.setattr(module, "branch_slice_milnor", counting)
    scenario = load_fixture(name)
    verify_scenario(scenario)
    assert calls == [b.name for b in scenario.branches if b.host == "sigma"]


def test_export_standard_basis_count_is_pinned(monkeypatch):
    # 26 while the branch terms and the slice Milnor numbers at the origin
    # were each computed twice, 21 while the deformation's Jacobian went
    # through standard_basis_of instead of packed to the completion, and 20
    # while the deformation's polar ideal was saturated at each N and asked
    # for its dimension at the origin
    calls = []
    original = ideals.standard_basis_of

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ideals, "standard_basis_of", counting)
    export_dataset(load_fixture("three-lines"), 3)
    assert len(calls) == 19


def test_export_completes_each_ideal_once(monkeypatch):
    # 12 distinct completions while lambda^1's cross-route sliced in all
    # three variables; on the hyperplane z = 0 the remaining partials of
    # x*y*(x + y) are the branch ladder's slice Jacobian, one completion.
    # Before that, the run completed Jac(g) twice under LOCAL, the polar
    # ideal and the Jacobian row base (the same minors up to sign) apart,
    # and the same slice Jacobian at two rungs of the branch ladder; the
    # rows' resumed completions are among the 11
    calls = []
    real = ideals._complete

    def counting(ring, order, packed, budget, base=None):
        calls.append((ring, order, frozenset(frozenset(h.items()) for h in packed), id(base)))
        return real(ring, order, packed, budget, base)

    monkeypatch.setattr(ideals, "_complete", counting)
    monkeypatch.setattr(verifier, "_complete", counting)
    export_dataset(load_fixture("three-lines"), 3)
    assert len(calls) == len(set(calls)) == 11


# m~ of every export against the per-N route, which saturates the polar
# ideal of g + f^N at that N: the seven polynomial fixtures at their default
# N and two past the threshold, and inline pairs
@pytest.mark.parametrize("name", CN_FIXTURES)
def test_export_m_tilde_matches_the_per_n_route(name):
    sc = load_fixture(name)
    ctx = ScenarioContext(sc)  # a fixture may leave f to the run
    for n in (None, ctx.gap.threshold + 2):
        known = export_dataset(sc, n).known
        assert known["m_tilde"] == per_n_m_tilde(ctx.f, ctx.g, known["N"])


@pytest.mark.parametrize(
    "variables, g, f, n",
    [
        ("x,y,z", "x^2*y^2+x^2*z^2+y^2*z^2", "x+2*y+3*z", 3),
        ("x,y,z", "x^2*y^2+x^2*z^2+y^2*z^2", "x+2*y+3*z", 25),
        ("x,y", "x^3+y^4", "x+y^2", 5),
    ],
    ids=("heavy-3", "heavy-25", "bent-5"),
)
def test_inline_export_m_tilde_matches_the_per_n_route(variables, g, f, n):
    sc = load_scenario({"variables": variables.split(","), "g": g, "f": f})
    assert export_dataset(sc, n).known["m_tilde"] == per_n_m_tilde(sc.f, sc.g, n)


@pytest.mark.parametrize(
    "g, f, n, slices",
    [
        ("y^5+x^3+2*y*z+z^2", "y", 2, (2, 1, 2)),
        ("z^4+3*x^2*z+y*z^2+2*y^2", "x", 3, (3, 2, 3)),
    ],
    ids=("quintic", "quartic"),
)
def test_an_export_whose_f_slice_of_g_is_not_generic_stays_uncertified(g, f, n, slices):
    # the f-slice of g and its slice by the ladder form disagree, while the
    # ladder slice of g~ agrees with the f-slice: only the comparison on g
    # keeps the generic-slice fields out of the export
    sc = load_scenario({"variables": ["x", "y", "z"], "g": g, "f": f})
    form = next(iter(generic_linear_candidates(sc.ring)))
    slice_milnor = verifier._slice_milnor_at_origin
    assert (
        slice_milnor(sc.g, sc.f), slice_milnor(sc.g, form), slice_milnor(sc.g + sc.f**n, form)
    ) == slices
    ds = export_dataset(sc, n)
    assert ds.f_is_linear is False
    assert not {"eu_Xg_0", "eu_Xgtilde_0", "B_f_Xg_0"} & ds.known.keys()


def test_context_terms_are_the_le_terms_for_a_linear_f():
    for name in ("cylinder", "pinch-point", "three-lines", "cusp-isolated"):
        ctx = ScenarioContext(load_fixture(name))
        assert ctx.terms is ctx.le.terms
        assert invariants.branch_sum(ctx.terms) == ctx.le.lambda1
    nonlinear = load_scenario({"name": "bent", "variables": ["x", "y", "z"], "g": "x^2+y^2", "f": "z^2+x"})
    assert ScenarioContext(nonlinear).terms is None


HEAVY_GERMS = ("x^2*y^2+x^2*z^2+y^2*z^2", "y^2-x^3+z*x^2*y", "x^2*y^2+z^3", "x^3+y^3+x*y*z")


@pytest.mark.parametrize("name", [*CN_FIXTURES, *(f"{g}|{rung}" for g in HEAVY_GERMS for rung in range(3))])
def test_m_tilde_minus_m_is_lambda1_for_a_linear_f(name):
    # the branch sum's second route: a run reads B = lambda1 for a linear f,
    # and m~ - m is the same number, on every sweep fixture and on the heavy
    # Le germs with ladder rungs 0-2 as f
    if "|" in name:
        g, rung = name.split("|")
        *_, form = generic_linear_candidates(RING_XYZ, int(rung) + 1)
        scenario = load_scenario({"variables": ["x", "y", "z"], "g": g, "f": str(form)})
    else:
        scenario = load_fixture(name)
    ctx = ScenarioContext(scenario)
    m, m_tilde = ctx.polar_meetings
    assert m_tilde - m == ctx.le.lambda1 == ctx.branch_sum


NONLINEAR_PAIRS = [
    # (variables, g, f, N range): two pairs with an empty polar curve, then
    # the nonlinear sweeps of the CI byte-identity loop
    ("x,y", "y^2", "x+y^2", (2, 3)),
    ("x,y,z", "x^2+y^2", "z+x^2", (2, 3)),
    ("x,y", "x^2*y^2+y^5", "x+y^2", (2, 14)),
    ("x,y", "x^2*y^2+y^5", "x^2+y^3", (2, 8)),
    ("x,y", "x^3+y^4", "x+y^2", (2, 30)),
    ("x,y", "x^3+y^4", "x^2+y^3", (2, 30)),
    ("x,y,z", "x^2+y^2", "z^2+x*y", (2, 30)),
]


@pytest.mark.parametrize("variables, g, f, n_range", NONLINEAR_PAIRS, ids=[f"{p[1]}|{p[2]}" for p in NONLINEAR_PAIRS])
def test_m_tilde_minus_m_is_the_slope_of_mu_for_a_nonlinear_f(variables, g, f, n_range):
    # for a nonlinear f the run reads B = m~ - m: chi, tibar and morse pass on
    # every asserted row, and mu(g + f^N) grows by B from the first asserted
    # row to the next, both counted by sympy's dim O/(J + m^(D+1)) at the
    # highest corner D of J
    pytest.importorskip("sympy")
    scenario = load_scenario({"variables": variables.split(","), "g": g, "f": f})
    asserted = [row for row in verify_scenario(scenario, n_range=n_range).rows if row.in_range]
    assert len(asserted) >= 2
    assert {tuple(v.status for v in row.verdicts[:4]) for row in asserted} == {("SKIPPED", "PASS", "PASS", "PASS")}
    ctx = ScenarioContext(scenario)
    mus = []
    for row in asserted[:2]:
        jac = [p for p in jacobian(ctx.g + ctx.f**row.n) if not p.is_zero]
        corner = ideals.standard_basis_of(jac, LOCAL).corner
        mus.append(sympy_local_quotient_dim([p.terms for p in jac], corner + 1))
    assert mus == [row.certificate for row in asserted[:2]]
    assert mus[1] - mus[0] == ctx.branch_sum


POLAR_FIXTURES = [
    name for name in CN_FIXTURES if any(b.host == "polar" for b in load_fixture(name).branches)
]


@pytest.mark.parametrize("name", POLAR_FIXTURES)
def test_sweep_rows_build_their_branch_images_from_those_of_g_and_f(name, monkeypatch):
    # every row's polar-stability check gets one t-order per component, read
    # from the gap report's g(branch(t)) and f(branch(t)) (see
    # polar.deformed_order); each must be the order of g + f^N itself
    seen = []
    original = verifier.checked_intersection

    def recording(curve, h, total, orders=None):
        seen.append((curve, h(), orders))
        return original(curve, h, total, orders)

    monkeypatch.setattr(verifier, "checked_intersection", recording)
    scenario = load_fixture(name)
    verify_scenario(scenario, n_range=(2, 30))
    ctx = ScenarioContext(scenario)
    assert [h for _, h, _ in seen] == [ctx.g + ctx.f**n for n in range(2, 31)]
    for curve, h, orders in seen:
        assert len(orders) == len(curve.components) > 0
        exact = [invariants.order_in_t(invariants.compose_on_branch(h, comp)) for comp in curve.components]
        assert orders == exact


@pytest.mark.parametrize(
    "g_image, f_image, n",
    [
        (t**3, t, 2),  # f^n lower
        (t**3, t, 4),  # g lower
        (t**3 + t**5, 2 * t, 3),  # equal orders, 1 + 8 != 0
        (-(t**2) + t**3, t, 2),  # equal orders that cancel: t^3
        (-(t**2) + t**3 - t**4, t + t**2, 2),  # cancels to 3t^3
        (-(t**4), t**2 + t**3, 2),  # cancels to 2t^5 + t^6
        (-(t**4), t**2, 2),  # cancels to 0
    ],
)
def test_component_orders_from_leading_terms_are_those_of_the_images(g_image, f_image, n):
    assert polar_module.deformed_order(g_image, f_image, n) == invariants.order_in_t(g_image + f_image**n)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_deformed_order_is_the_order_of_the_sum(data):
    n = data.draw(st.integers(2, 5), label="n")
    f_image = data.draw(nonzero_poly_strategy(T_RING, max_degree=3, max_terms=3), label="f_image")
    if data.draw(st.booleans(), label="cancel"):
        # og = n*of and lc_g = -lc_f^n, so the leading terms cancel, and
        # with a monomial f and no tail the whole sum does
        of = f_image.min_degree()
        tail = data.draw(poly_strategy(T_RING, max_degree=6, max_terms=3), label="tail")
        g_image = T_RING.monomial((n * of,), -f_image.terms[(of,)] ** n) + tail * t ** (n * of + 1)
    else:
        g_image = data.draw(nonzero_poly_strategy(T_RING, max_degree=12, max_terms=3), label="g_image")
    want = invariants.order_in_t(g_image + f_image**n)
    assert polar_module.deformed_order(g_image, f_image, n) == want


def test_a_wrong_multiplicity_reads_the_same_error_from_reused_images():
    # the axis meets g + z^2 with order 2, counted twice, while the scheme
    # (x^2, y^3) meets it with length 2 * 3 * 2
    doubled = BranchParam("axis", (o, o, t), host="polar", multiplicity=2)
    curve = polar_module.PolarCurve(IdealPresentation(RING_XYZ, [X**2, Y**3]), 1, (doubled,))
    g, f = X**2 + Y**2 + Z**3, Z
    orders = [polar_module.deformed_order(t**3, t, 2)]  # from g(axis) = t^3 and f(axis) = t
    message = (
        "component orders sum to 4 but the scheme-side intersection number is 12; "
        "the component list is incomplete or has wrong multiplicities"
    )
    total = ideals.quotient_dim_local(curve.ideal.plus([g + f**2]))
    for reused in (orders, None):
        with pytest.raises(ComponentMismatchError) as exc:
            polar_module.checked_intersection(curve, lambda: g + f**2, total, reused)
        assert str(exc.value) == message


COEFFICIENTS = st.sampled_from([1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def curve_germs(draw) -> tuple[Poly, Poly]:
    """(g, f): a germ in two or three variables whose critical locus is a
    curve, and an isolated f that meets it only at 0: linear, nonlinear with
    a linear part, or singular."""
    a, b, c = draw(COEFFICIENTS), draw(COEFFICIENTS), draw(COEFFICIENTS)
    if draw(st.booleans(), label="three variables"):
        # the critical locus is the z-axis
        gs = [a * X**2 + b * Y**2, a * X**2 + b * Y**3, a * X**2 * Y + b * X * Y**2, a * Y**2 * Z + b * X**2]
        fs = [c * Z, Z + c * X, Z + c * X**2, Z + c * X + Y**2, Z**2 + c * X * Y]
    else:
        # one axis, or both
        gs = [a * y**2, a * x**2 * y**2, a * x**2 * y**2 + b * y**5]
        fs = [x + c * y, x + c * y**2, x**2 + c * y**3]
    return draw(st.sampled_from(gs)), draw(st.sampled_from(fs))


@settings(deadline=None, max_examples=40)
@given(curve_germs(), st.lists(st.integers(2, 12), min_size=2, max_size=4))
def test_packed_rows_equal_the_poly_route(pair, ns):
    # an increasing and a decreasing sweep; the decreasing one starts the
    # kept power of f again at each row, and a repeated n asks for f^n twice.
    # The rows resume bases in their own coordinates, and their numbers are
    # the local dimensions of g + f^N in the original ones
    g, f = pair
    scenario = load_scenario({"variables": list(g.ring.variables), "g": str(g), "f": str(f)})
    for order in (sorted(ns), sorted(ns, reverse=True)):
        ctx = ScenarioContext(scenario)
        for n in order:
            g_tilde = g + f**n
            mu = ideals.quotient_dim_local(invariants.jacobian_ideal(g_tilde))
            try:
                case = ctx.case(n)
            except HypothesisError:
                assert mu is None and n >= ctx.gap.threshold
                continue
            assert case.certificate == mu
            assert case.g_tilde == g_tilde
            if not ctx.polar.is_empty:
                meeting = ctx.polar.ideal.plus([g_tilde])
                assert ctx.polar_intersection(case) == ideals.quotient_dim_local(meeting)


def fresh_row(ctx: ScenarioContext, n: int) -> tuple[int | None, int | None]:
    """mu(g + f^n) and its polar meeting, completed from scratch in the
    original coordinates (None for an empty polar curve)."""
    g_tilde = ctx.g + ctx.f**n
    mu = ideals.quotient_dim_local(invariants.jacobian_ideal(g_tilde))
    if ctx.polar.is_empty:
        return mu, None
    return mu, ideals.quotient_dim_local(ctx.polar.ideal.plus([g_tilde]))


def swept_row(ctx: ScenarioContext, n: int) -> tuple[int | None, int | None]:
    """The same two numbers as the run's row n gives them."""
    case = ctx.case(n)
    return case.certificate, None if ctx.polar.is_empty else ctx.polar_intersection(case)


# the exponent m of the row from which a sweep over N = 2..30 reuses mu and
# the polar meeting (see ScenarioContext.case); a g that is not isolated,
# whose highest corner grows with N, never gets there
CARRIED_FROM = {
    "brieskorn-345": (9, 9),
    "cusp-isolated": (5, 5),
    "cylinder-z3": (4, 4),
    "double-axes": (5, 5),
    "cylinder": (None, None),
    "pinch-point": (None, None),
    "three-lines": (None, None),
}


@pytest.mark.parametrize("name", CN_FIXTURES)
def test_carried_rows_match_a_fresh_completion(name):
    ctx = ScenarioContext(load_fixture(name))
    for n in range(2, 31):
        assert swept_row(ctx, n) == fresh_row(ctx, n), n
    carried = tuple(None if ctx._carries.get(kind) is None else ctx._carries[kind][0] for kind in ("jacobian", "polar"))
    assert carried == CARRIED_FROM[name]


@st.composite
def isolated_germs(draw) -> tuple[Poly, Poly]:
    """(g, f): an isolated germ in two or three variables, or the curve germ
    x^2 + y^2 critical along the z-axis, and an isolated f: linear, bent (a
    linear part and more) or singular, which meets the critical locus of g
    only at the origin."""
    a, b, c = draw(COEFFICIENTS), draw(COEFFICIENTS), draw(COEFFICIENTS)
    if draw(st.booleans(), label="three variables"):
        curve = a * X**2 + b * Y**2
        gs = [a * X**2 + b * Y**2 + c * Z**3, a * X**3 + b * Y**3 + c * Z**3, a * X**2 + b * Y**3 + Z**4 + X * Y * Z, curve]
        g = draw(st.sampled_from(gs))
        fs = [Z + c * X, (Z + c * X**2) if g == curve else (X + c * Y**2), X**2 + c * Y**3 + Z**2]
    else:
        g = draw(st.sampled_from([a * x**3 + b * y**4, a * x**2 + b * y**5, a * x**3 + b * x * y**2 + y**5]))
        fs = [x + c * y, x + c * y**2, x**2 + c * y**3]
    return g, draw(st.sampled_from(fs))


@settings(deadline=None, max_examples=30)
@given(isolated_germs(), st.integers(2, 6), st.integers(6, 16))
def test_carried_rows_of_isolated_germs_match_a_fresh_completion(pair, lo, hi):
    # an increasing sweep carries from its determinacy point on; a
    # decreasing one drops the carry at every row below it
    g, f = pair
    scenario = load_scenario({"variables": list(g.ring.variables), "g": str(g), "f": str(f)})
    for order in (range(lo, hi + 1), range(hi, lo - 1, -1)):
        ctx = ScenarioContext(scenario)
        for n in order:
            try:
                row = swept_row(ctx, n)
            except HypothesisError:
                assert fresh_row(ctx, n)[0] is None and n >= ctx.gap.threshold
                continue
            assert row == fresh_row(ctx, n)


# the size of the completed polar base of each (g, f) of
# test_each_row_resumes_one_base, by f
POLAR_BASE = {"x - y": 1, "z": 1, "y^2 + x": 1, "y^3 + x^2": 1, "x*y + z^2": 2}


@pytest.mark.parametrize(
    "g, f, pivot, substituted, base, row",
    [
        # a linear f becomes x_p: the base is the other partials of g'
        (x**2 * y**2 + y**5, x - y, 1, True, 1, 1),
        (X**2 + Y**2, Z, 2, False, 2, 1),
        # a nonlinear f with a linear part keeps the original coordinates
        (x**2 * y**2 + y**5, x + y**2, 0, False, 1, 1),
        # a singular f: an empty base, and every partial is a row generator
        (x**2 * y**2 + y**5, x**2 + y**3, None, False, 0, 2),
        (X**2 + Y**2, Z**2 + X * Y, None, False, 0, 3),
    ],
)
def test_each_row_resumes_one_base(g, f, pivot, substituted, base, row):
    ctx, _ = deformation_case(g, f, 3)
    assert ctx._pivot[0] == pivot
    assert (ctx._pivot[1] is not None) == substituted
    jacobian_rows = ctx._jacobian_rows
    assert len(jacobian_rows.base.completion[0]) == base
    assert len(jacobian_rows.pairs) == row
    # the polar meeting resumes the polar ideal with its one pair (g', 1)
    pk, polar = LOCAL._packing(g.ring.nvars), ctx._polar_rows
    assert len(polar.base.completion[0]) == POLAR_BASE[str(f)]
    assert polar.pairs == [(ideals._packed(ctx._in_row_coordinates(g), pk), ({0: 1}, 1))]
    if substituted:
        # f is the pivot variable in the row coordinates
        assert ctx._in_row_coordinates(f) == g.ring.variable(pivot)


@pytest.mark.parametrize("name", ["double-axes", "brieskorn-345"])
def test_sweep_rows_differentiate_and_pack_nothing(monkeypatch, name):
    # Poly.diff and ideals._integral run on N-independent data only, so a
    # longer sweep calls them no more often
    counts = {}
    for attr, owner in (("diff", Poly), ("_integral", ideals), ("_integral", verifier)):
        real = getattr(owner, attr)

        def counting(*args, real=real, attr=attr):
            counts[attr] += 1
            return real(*args)

        monkeypatch.setattr(owner, attr, counting)
    per_range = []
    for hi in (3, 30):
        counts.update(diff=0, _integral=0)
        verify_scenario(load_fixture(name), n_range=(2, hi))
        per_range.append(dict(counts))
    assert per_range[0] == per_range[1]
    assert per_range[0]["_integral"] > 0


@pytest.mark.parametrize("name", POLAR_FIXTURES)
def test_a_passing_row_builds_no_deformation_poly(name, monkeypatch):
    # the polar-stability check reads g + f^N as a Poly only for an error
    # message, so rows from the threshold on, which pass on the polar
    # components, build none.  Nor does a row substitute: each component's
    # order comes from the gap report's images of g and f (see
    # polar.deformed_order), and the row generators are built on ints
    ctx = ScenarioContext(load_fixture(name))
    threshold, le_iomdin = ctx.gap.threshold, verifier._le_iomdin_rows(ctx)
    ctx._jacobian_rows, ctx._polar_rows  # the N-independent bases, in the row coordinates
    built, substituted = [], []
    monkeypatch.setattr(verifier.DeformationCase, "g_tilde", property(lambda case: built.append(case.n)))
    real = Poly.substitute
    monkeypatch.setattr(Poly, "substitute", lambda *args: substituted.append(args) or real(*args))
    statuses = set()
    for n in range(threshold, threshold + 11):  # the rows of verify_scenario
        case = ctx.case(n)
        le_iomdin(n, case.certificate)
        statuses.add(verifier.verify_gap_stability(case, ctx).status)
    assert statuses == {"PASS"}
    assert built == []
    assert substituted == []


@pytest.mark.parametrize("name", CN_FIXTURES)
def test_row_work_does_not_grow_with_per_run_decisions(monkeypatch, name):
    # whether f is linear is decided once per run, so a longer sweep reads it
    # no more often than a shorter one
    scenario = load_fixture(name)
    reads = []
    real = Poly.is_linear_form.fget
    monkeypatch.setattr(Poly, "is_linear_form", property(lambda p: reads.append(p) or real(p)))
    counts = []
    for hi in (8, 30):
        reads.clear()
        verify_scenario(scenario, n_range=(2, hi))
        counts.append(len(reads))
    assert counts[0] == counts[1]


INLINE_REGIMES = {
    # (variables, g, f) and the statuses of massey, chi, tibar and morse on every row
    "nonlinear-f": ("x,y", "x^2*y^2+y^5", "x^2+y^3", ("SKIPPED", "PASS", "PASS", "PASS")),
    "curve-no-branches": ("x,y,z", "x^2+y^2", "z", ("PASS",) * 4),
}


@pytest.mark.parametrize("name", [*CN_FIXTURES, *INLINE_REGIMES])
def test_the_public_le_iomdin_routine_agrees_with_the_sweep(name):
    # a sweep builds the per-run part of the four Le-Iomdin verdicts once;
    # the routine of a fresh context, asked row by row, gives every row alike
    if name in INLINE_REGIMES:
        variables, g, f, statuses = INLINE_REGIMES[name]
        scenario = load_scenario({"variables": variables.split(","), "g": g, "f": f})
    else:
        scenario = load_fixture(name)
    table = verify_scenario(scenario, n_range=(2, 30))
    ctx = ScenarioContext(scenario)
    le_iomdin = verifier._le_iomdin_rows(ctx)
    for row in table.rows:
        verdicts, defect, expansion = le_iomdin(row.n, ctx.case(row.n).certificate)
        assert (verdicts, defect, expansion) == (row.verdicts[:4], row.morse_defect, row.morse_expansion)
    if name in INLINE_REGIMES:
        assert {tuple(v.status for v in row.verdicts[:4]) for row in table.rows} == {statuses}
    if name == "double-axes":  # g + f^2 = x^2 y^2 is not isolated
        assert table.rows[0].certificate is None
        assert {v.status for v in table.rows[0].verdicts[:4]} == {"SKIPPED"}


@pytest.mark.parametrize("name", CN_FIXTURES)
def test_a_sweep_row_minimalizes_no_basis(monkeypatch, name):
    # a row reads only the staircase of its two resumed completions, so
    # neither they nor the N-independent bases they resume are minimalized
    ctx = ScenarioContext(load_fixture(name))
    ctx.sigma_dim, ctx.gap  # the N-independent work, which reads global bases
    calls = []
    real = ideals._minimalized
    monkeypatch.setattr(ideals, "_minimalized", lambda *args: calls.append(args) or real(*args))
    for n in range(2, 31):
        case = ctx.case(n)
        if not ctx.polar.is_empty:
            ctx.polar_intersection(case)
    assert calls == []


@pytest.mark.parametrize("name", CN_FIXTURES)
def test_each_fixture_polar_meeting_with_g_matches_sympy(name):
    # gap.g_intersection, dim O/(P + (g)) for the polar ideal P, whose local
    # basis the run's Budget shares with the Jacobian rows' base, against
    # sympy's dim O/(P + (g) + m^D) at the highest corner D and one past it
    ctx = ScenarioContext(load_fixture(name))
    if ctx.polar.is_empty:
        assert ctx.gap.g_intersection is None
        return
    pytest.importorskip("sympy")
    gens = [*ctx.polar.ideal.generators, ctx.g]
    corner = ideals.standard_basis_of(gens, LOCAL).corner
    terms = [p.terms for p in gens]
    assert [sympy_local_quotient_dim(terms, d) for d in (corner, corner + 1)] == [ctx.gap.g_intersection] * 2


@pytest.mark.parametrize("name", ["brieskorn-345", "cusp-isolated", "cylinder-z3"])
def test_each_isolated_fixture_mu_of_g_matches_sympy(name):
    # mu(g), the lambda0 of an isolated g, read off the local basis of Jac(g)
    # that le_numbers and check_hypotheses now share, against sympy's
    # dim O/(Jac(g) + m^D) at the highest corner D and one past it
    pytest.importorskip("sympy")
    ctx = ScenarioContext(load_fixture(name))
    assert ctx.sigma_dim == 0 and ctx.le.lambda1 == 0
    jac = [p for p in jacobian(ctx.g) if not p.is_zero]
    corner = ideals.standard_basis_of(jac, LOCAL).corner
    terms = [p.terms for p in jac]
    assert [sympy_local_quotient_dim(terms, d) for d in (corner, corner + 1)] == [ctx.le.lambda0] * 2


@pytest.mark.parametrize("name", CN_FIXTURES)
def test_each_fixture_row_mu_matches_sympy(name):
    # an independent count of mu(g + f^N) at the threshold and one past it,
    # and for an isolated g at N = 30, a row that a sweep from N = 2 carries:
    # a highest corner D has m^D inside the Jacobian ideal J, so sympy's
    # dim O/(J + m^(D+1)) from a global basis is dim O/J
    pytest.importorskip("sympy")
    scenario = load_fixture(name)
    table = verify_scenario(scenario, n_range=(2, 3), relative_to_threshold=True)
    ctx = ScenarioContext(scenario)
    assert [row.n for row in table.rows] == [ctx.gap.threshold, ctx.gap.threshold + 1]
    rows = [(row.n, row.certificate) for row in table.rows]
    if ctx.sigma_dim == 0:
        swept = [ctx.case(n) for n in range(2, 31)]
        assert ctx._carries["jacobian"][0] < 30
        rows.append((30, swept[-1].certificate))
    for n, certificate in rows:
        jac = jacobian(ctx.g + ctx.f**n)
        corner = ideals.standard_basis_of(jac, LOCAL).corner
        assert certificate == sympy_local_quotient_dim([p.terms for p in jac if not p.is_zero], corner + 1)
