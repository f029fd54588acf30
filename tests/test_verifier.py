"""Deformation cases, identity verdicts, and the full sweep law."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from germlab import (
    ExponentRangeError,
    GermlabError,
    HypothesisError,
    IterationLimitError,
    branch_slice_milnor,
    build_deformation,
    critical_locus,
    iomdin_threshold,
    relative_polar_ideal,
    verify_polar_decomposition,
    load_scenario,
    milnor_number,
    parse_poly,
    verify_scenario,
)
from germlab import export_dataset, verifier
from germlab import polar as polar_module
from germlab.ideals import Budget
from germlab.rings import Poly
from germlab.fixtures_lib import fixture_text, load_fixture
from germlab.verifier import (
    ScenarioContext,
    branch_terms,
    check_hypotheses,
    generic_linear_candidates,
    resolve_linear_form,
    verify_branch_sum_identities,
    verify_le_number_identity,
)
from germlab.invariants import BranchParam, T_RING
from germlab.le import euler_char_fibre, le_numbers
from conftest import RING_XY, RING_XYZ

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
        case = build_deformation(X**2 + Y**2, Z, 3)
        assert case.certificate == 2
        assert case.g_tilde == X**2 + Y**2 + Z**3

    def test_three_lines_case(self):
        case = build_deformation(X * Y * (X + Y), Z, 2)
        assert case.certificate == 4

    def test_hypothesis_failure(self):
        # the critical axis of the cylinder lies inside {x = 0}
        with pytest.raises(HypothesisError, match="sigma-meets-f"):
            build_deformation(X**2 + Y**2, X, 3)

    def test_subthreshold_nonisolation_is_reported_not_fatal(self):
        g = x**2 * y**2 - (x - y) ** 2
        case = build_deformation(g, x - y, 2)
        assert case.certificate is None
        # without parametrized components only the sound bound is available
        assert case.threshold == 7

    def test_nonisolation_at_threshold_is_fatal(self):
        g = x**2 * y**2 - (x - y) ** 2
        with pytest.raises(HypothesisError, match="isolation-at-threshold"):
            build_deformation(g, x - y, 2, threshold=2)

    def test_exponent_lower_bound(self):
        with pytest.raises(ValueError):
            build_deformation(X**2 + Y**2, Z, 1)


class TestIdentityExamples:
    def test_massey_cylinder_n5(self):
        g = X**2 + Y**2
        le = le_numbers(g, Z, [AXIS])
        case = build_deformation(g, Z, 5)
        verdict = verify_le_number_identity(case, le)
        assert verdict.status == "PASS" and verdict.left == 4 and verdict.right == 4

    def test_massey_three_lines_n3(self):
        g = X * Y * (X + Y)
        le = le_numbers(g, Z, [AXIS])
        case = build_deformation(g, Z, 3)
        verdict = verify_le_number_identity(case, le)
        assert verdict.left == 8 and verdict.right == 8

    def test_massey_isolated_stability(self):
        g = x**3 + y**3
        form = x + 2 * y
        le = le_numbers(g, form)
        case = build_deformation(g, form, 8)
        verdict = verify_le_number_identity(case, le)
        assert verdict.status == "PASS" and verdict.left == 4

    def test_chi_sides_cylinder(self):
        g = X**2 + Y**2
        le = le_numbers(g, Z, [AXIS])
        chi_g = euler_char_fibre(g, le)
        terms = branch_terms(g, Z, [AXIS])
        for n in range(2, 7):
            case = build_deformation(g, Z, n)
            verdict = verify_branch_sum_identities(case, chi_g, terms)[0][0]
            assert verdict.left == verdict.right == n

    def test_chi_sides_three_lines(self):
        g = X * Y * (X + Y)
        le = le_numbers(g, Z, [AXIS])
        chi_g = euler_char_fibre(g, le)
        terms = branch_terms(g, Z, [AXIS])
        for n in range(2, 7):
            case = build_deformation(g, Z, n)
            verdict = verify_branch_sum_identities(case, chi_g, terms)[0][0]
            assert verdict.left == verdict.right == 4 * n - 3

    def test_morse_defect_cylinder_n4(self):
        g = X**2 + Y**2
        le = le_numbers(g, Z, [AXIS])
        chi_g = euler_char_fibre(g, le)
        terms = branch_terms(g, Z, [AXIS])
        case = build_deformation(g, Z, 4)
        (_, _, verdict), defect, expansion = verify_branch_sum_identities(case, chi_g, terms)
        assert verdict.status == "PASS"
        assert expansion == 4 and defect == -4

    def test_morse_defect_three_lines_n2(self):
        g = X * Y * (X + Y)
        le = le_numbers(g, Z, [AXIS])
        terms = branch_terms(g, Z, [AXIS])
        case = build_deformation(g, Z, 2)
        (_, _, verdict), defect, expansion = verify_branch_sum_identities(
            case, euler_char_fibre(g, le), terms
        )
        assert expansion == 8 and verdict.status == "PASS"

    def test_morse_defect_isolated_is_zero(self):
        g = x**3 + y**3
        form = x + 2 * y
        le = le_numbers(g, form)
        case = build_deformation(g, form, 8)
        (_, _, verdict), defect, expansion = verify_branch_sum_identities(
            case, euler_char_fibre(g, le), ()
        )
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

    def test_one_budget_spans_the_whole_run(self, monkeypatch):
        made = []
        original = Budget.__init__

        def counting(budget, cap=None):
            original(budget, cap)
            made.append(budget)

        monkeypatch.setattr(Budget, "__init__", counting)
        sc = load_fixture("cylinder")
        verify_scenario(sc)
        assert len(made) == 1
        spent = sc.limits.reduction_cap - made[0].remaining

        tight = replace(sc, limits=replace(sc.limits, reduction_cap=spent - 1))
        with pytest.raises(IterationLimitError):
            verify_scenario(tight)
        # with a fresh budget per kernel call no single call reaches the cap
        monkeypatch.setattr(verifier, "Budget", lambda cap: cap)
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
        tight = replace(sc, limits=replace(sc.limits, reduction_cap=spent - 1))
        with pytest.raises(IterationLimitError):
            export_dataset(tight, 3)

    def test_export_saturates_each_polar_ideal_once(self, monkeypatch):
        seen = []
        original = verifier.relative_polar_ideal

        def counting(f, g, *args, **kwargs):
            seen.append(str(g))
            return original(f, g, *args, **kwargs)

        monkeypatch.setattr(verifier, "relative_polar_ideal", counting)
        monkeypatch.setattr(polar_module, "relative_polar_ideal", counting)
        export_dataset(load_fixture("cylinder"), 3)
        assert seen == ["x^2 + y^2", "z^3 + x^2 + y^2"]

    def test_unbranched_critical_curve_skips_the_branch_sums(self):
        sc = replace(load_fixture("cylinder"), branches=())
        table = verify_scenario(sc, n_range=(2, 3))
        assert table.terms is None and table.ok
        for row in table.rows:
            by_name = {v.name: v for v in row.verdicts}
            for name in ("chi", "tibar", "morse"):
                assert by_name[name].status == "SKIPPED"
                assert "no sigma branches are declared" in by_name[name].note
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
        sc = replace(load_fixture("cylinder"), branches=(off,))
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
    "verify_polar_decomposition": lambda cap: verify_polar_decomposition(FORM, X**2 + Y**2, 3, cap=cap),
    "critical_locus": lambda cap: critical_locus(POLAR_GERM, FORM, cap),
    "check_hypotheses": lambda cap: check_hypotheses(X * Y * (X + Y), Z, cap),
    "branch_slice_milnor": lambda cap: branch_slice_milnor(X * Y * (X + Y), Z, AXIS, cap),
    "branch_terms": lambda cap: branch_terms(X * Y * (X + Y), Z, [AXIS], cap),
    "iomdin_threshold": lambda cap: iomdin_threshold(Z, X**2 + Y**2 + Z**3, cap=cap),
    "build_deformation": lambda cap: build_deformation(X**2 + Y**2, Z, 3, cap=cap),
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


# reduction steps of verify_scenario over N = 2..30, the benchmark's sweep
SWEEP_SPEND = {
    "brieskorn-345": 316,
    "cusp-isolated": 1325,
    "cylinder-z3": 321,
    "cylinder": 108,
    "double-axes": 1678,
    "pinch-point": 212,
    "three-lines": 305,
}


# reduction steps of the benchmark's heavy tier at ladder rung 0: Le numbers
# against x + 2y + 3z, then Milnor numbers
HEAVY_SPEND = {
    ("le", "x^2*y^2+x^2*z^2+y^2*z^2"): 6593,
    ("le", "y^2-x^3+z*x^2*y"): 2511,
    ("le", "x^2*y^2+z^3"): 386,
    ("le", "x^3+y^3+x*y*z"): 235,
    ("mu", "x^2*y+y^4+z^5+x*y*z^2"): 1226,
    ("mu", "x^4+y^4+z^4+x^2*y*z"): 357,
    ("mu", "x^3*y+y^3*z+z^3*x"): 71,
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
    assert sum(spend.values()) == 4265


def test_heavy_tier_spend_is_pinned():
    form = next(generic_linear_candidates(RING_XYZ))
    run = {"le": lambda g: le_numbers(g, form), "mu": milnor_number}
    spend = {
        (kind, text): budget_spend(lambda: run[kind](parse_poly(text, RING_XYZ)))
        for kind, text in HEAVY_SPEND
    }
    assert spend == HEAVY_SPEND
    assert sum(spend.values()) == 11379


@pytest.mark.parametrize("name", ["cylinder", "double-axes"])
def test_each_sweep_row_costs_one_multiplication_by_f(monkeypatch, name):
    ctx = ScenarioContext(load_fixture(name))
    ctx.hypotheses, ctx.gap  # the N-independent data, before counting
    f = ctx.f
    powers, products = [], [0]
    real_pow, real_mul = Poly.__pow__, Poly.__mul__

    def counting_pow(self, n):
        if self is f:
            powers.append(n)
        return real_pow(self, n)

    def counting_mul(self, other):
        if other is f:
            products[0] += 1
        return real_mul(self, other)

    monkeypatch.setattr(Poly, "__pow__", counting_pow)
    cases = [ctx.case(2)]
    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    per_row = []
    for n in range(3, 31):
        before = products[0]
        cases.append(ctx.case(n))
        per_row.append(products[0] - before)
    assert powers == [2]
    assert per_row == [1] * 28
    cases.append(ctx.case(5))  # a smaller exponent raises f afresh
    assert powers == [2, 5]
    monkeypatch.undo()
    for case in cases:
        assert case.g_tilde == ctx.g + f**case.n


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
