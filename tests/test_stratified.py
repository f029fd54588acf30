"""Brasselet numbers, Euler obstructions, and identity verdicts over
stratified datasets, including the negative fixtures."""

from __future__ import annotations

import pytest

from germlab import (
    MissingSliceError,
    StratifiedDataset,
    StratumRecord,
    BranchTableRow,
    bls_euler_obstruction,
    brasselet_number,
    euler_obstruction_of_function,
    export_dataset,
    load_scenario,
    verify_stratified_identities,
)
from germlab.fixtures_lib import fixture_text, load_fixture


def dataset_of(name: str) -> StratifiedDataset:
    sc = load_scenario(fixture_text(name))
    assert sc.dataset is not None
    return sc.dataset


def smooth_plane_dataset(chi_f: int) -> StratifiedDataset:
    return StratifiedDataset(
        strata=(
            StratumRecord("origin", 0, 1, {}),
            StratumRecord("regular", 2, 1, {"f": chi_f, "l": 1}),
        ),
        known={"eu_X_0": 1},
    )


class TestBrasseletNumber:
    def test_cylinder_g_fibre(self):
        ds = export_dataset(load_fixture("cylinder"), 3)
        assert brasselet_number(ds, "g") == 0
        assert brasselet_number(ds, "gtilde") == 3

    def test_missing_slice(self):
        ds = smooth_plane_dataset(0)
        with pytest.raises(MissingSliceError):
            brasselet_number(ds, "gtilde")

    def test_zero_locus_exclusion(self):
        ds = StratifiedDataset(
            strata=(
                StratumRecord("inside", 1, 1, {}, in_zero_locus_of=frozenset({"f"})),
                StratumRecord("regular", 2, 1, {"f": 5}),
            )
        )
        assert brasselet_number(ds, "f") == 5


class TestBlsEulerObstruction:
    def test_cusp_curve(self):
        assert bls_euler_obstruction(dataset_of("cusp-curve")) == 2

    def test_node_curve(self):
        assert bls_euler_obstruction(dataset_of("node-curve")) == 2

    def test_smooth_point(self):
        assert bls_euler_obstruction(smooth_plane_dataset(0)) == 1

    def test_matches_brasselet_of_l(self):
        for name in ("cusp-curve", "node-curve"):
            ds = dataset_of(name)
            assert bls_euler_obstruction(ds) == brasselet_number(ds, "l")

    def test_refinement_invariance(self):
        base = dataset_of("cusp-curve")
        refined = StratifiedDataset(
            strata=(
                base.strata[0],
                StratumRecord("regular-a", 1, 1, {"l": 1}),
                StratumRecord("regular-b", 1, 1, {"l": 1}),
            ),
            known=base.known,
        )
        refined.validate()
        assert bls_euler_obstruction(refined) == bls_euler_obstruction(base)


class TestEulerObstructionOfFunction:
    def test_plane_cusp_sum(self):
        # chi of the Milnor fibre of x^3 + y^3 on the plane is -3
        ds = smooth_plane_dataset(-3)
        assert euler_obstruction_of_function(ds, "f") == 4

    def test_generic_linear_form_has_no_defect(self):
        ds = smooth_plane_dataset(1)
        assert euler_obstruction_of_function(ds, "f") == 0

    def test_needs_eu_or_l_slices(self):
        ds = StratifiedDataset(strata=(StratumRecord("regular", 2, 1, {"f": 0}),))
        with pytest.raises(MissingSliceError):
            euler_obstruction_of_function(ds, "f")

    def test_supplied_morse_count_cross_check(self):
        # the cusp splits into 4 Morse points on the smooth plane, and
        # obstruction = (-1)^d * count
        base = smooth_plane_dataset(-3)
        good = StratifiedDataset(base.strata, None, {**base.known, "d": 2, "n_reg": 4})
        assert euler_obstruction_of_function(good, "f") == 4
        bad = StratifiedDataset(base.strata, None, {**base.known, "d": 2, "n_reg": 3})
        with pytest.raises(Exception, match="Morse count"):
            euler_obstruction_of_function(bad, "f")


class TestExportedIdentityClosure:
    @pytest.mark.parametrize(
        "name, n",
        [
            ("cylinder", 3),
            ("cylinder", 5),
            ("three-lines", 2),
            ("three-lines", 4),
            ("pinch-point", 2),
            ("cusp-isolated", 7),
            ("double-axes", 3),
            ("cylinder-z3", 4),
        ],
    )
    def test_all_non_skipped_verdicts_pass(self, name, n):
        ds = export_dataset(load_fixture(name), n)
        for verdict in verify_stratified_identities(ds):
            assert verdict.status in ("PASS", "SKIPPED"), (name, n, verdict)

    # the polar decomposition as a number, m~ = m + (-1)^(d-1) * sum m_f *
    # eu_g_f_fibre over the declared branches, on the export at the default N
    @pytest.mark.parametrize(
        "name, m_tilde",
        [
            ("brieskorn-345", 6),
            ("cusp-isolated", 2),
            ("cylinder-z3", 1),
            ("cylinder", 1),
            ("double-axes", 3),
            ("pinch-point", 1),
            ("three-lines", 4),
        ],
    )
    def test_every_export_passes_the_morse_transfer(self, name, m_tilde):
        ds = export_dataset(load_fixture(name))
        assert ds.known["m_tilde"] == m_tilde
        verdicts = verify_stratified_identities(ds)
        assert {v.name: v.status for v in verdicts}["morse_transfer"] == "PASS"
        assert not [v for v in verdicts if v.status == "FAIL"]

    def test_cylinder_main_row_values(self):
        ds = export_dataset(load_fixture("cylinder"), 3)
        by_name = {v.name: v for v in verify_stratified_identities(ds)}
        main = by_name["main"]
        assert main.status == "PASS" and main.left == 3 and main.right == 3

    def test_cylinder_export_carries_all_scalars(self):
        ds = export_dataset(load_fixture("cylinder"), 3)
        names = {v.name for v in verify_stratified_identities(ds) if v.status == "PASS"}
        assert names == {
            "fibre_equalities",
            "parity",
            "branch_difference",
            "morse_transfer",
            "eu_difference",
            "branch_transfer",
            "main",
        }

    def test_pinch_point_skips_untractable_slice_scalars(self):
        ds = export_dataset(load_fixture("pinch-point"), 2)
        by_name = {v.name: v for v in verify_stratified_identities(ds)}
        assert by_name["fibre_equalities"].status == "SKIPPED"
        assert by_name["main"].status == "PASS"
        assert by_name["morse_transfer"].status == "PASS"


class TestNegativeFixtures:
    def test_parity_negative(self):
        ds = dataset_of("parity-negative")
        verdicts = verify_stratified_identities(ds)
        failing = [v for v in verdicts if v.status == "FAIL"]
        assert [v.name for v in failing] == ["parity"]
        assert failing[0].left == 3 and failing[0].right == 5

    def test_main_identity_negative(self):
        ds = dataset_of("main-identity-negative")
        verdicts = verify_stratified_identities(ds)
        failing = [v for v in verdicts if v.status == "FAIL"]
        assert [v.name for v in failing] == ["main"]
        assert failing[0].left == 7 and failing[0].right == 3


def test_branch_row_invariant_guard():
    ds = StratifiedDataset(
        branch_table=(BranchTableRow("b", eu_X_b=1, B_g_f_fibre=0, eu_g_f_fibre=2),)
    )
    with pytest.raises(Exception):
        ds.validate()


def test_expected_blocks_match(tmp_path):
    for name in ("cusp-curve", "node-curve"):
        expected = load_fixture(name).expected
        assert bls_euler_obstruction(dataset_of(name)) == expected["eu_X_0"]
