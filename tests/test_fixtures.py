"""Every bundled fixture reproduces its frozen expected block exactly."""

from __future__ import annotations

import pytest

from germlab import export_dataset, verify_scenario, verify_stratified_identities
from germlab.fixtures_lib import fixture_text, list_fixtures, load_fixture
from germlab.scenario import load_scenario

CN_FIXTURES = [
    "cylinder",
    "three-lines",
    "pinch-point",
    "cusp-isolated",
    "double-axes",
    "brieskorn-345",
    "cylinder-z3",
]
DATASET_FIXTURES = ["cusp-curve", "node-curve"]
NEGATIVE_FIXTURES = ["parity-negative", "main-identity-negative"]


def test_minimum_corpus_present():
    names = set(list_fixtures())
    assert {"cylinder", "three-lines", "cusp-isolated", "brieskorn-345",
            "cusp-curve", "node-curve"} <= names


def test_every_expected_number_carries_an_oracle_tag():
    for name in list_fixtures():
        expected = load_fixture(name).expected
        assert expected, name
        notes = expected.get("oracle", {})
        for key in expected:
            if key in ("oracle", "witness"):
                continue
            assert key in notes, (name, key)


@pytest.mark.parametrize("name", CN_FIXTURES)
def test_polynomial_fixture_reproduces_expected(name):
    scenario = load_fixture(name)
    expected = scenario.expected
    table = verify_scenario(scenario)
    assert table.le.lambda0 == expected["lambda0"]
    assert table.le.lambda1 == expected["lambda1"]
    assert table.chi_g == expected["chi_fibre"]
    assert table.threshold == expected["threshold"]

    if "mu_gtilde" in expected:
        for row in table.rows:
            want = expected["mu_gtilde"][str(row.n)]
            assert row.certificate == want, (name, row.n)
    if "mu_stable" in expected:
        stable_rows = [r for r in table.rows if r.in_range]
        sweep = verify_scenario(scenario, relative_to_threshold=True)
        stable_rows += list(sweep.rows)
        assert stable_rows
        for row in stable_rows:
            assert row.certificate == expected["mu_stable"], (name, row.n)
    if "subthreshold_nonisolated" in expected:
        bad = [row.n for row in table.rows if row.certificate is None]
        assert bad == expected["subthreshold_nonisolated"]
    if "polar_pairing" in expected:
        for row in table.rows:
            if not row.in_range:
                continue
            verdict = {v.name: v for v in row.verdicts}["polar_stability"]
            assert verdict.left == verdict.right == expected["polar_pairing"]
    if "export_eu_Xg_0" in expected:
        # exported at N = 3, where the slice-genericity certification holds
        ds = export_dataset(scenario, max(3, table.threshold))
        assert ds.known["eu_Xg_0"] == expected["export_eu_Xg_0"]


@pytest.mark.parametrize("name", DATASET_FIXTURES)
def test_dataset_fixture_reproduces_expected(name):
    from germlab import bls_euler_obstruction

    scenario = load_scenario(fixture_text(name))
    expected = scenario.expected
    assert scenario.dataset is not None
    assert bls_euler_obstruction(scenario.dataset) == expected["eu_X_0"]
    assert scenario.dataset.known["eu_X_0"] == expected["eu_X_0"]


@pytest.mark.parametrize("name", NEGATIVE_FIXTURES)
def test_negative_fixture_fails_where_declared(name):
    scenario = load_scenario(fixture_text(name))
    expected = scenario.expected
    assert scenario.dataset is not None
    verdicts = verify_stratified_identities(scenario.dataset)
    failing = {v.name: v for v in verdicts if v.status == "FAIL"}
    assert sorted(failing) == sorted(expected["fails"])
    witness = expected["witness"]
    verdict = failing[expected["fails"][0]]
    assert verdict.left == witness["left"] and verdict.right == witness["right"]
