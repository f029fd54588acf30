"""Scenario loading: defaults, total rejection of malformed documents, and
the load/save round trip, cross-validated against the shipped schema file."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from germlab import SchemaError, load_scenario, save_scenario
from germlab.scenario import Limits
from germlab.fixtures_lib import fixture_text, list_fixtures

DOCS = Path(__file__).resolve().parent.parent / "docs"


def minimal_doc() -> dict:
    return {"variables": ["x", "y", "z"], "g": "x^2 + y^2"}


def test_minimal_scenario_gets_defaults():
    sc = load_scenario(json.dumps(minimal_doc()))
    assert sc.n_range == (2, 8)
    assert sc.f is None
    assert sc.limits.reduction_cap == 10**6
    assert sc.branches == ()


@pytest.mark.parametrize("key", ["power_cap", "halvings"])
def test_removed_limit_keys_are_rejected(key):
    doc = minimal_doc()
    doc["limits"] = {key: 6}
    with pytest.raises(SchemaError) as exc:
        load_scenario(json.dumps(doc))
    assert exc.value.path == f"$.limits.{key}"


BAD_LIMITS = [
    ({"reduction_cap": -3}, "reduction_cap"),
    ({"reduction_cap": 0}, "reduction_cap"),
    ({"trunc": -1}, "trunc"),
    ({"trunc": 0}, "trunc"),
]
GOOD_LIMITS = [{"reduction_cap": 1, "trunc": 1}, {"reduction_cap": 500}]


@pytest.mark.parametrize("limits, key", BAD_LIMITS)
def test_limits_below_one_are_rejected(limits, key):
    doc = {**minimal_doc(), "limits": limits}
    with pytest.raises(SchemaError, match="must be at least 1") as exc:
        load_scenario(json.dumps(doc))
    assert exc.value.path == f"$.limits.{key}"


def test_loader_and_schema_agree_on_limits():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((DOCS / "scenario.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    for limits in [*(bad for bad, _ in BAD_LIMITS), *GOOD_LIMITS]:
        doc = {**minimal_doc(), "limits": limits}
        try:
            loaded = load_scenario(json.dumps(doc)).limits == Limits()._replace(**limits)
        except SchemaError:
            loaded = False
        assert loaded == validator.is_valid(doc) == (limits in GOOD_LIMITS), limits


def test_branch_truncation_defaults():
    doc = minimal_doc()
    doc["branches"] = [{"name": "b1", "components": ["0", "0", "t"]}]
    sc = load_scenario(json.dumps(doc))
    assert sc.branches[0].trunc >= 1
    assert sc.branches[0].host == "sigma"


def test_dangling_stratum_branch_reference():
    doc = {
        "strata": [
            {"name": "origin", "dim": 0, "eu": 1},
            {"name": "reg", "dim": 1, "eu": 1, "branches": ["ghost"]},
        ]
    }
    with pytest.raises(SchemaError, match="ghost"):
        load_scenario(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(N=[1, 8]), "N"),
        (lambda d: d.update(N=[2, 200]), "N"),
        (lambda d: d.update(N="many"), "N"),
        (lambda d: d.update(surprise=1), "surprise"),
        (lambda d: d.update(variables=["x", "x"]), "distinct"),
        (lambda d: d.update(variables=["2x"]), "identifier"),
        (lambda d: d.update(g="x^2 + w"), "w"),
        (lambda d: d.update(g="1 + x^2"), "origin"),
        (lambda d: d.update(f="x*"), "f"),
        (lambda d: d.update(branches=[{"name": "b", "components": ["t"]}]), "components"),
        (lambda d: d.update(branches=[{"name": "b", "components": ["t", "0", "0"], "host": "moon"}]), "host"),
        (lambda d: d.update(limits={"bogus": 1}), "bogus"),
        (lambda d: d.update(known={"nonsense": 3}, strata=[]), "known"),
    ],
)
def test_rejection_is_total(mutate, fragment):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(SchemaError):
        load_scenario(json.dumps(doc))


def test_not_json_rejected():
    with pytest.raises(SchemaError):
        load_scenario("{not json")


def test_branch_through_origin_enforced():
    doc = minimal_doc()
    doc["branches"] = [{"name": "b", "components": ["1 + t", "0", "t"]}]
    with pytest.raises(SchemaError, match="origin"):
        load_scenario(json.dumps(doc))


def test_branch_table_row_invariant_checked():
    doc = {
        "strata": [{"name": "reg", "dim": 1, "eu": 1}],
        "branch_table": [
            {"name": "b", "eu_X_b": 1, "B_g_f_fibre": 0, "eu_g_f_fibre": 5}
        ],
    }
    with pytest.raises(SchemaError, match="eu_g_f_fibre"):
        load_scenario(json.dumps(doc))


def test_top_stratum_euler_obstruction_enforced():
    doc = {
        "strata": [
            {"name": "origin", "dim": 0, "eu": 2},
            {"name": "reg", "dim": 2, "eu": 3},
        ]
    }
    with pytest.raises(SchemaError, match="obstruction 1"):
        load_scenario(json.dumps(doc))


def test_strata_dimension_order_enforced():
    doc = {
        "strata": [
            {"name": "reg", "dim": 2, "eu": 1},
            {"name": "origin", "dim": 0, "eu": 1},
        ]
    }
    with pytest.raises(SchemaError, match="nondecreasing"):
        load_scenario(json.dumps(doc))


def test_round_trip_on_fixture_corpus():
    for name in list_fixtures():
        sc = load_scenario(fixture_text(name))
        again = load_scenario(save_scenario(sc))
        assert again == sc, name


def test_fixtures_satisfy_formal_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((DOCS / "scenario.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    for name in list_fixtures():
        doc = json.loads(fixture_text(name))
        errors = list(validator.iter_errors(doc))
        assert not errors, f"{name}: {errors[:1]}"


def test_saved_scenarios_satisfy_formal_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((DOCS / "scenario.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    for name in list_fixtures():
        sc = load_scenario(fixture_text(name))
        doc = json.loads(save_scenario(sc))
        errors = list(validator.iter_errors(doc))
        assert not errors, f"{name}: {errors[:1]}"
