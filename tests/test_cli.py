"""Command-line surface: verbs, exit codes, and byte-level determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from germlab.cli import main
from germlab.fixtures_lib import fixture_text
from germlab.ideals import Budget
from germlab.verifier import ScenarioContext
from conftest import child_env


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_le_inline_cylinder(capsys):
    code, out = run_cli(capsys, "le", "--vars", "x,y,z", "--g", "x^2+y^2", "--l", "z")
    assert code == 0
    assert "lambda0 = 0" in out and "lambda1 = 1" in out


def test_milnor_nonisolated_exits_one(capsys):
    code = main(["milnor", "--vars", "x,y", "--g", "x^2*y"])
    captured = capsys.readouterr()
    assert code == 1
    assert "positive dimension" in captured.err


def test_milnor_inline(capsys):
    code, out = run_cli(capsys, "milnor", "--vars", "x,y", "--g", "x^3+y^3", "--format", "json")
    assert code == 0
    assert json.loads(out)["mu"] == 4


def test_verify_fixture_all_pass(capsys):
    code, out = run_cli(capsys, "verify", "--fixture", "cylinder", "--N", "2..8")
    assert code == 0
    assert "overall: PASS" in out


def test_verify_json_is_deterministic(capsys):
    code1, out1 = run_cli(capsys, "verify", "--fixture", "three-lines", "--format", "json")
    code2, out2 = run_cli(capsys, "verify", "--fixture", "three-lines", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_failing_dataset_exits_one(capsys):
    code, out = run_cli(capsys, "brasselet", "--fixture", "parity-negative")
    assert code == 1
    assert "FAIL" in out


def test_polar_and_gap_verbs(capsys):
    code, out = run_cli(capsys, "polar", "--vars", "x,y,z", "--g", "x^2+y^2+z^3", "--f", "z")
    assert code == 0 and "dimension at the origin: 1" in out
    code, out = run_cli(capsys, "gap", "--fixture", "cylinder-z3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["threshold"] == 4 and doc["exact_max"] == "3"


def test_critical_locus_verb(capsys):
    code, out = run_cli(
        capsys, "critical-locus", "--vars", "x,y,z", "--g", "x^2+y^2", "--f", "z"
    )
    assert code == 0
    assert "dimension at the origin: 1" in out
    assert "meets {f = 0} only at the origin: True" in out


def test_fixtures_verb(capsys):
    code, out = run_cli(capsys, "fixtures")
    assert code == 0
    assert "cylinder" in out.splitlines()


def test_export_dataset_round_trips(tmp_path, capsys):
    out_file = tmp_path / "cyl.json"
    code, _ = run_cli(
        capsys, "export-dataset", "--fixture", "cylinder", "--N", "3", "-o", str(out_file)
    )
    assert code == 0
    code, out = run_cli(capsys, "brasselet", "--scenario", str(out_file))
    assert code == 0
    assert "main" in out and "overall: PASS" in out


@pytest.mark.parametrize(
    "name, threshold", [("double-axes", 3), ("cusp-isolated", 7), ("cylinder", 2)]
)
def test_export_dataset_defaults_to_the_lowest_n_at_the_threshold(tmp_path, capsys, name, threshold):
    # each fixture's range is 2..8; below the threshold double-axes has a
    # non-isolated deformation and cusp-isolated an export whose parity
    # identity fails, so the default exports at the threshold
    out_file = tmp_path / "exported.json"
    code, _ = run_cli(capsys, "export-dataset", "--fixture", name, "-o", str(out_file))
    assert code == 0
    exported = json.loads(out_file.read_text())
    assert exported["N"] == [threshold, threshold]
    assert exported["known"]["N"] == threshold
    assert exported["name"] == f"{name}-dataset-N{threshold}"
    code, out = run_cli(capsys, "brasselet", "--scenario", str(out_file))
    assert code == 0 and "overall: PASS" in out


def test_export_dataset_below_the_threshold_keeps_the_isolation_error(tmp_path, capsys):
    scenario = json.loads(fixture_text("double-axes"))
    scenario["N"] = 2  # the whole range lies below the threshold 3
    path = tmp_path / "below.json"
    path.write_text(json.dumps(scenario))
    assert main(["export-dataset", "--scenario", str(path)]) == 1
    assert "g + f^2 is not isolated" in capsys.readouterr().err


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # no input source
    assert exc.value.code == 2


def test_mutually_exclusive_inputs():
    with pytest.raises(SystemExit) as exc:
        main(["milnor", "--fixture", "cylinder", "--vars", "x,y", "--g", "x^2"])
    assert exc.value.code == 2


def test_byte_identical_json_across_processes(tmp_path):
    cmd = [
        sys.executable,
        "-m",
        "germlab.cli",
        "verify",
        "--fixture",
        "pinch-point",
        "--format",
        "json",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True, env=child_env())
    second = subprocess.run(cmd, capture_output=True, check=True, env=child_env())
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty report


def test_iteration_cap_flows_through(capsys):
    code = main(["milnor", "--vars", "x,y", "--g", "x^2*y^2 - (x - y)^2", "--caps", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert "cap exceeded" in captured.err


def test_verify_scenario_file(tmp_path, capsys):
    out_file = tmp_path / "exported.json"
    code, _ = run_cli(
        capsys, "export-dataset", "--fixture", "pinch-point", "--N", "2", "-o", str(out_file)
    )
    assert code == 0
    code, out = run_cli(capsys, "verify", "--scenario", str(out_file))
    assert code == 0
    assert "overall: PASS" in out


def usage_error(capsys, *argv) -> str:
    """Run argv, require exit status 2, and return what went to stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("verify", "--fixture", "cylinder", "--N", "abc"),
            "--N expects an integer n or a range lo..hi, got 'abc'",
        ),
        (
            ("export-dataset", "--fixture", "cylinder", "--N", "1"),
            "--N '1' must sit inside [2, 64]",
        ),
        (
            ("verify", "--fixture", "cylinder", "--N", "5..3"),
            "--N range '5..3' is empty: 5 > 3",
        ),
        (
            ("verify", "--fixture", "cylinder", "--N", "100"),
            "--N '100' must sit inside [2, 64]",
        ),
        (
            ("verify", "--vars", "x,y,z", "--g", "x^2+y^2", "--N", "2..x"),
            "--N expects an integer n or a range lo..hi, got '2..x'",
        ),
    ],
    ids=["not-a-number", "export-below-bound", "empty-range", "above-bound", "inline"],
)
def test_bad_n_is_a_usage_error(capsys, argv, message):
    assert message in usage_error(capsys, *argv)


def test_export_dataset_rejects_an_n_range(capsys):
    err = usage_error(capsys, "export-dataset", "--fixture", "cylinder", "--N", "3..4")
    assert "single exponent" in err


@pytest.mark.parametrize("flag", ["--jobs", "--trunc"])
def test_removed_flags_are_usage_errors(capsys, flag):
    err = usage_error(capsys, "verify", "--fixture", "cylinder", "--N", "2..3", flag, "2")
    assert f"unrecognized arguments: {flag} 2" in err


def test_a_slice_kind_the_dataset_lacks_is_a_usage_error(capsys):
    err = usage_error(capsys, "brasselet", "--fixture", "node-curve", "--slice", "g")
    assert "--slice 'g' is not a slice kind of this dataset (it carries: l)" in err


def test_relative_range_past_n_max_is_a_usage_error(capsys):
    err = usage_error(capsys, "verify", "--fixture", "cusp-isolated", "--N", "2..64", "--relative")
    assert "threshold 7 plus span 62" in err and "N_MAX = 64" in err


def test_verify_with_nothing_asserted_does_not_pass(capsys):
    code, out = run_cli(capsys, "verify", "--fixture", "cusp-isolated", "--N", "2..5")
    assert code == 1
    assert out.splitlines()[-1] == "overall: NOTHING ASSERTED (every N below threshold 7)"
    code, out = run_cli(
        capsys, "verify", "--fixture", "cusp-isolated", "--N", "2..5", "--format", "json"
    )
    assert code == 1 and json.loads(out)["ok"] is False


@pytest.mark.parametrize("source", ["fixture", "scenario"])
def test_caps_apply_to_fixture_and_scenario_input(tmp_path, capsys, source):
    if source == "fixture":
        argv = ["--fixture", "brieskorn-345"]
    else:
        path = tmp_path / "brieskorn.json"
        path.write_text(fixture_text("brieskorn-345"), encoding="utf-8")
        argv = ["--scenario", str(path)]
    code = main(["milnor", *argv, "--caps", "1"])
    assert code == 1
    assert "cap exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("caps", ["-5", "0"])
def test_caps_below_one_are_a_usage_error(capsys, caps):
    err = usage_error(capsys, "milnor", "--fixture", "cusp-isolated", "--caps", caps)
    assert f"--caps must be at least 1, got {caps}" in err


def test_f_and_l_together_are_a_usage_error(capsys):
    err = usage_error(capsys, "le", "--vars", "x,y,z", "--g", "x^2+y^2", "--f", "z", "--l", "x")
    assert "--f and --l" in err


def test_inline_critical_curve_without_branches_is_not_a_failure(capsys):
    # the cylinder germ with no declared branch: the branch sums are unknown,
    # not zero
    code, out = run_cli(capsys, "verify", "--vars", "x,y,z", "--g", "x^2+y^2", "--f", "z", "--N", "2..3")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("SKIPPED  (the critical locus is a curve but no sigma branches are declared)") == 6
    assert out.splitlines()[-1] == "overall: PASS"


def test_caps_are_echoed_for_a_fixture(capsys):
    code, out = run_cli(
        capsys, "verify", "--fixture", "cylinder", "--N", "2..3", "--caps", "5000", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["defaults"]["limits"]["reduction_cap"] == 5000


@pytest.mark.parametrize(
    "verb, fixture",
    [("milnor", "brieskorn-345")]
    + [(verb, "pinch-point") for verb in ("critical-locus", "polar", "gap", "le", "verify", "export-dataset")],
)
def test_every_polynomial_verb_spends_from_its_context_budget(monkeypatch, capsys, verb, fixture):
    made, contexts = [], []
    make_budget, make_context = Budget.__init__, ScenarioContext.__init__

    def counting_budget(budget, cap=None):
        make_budget(budget, cap)
        made.append(budget)

    def counting_context(ctx, scenario):
        make_context(ctx, scenario)
        contexts.append(ctx)

    monkeypatch.setattr(Budget, "__init__", counting_budget)
    monkeypatch.setattr(ScenarioContext, "__init__", counting_context)
    code, _ = run_cli(capsys, verb, "--fixture", fixture)
    assert code == 0
    # one budget per run, made by the run's one context, and spent from
    assert [ctx.budget for ctx in contexts] == made and len(made) == 1
    assert made[0].remaining < 10**6
