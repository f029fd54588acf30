"""Command-line surface: verbs, exit codes, and byte-level determinism."""

from __future__ import annotations

import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from germlab.cli import main
from germlab.fixtures_lib import fixture_text, list_fixtures
from germlab.ideals import Budget
from germlab.scenario import load_scenario
from germlab.verifier import ScenarioContext, verify_scenario
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


@pytest.mark.parametrize("verb, extra", [("verify", ("--N", "2..4")), ("gap", ())])
def test_a_polar_surface_names_its_dimension_and_exits_one(capsys, verb, extra):
    # f is Morse and the critical locus of g, the z-axis, meets {f = 0} only
    # at 0, so the hypotheses hold; but the minors leave the plane {z = 0}
    code = main([verb, "--vars", "x,y,z", "--g", "x^2+y^2", "--f", "z^2+x^2+y^2", *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "error: the relative polar locus of (f = x^2 + y^2 + z^2, g = x^2 + y^2) has "
        "dimension 2 at the origin; gap ratios and the threshold need a curve\n"
    )


@pytest.mark.parametrize("verb", ["verify", "export-dataset"])
def test_the_case_hypotheses_are_read_before_the_le_numbers(capsys, verb):
    # the critical locus of g holds the y-axis, inside {x = 0}; the Le
    # numbers would fail first, since that curve has no declared branch
    # and x gives no proper slice of it
    code = main([verb, "--vars", "x,y,z", "--g", "x^2*y^2+z^3", "--f", "x", "--N", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "error: sigma-meets-f: the critical locus of g meets {f = 0} outside the origin\n"
    )


@pytest.mark.parametrize(
    "verb, extra",
    [
        ("verify", ("--f", "x", "--N", "2..4")),
        ("gap", ("--f", "x")),
        ("polar", ("--f", "x^2")),
        ("export-dataset", ("--f", "x", "--N", "4")),
    ],
)
def test_a_one_variable_ring_has_no_polar_curve_and_exits_one(capsys, verb, extra):
    # with one variable there are no 2x2 minors, so the polar locus is the
    # whole line, which has dimension 1 but is no polar curve
    code = main([verb, "--vars", "x", "--g", "x^3", *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: the relative polar curve needs at least two variables, and the ring has only x\n"


@pytest.mark.parametrize(
    "verb, extra, line",
    [
        ("milnor", (), "mu = 2"),
        ("le", (), "lambda0 = 2, lambda1 = 0, chi(Milnor fibre) = 3"),
        ("critical-locus", ("--f", "x"), "meets {f = 0} only at the origin: True"),
    ],
)
def test_one_variable_verbs_that_read_no_polar_curve_still_work(capsys, verb, extra, line):
    code, out = run_cli(capsys, verb, "--vars", "x", "--g", "x^3", *extra)
    assert code == 0
    assert line in out.splitlines()


def test_a_degree_past_the_packed_fields_exits_one(capsys):
    # each exponent is capped at 255, but nested powers multiply: the partial
    # of this g in x has degree 255^4 - 1, past the kernel's limit of 2^31
    code = main(["milnor", "--vars", "x,y", "--g", "(((x^255)^255)^255)^255+y^2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        "error: monomial degree 4228250624 reaches the limit 2147483648 of the packed exponent fields\n"
    )


def test_a_staircase_past_the_cap_exits_one_within_seconds():
    # nested powers again: mu = 255^3 - 1 = 16 581 374 standard monomials,
    # whose listing alone ran for minutes before the cap bounded it
    cmd = [
        sys.executable, "-m", "germlab.cli",
        "milnor", "--vars", "x,y", "--g", "((x^255)^255)^255+y^2", "--caps", "1000",
    ]
    done = subprocess.run(cmd, capture_output=True, env=child_env(), timeout=10)
    assert done.returncode == 1
    assert done.stdout == b""
    assert done.stderr == (
        b"error: reduction step cap exceeded: the staircase has at least 1001 "
        b"standard monomials, more than the cap of 1000\n"
    )


def test_a_cold_start_imports_neither_dataclasses_nor_inspect():
    # every verb runs in a fresh interpreter; building dataclasses imports
    # inspect and compiles their methods, which a cold start paid each time
    code = "import germlab.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=child_env(), timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"[]\n"


def test_a_cap_spent_in_a_polar_intersection_exits_one(capsys, monkeypatch):
    # the last steps of this run are spent in the polar intersection of N = 5,
    # whose row resumes the completed polar base with one generator: 48 steps
    # in all, the 48th there (50 before the LOCAL completion skipped pairs by
    # the chain criterion, 57 before the run's Budget kept the bases it
    # completed, 67 before global completions updated their pairs by
    # Gebauer-Moeller)
    entered = []
    real = ScenarioContext.polar_intersection

    def recording(ctx, n):
        entered.append(n)
        total = real(ctx, n)
        entered.pop()
        return total

    monkeypatch.setattr(ScenarioContext, "polar_intersection", recording)
    code = main(["verify", "--fixture", "double-axes", "--N", "2..5", "--caps", "47"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: reduction step cap exceeded\n"
    assert entered == [5]  # the cap ran out inside N = 5's polar intersection


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


def test_gap_on_a_germ_that_needs_the_corner(capsys):
    # the untruncated local basis behind the g-side intersection number
    # does not finish in a minute
    code, out = run_cli(
        capsys, "gap", "--vars", "x,y,z", "--g", "x^2*y+y^4+z^5+x*y*z^2", "--f", "x+2*y+3*z",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["threshold"] == 26


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
    assert main(["export-dataset", "--fixture", "double-axes", "--N", "2"]) == 1
    assert capsys.readouterr().err.startswith("error: isolation: g + f^2 is not isolated")


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


def test_a_scenario_file_that_is_not_utf8_is_a_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    err = usage_error(capsys, "milnor", "--scenario", str(bad))
    assert err.startswith("error: $: not valid UTF-8")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "g, message",
    [
        ("(" * 300 + "x" + ")" * 300, "parentheses and signs nested deeper than the cap of 100 (line 1, column 101)"),
        ("4" * 4400 + "*x^2+y^2", "a number of 4400 digits exceeds the cap of 640 (line 1, column 1)"),
    ],
    ids=["nested-parentheses", "long-number"],
)
def test_a_germ_past_the_grammar_caps_is_a_schema_error(capsys, g, message):
    # the recursive-descent parser and int() would raise RecursionError and
    # ValueError here; the caps turn both into the exponent cap's kind of
    # error, input that fails to parse, so a usage error
    assert usage_error(capsys, "milnor", "--vars", "x,y", "--g", g) == f"error: $.g: {message}\n"


def test_a_scenario_that_fails_to_validate_is_a_usage_error(capsys):
    # the CLI parsed it, but the scenario is bad input all the same
    err = usage_error(capsys, "milnor", "--vars", "x,x", "--g", "x^2")
    assert err == "error: $.variables: variable names must be distinct\n"


def test_a_scenario_nested_too_deeply_is_a_schema_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    err = usage_error(capsys, "milnor", "--scenario", str(deep))
    assert err == "error: $: not valid JSON: nested too deeply to decode\n"


def test_an_unknown_fixture_is_a_usage_error(capsys):
    err = usage_error(capsys, "milnor", "--fixture", "nowhere")
    assert err.startswith("error: unknown fixture 'nowhere'; available: brieskorn-345, ")


def test_a_missing_scenario_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    err = usage_error(capsys, "milnor", "--scenario", str(missing))
    assert err.startswith("error: ") and str(missing) in err


def test_an_output_file_that_cannot_be_written_exits_one(tmp_path, capsys):
    # the input is valid; the write fails after the export is computed
    out = tmp_path / "no-dir" / "x.json"
    assert main(["export-dataset", "--fixture", "cylinder", "--N", "3", "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


VERBS = ("milnor", "critical-locus", "polar", "gap", "le", "verify", "brasselet", "export-dataset")
FLAGS = ("--scenario", "--fixture", "--vars", "--g", "--f", "--l", "--N", "--caps", "--format", "--relative", "--slice")
VALUES = ("x,y", "x,y,z", "x", "x^2+y^2", "x*y*(x+y)", "z", "x+2*y", "2..4", "3", "0", "json", "g", "cylinder", "nowhere")
# short strings of the grammar's characters; no letter of an output flag, so
# no example writes a file
SCRAPS = st.text(alphabet="xyz^*+-()0123456789,. ", max_size=6)
TOKENS = st.sampled_from(("fixtures", *VERBS, *FLAGS, *VALUES, "--help")) | SCRAPS
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.floats(allow_nan=False) | SCRAPS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(SCRAPS, inner, max_size=3),
    max_leaves=6,
)


def _key_paths(node, prefix=()):
    """The path of every key and list index inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield (*prefix, key)
        yield from _key_paths(child, (*prefix, key))


@st.composite
def mutated_fixtures(draw):
    """A verb and a bundled fixture document with one key dropped or given a
    random JSON value."""
    doc = json.loads(fixture_text(draw(st.sampled_from(list_fixtures()))))
    *parents, key = draw(st.sampled_from(list(_key_paths(doc))))
    node = doc
    for part in parents:
        node = node[part]
    if draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(JSON_VALUES)
    return [draw(st.sampled_from(VERBS))], json.dumps(doc)


ARGV = st.tuples(st.sampled_from(("fixtures", *VERBS)), st.lists(TOKENS, max_size=6)).map(
    lambda drawn: ([drawn[0], *drawn[1]], None)
)


@settings(deadline=None, max_examples=150)
@given(case=ARGV | mutated_fixtures())
@example(case=(["milnor", "--vars", "x,y", "--g", "(" * 300 + "x" + ")" * 300], None))
@example(case=(["milnor", "--vars", "x,y", "--g", "4" * 4400 + "*x^2+y^2"], None))
@example(case=(["milnor"], "[" * 200_000 + "]" * 200_000))
def test_bad_input_ends_with_an_exit_code_not_a_traceback(case):
    # argv lists and mutated documents, each run under a cap of 200 steps:
    # a result, a message or argparse's usage error, never another exception
    argv, document = case
    with tempfile.TemporaryDirectory() as tmp:
        if document is not None:
            path = Path(tmp) / "scenario.json"
            path.write_text(document, encoding="utf-8")
            argv = [*argv, "--scenario", str(path)]
        if argv[0] != "fixtures":
            argv = [*argv, "--caps", "200"]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)


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


@pytest.mark.parametrize(
    "variables, g, f", [("x,y", "y^2", "x+y^2"), ("x,y,z", "x^2+y^2", "z+x^2")]
)
def test_a_sweep_whose_verdicts_are_all_skipped_does_not_pass(capsys, variables, g, f):
    # f is nonlinear and the polar curve is empty: chi, tibar and morse are
    # checked with B = m~ - m, so the sweep passes
    argv = ("verify", "--vars", variables, "--g", g, "--f", f, "--N", "2..3")
    code, out = run_cli(capsys, *argv)
    assert code == 0 and "FAIL" not in out
    assert out.splitlines()[-1] == "overall: PASS"
    # no input leaves every verdict SKIPPED any more, so the same rows are
    # skipped by hand: in range and isolated, they still assert nothing
    scenario = load_scenario({"name": "inline", "variables": variables.split(","), "g": g, "f": f})
    table = verify_scenario(scenario, n_range=(2, 3))
    assert table.ok and all(row.in_range and row.certificate is not None for row in table.rows)
    skipped = table._replace(rows=[
        row._replace(verdicts=tuple(v._replace(status="SKIPPED", note="unchecked") for v in row.verdicts))
        for row in table.rows
    ])
    assert skipped.ok is False and skipped.to_json_dict()["ok"] is False
    assert skipped.to_text().endswith("overall: NOTHING ASSERTED (every verdict SKIPPED)")


def test_a_nonlinear_f_checks_the_deformation_formula_and_skips_massey(capsys):
    code, out = run_cli(capsys, "verify", "--vars", "x,y", "--g", "x^3+y^4", "--f", "x^2+y^3", "--N", "14..15")
    assert code == 0
    assert out.splitlines()[1] == "lambda = (6, 0), chi(F_g) = -5, threshold = 14"
    row = [
        "    massey           SKIPPED  (needs a linear deformation direction)",
        "    chi              PASS  left=-5 right=-5",
        "    tibar            PASS  left=0 right=0",
        "    morse            PASS  left=0 right=0  (n~ - n via chi defect vs branch expansion)",
        "    polar_stability  PASS  left=13 right=13",
    ]
    assert out.splitlines()[2:] == [
        "N = 14: mu(g~) = 6", *row, "N = 15: mu(g~) = 6", *row, "overall: PASS"
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("verify", "--vars", "x,y,z", "--g", "x^2", "--f", "z", "--N", "2..3"),
            "sigma-dimension: critical locus has dimension 2",
        ),
        (
            ("verify", "--vars", "x,y,z", "--g", "x^2+y^2", "--f", "z^2", "--N", "2..3"),
            "f-isolated: f does not have an isolated singularity at the origin",
        ),
        (
            ("export-dataset", "--vars", "x,y,z", "--g", "x^2+y^2", "--f", "z^2", "--N", "3"),
            "f-isolated: f does not have an isolated singularity at the origin",
        ),
    ],
)
def test_a_failed_case_hypothesis_is_named(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_a_dependent_pair_has_a_polar_surface_not_an_empty_curve(capsys):
    # df and dg are parallel everywhere, so no 2x2 minor survives: the polar
    # locus is the whole plane, not an empty curve with threshold 2
    code, out = run_cli(capsys, "polar", "--vars", "x,y", "--g", "(x+y)^2", "--f", "x+y")
    assert code == 0
    assert out.splitlines()[1:] == ["ideal: 0", "dimension at the origin: 2"]
    code = main(["gap", "--vars", "x,y", "--g", "(x+y)^3", "--f", "x+y"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "error: the relative polar locus of (f = x + y, g = x^3 + 3*x^2*y + 3*x*y^2 + y^3) has "
        "dimension 2 at the origin; gap ratios and the threshold need a curve\n"
    )


@pytest.mark.parametrize("trunc", [1, 2])
def test_a_gap_ratio_past_the_truncation_is_reported(tmp_path, capsys, trunc):
    # the declared truncation bounds the validation of the branch, not the
    # order of g along it
    path = tmp_path / "axis.json"
    path.write_text(
        json.dumps(
            {
                "variables": ["x", "y", "z"],
                "g": "x^2 + y^2 + z^9",
                "f": "z",
                "branches": [{"name": "axis", "components": ["0", "0", "t"], "host": "polar", "trunc": trunc}],
            }
        ),
        encoding="utf-8",
    )
    code, out = run_cli(capsys, "gap", "--scenario", str(path))
    assert code == 0
    assert "  axis: ord_g = 9, ord_f = 1, ratio = 9" in out.splitlines()
    assert out.splitlines()[-1] == "threshold: 10"


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


@pytest.mark.parametrize("flag, form", [("--f", "z+x^2"), ("--l", "x^2+y")])
def test_le_against_a_nonlinear_form_is_a_usage_error(capsys, flag, form):
    # Le numbers are taken against a linear form; these exited 0 with the
    # numbers of the ladder form and never named it
    err = usage_error(capsys, "le", "--vars", "x,y,z", "--g", "x^2+y^2", flag, form)
    assert (
        f"{flag} {form!r} is not a linear form; Le numbers are taken against a linear "
        f"form, so omit {flag} to use the generic ladder"
    ) in err


def test_le_of_a_scenario_with_a_nonlinear_f_names_its_form(tmp_path, capsys):
    # a scenario's f is not a flag, so a nonlinear one is kept for the sweep
    # while the Le numbers come from the ladder form; the lambda0 line names
    # that form, where it used to read only "in aligned coordinates (z, x, y)"
    path = tmp_path / "bent.json"
    path.write_text(json.dumps({"variables": ["x", "y", "z"], "g": "x^2+y^2", "f": "z+x^2"}), encoding="utf-8")
    code, out = run_cli(capsys, "le", "--scenario", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["lambda0"], doc["lambda1"], doc["coords"]) == (0, 1, ["z", "x", "y"])
    assert doc["provenance"][0] == (
        "lambda0: intersection of the saturated relative polar curve with the first partial "
        "derivative in aligned coordinates (z, x, y), against the linear form x + 2*y + 3*z, "
        "not the nonlinear f = x^2 + z"
    )
    assert not any("against" in line for line in doc["provenance"][1:])


def test_f_and_l_together_are_a_usage_error(capsys):
    err = usage_error(capsys, "le", "--vars", "x,y,z", "--g", "x^2+y^2", "--f", "z", "--l", "x")
    assert "--f and --l" in err


@pytest.mark.parametrize("flag", ["--f", "--l"])
@pytest.mark.parametrize("source", ["--fixture", "--scenario"])
def test_a_form_flag_with_a_named_input_is_a_usage_error(tmp_path, capsys, source, flag):
    # the named input declares its own f, so the flag would be dropped
    path = tmp_path / "cylinder.json"
    path.write_text(fixture_text("cylinder"), encoding="utf-8")
    name = "cylinder" if source == "--fixture" else str(path)
    err = usage_error(capsys, "le", source, name, flag, "x")
    assert f"{flag} is inline input" in err


def test_inline_critical_curve_without_branches_is_not_a_failure(capsys):
    # the cylinder germ with no declared branch: the branch sum is lambda1 of
    # the linear f, so chi, tibar and morse are checked with B = 1
    code, out = run_cli(capsys, "verify", "--vars", "x,y,z", "--g", "x^2+y^2", "--f", "z", "--N", "2..3")
    assert code == 0
    assert "FAIL" not in out
    assert "    chi              PASS  left=2 right=2" in out.splitlines()
    assert "    chi              PASS  left=3 right=3" in out.splitlines()
    assert out.count("SKIPPED") == out.count("polar_stability  SKIPPED  (empty polar curve)") == 2
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
