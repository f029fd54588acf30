"""Golden CLI outputs: the sha256 of (exit code, stdout, stderr) of every verb
on every bundled fixture, in text and JSON, plus inline invocations.

A refactor that must not change what the CLI prints keeps every digest.  To
record the current outputs as the new digests, run this file as a script
from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from germlab.cli import main
from germlab.fixtures_lib import list_fixtures

DIGESTS = Path(__file__).with_name("cli_golden.json")

FIXTURE_VERBS = (
    "milnor",
    "critical-locus",
    "polar",
    "gap",
    "le",
    "verify",
    "brasselet",
    "export-dataset",
)
FORMATS = (("--format", "text"), ("--format", "json"))

XYZ = ("--vars", "x,y,z")
# the Le germs of the heavy benchmark tier; the first costs a few tenths of a
# second per call, so these run in JSON only
HEAVY_GERMS = (
    "x^2*y^2+x^2*z^2+y^2*z^2",
    "y^2-x^3+z*x^2*y",
    "x^2*y^2+z^3",
    "x^3+y^3+x*y*z",
)
CURVE_GERMS = ("x^2+y^2*z", "x*y*z", "x^2+y^2", "x*y*(x+y)")
POLAR_FORMS = ("x+2*y+3*z", "x+y+z", "z")


def invocations() -> list[tuple[str, ...]]:
    calls: list[tuple[str, ...]] = [("fixtures", *fmt) for fmt in FORMATS]
    for name in list_fixtures():
        for verb in FIXTURE_VERBS:
            calls.extend((verb, "--fixture", name, *fmt) for fmt in FORMATS)
    for g in HEAVY_GERMS:
        for argv in (
            ("le", *XYZ, "--g", g, "--l", "x+2*y+3*z"),
            ("critical-locus", *XYZ, "--g", g, "--f", "z"),
            ("polar", *XYZ, "--g", g, "--f", "z"),
        ):
            calls.append((*argv, "--format", "json"))
    extras: list[tuple[str, ...]] = [
        ("verify", "--fixture", "cylinder", "--N", "2..4", "--relative"),
        ("brasselet", "--fixture", "node-curve", "--slice", "g"),
        ("brasselet", "--fixture", "cusp-curve", "--slice", "l"),
        ("export-dataset", "--fixture", "pinch-point", "--N", "3"),
        ("milnor", "--fixture", "brieskorn-345", "--caps", "1"),
        ("verify", "--fixture", "cylinder", "--N", "2..3", "--caps", "300"),
        ("milnor", "--vars", "x,y", "--g", "x^2*y"),
        ("gap", *XYZ, "--g", "x^2+y^2"),
        ("le", *XYZ, "--g", "x^2+y^2", "--f", "z+x^2"),
        ("le", *XYZ, "--g", "x*y*z"),
        ("verify", "--vars", "x,y", "--g", "x^2*y", "--f", "x+2*y", "--N", "2..3"),
        ("verify", "--vars", "x,y", "--g", "x^2*y^2", "--f", "x+2*y", "--N", "2..3"),
    ]
    for g in CURVE_GERMS:
        extras.append(("le", *XYZ, "--g", g, "--l", "x+2*y+3*z"))
        extras.append(("critical-locus", *XYZ, "--g", g, "--f", "z"))
        extras.extend(("polar", *XYZ, "--g", g, "--f", form) for form in POLAR_FORMS)
    for g in ("x^2+y^2", "x*y*(x+y)", "x^3+y^3+x*y*z", "y^2-x^3+z*x^2*y", "x*y"):
        extras.append(("verify", *XYZ, "--g", g, "--f", "z", "--N", "2..3"))
        extras.append(("export-dataset", *XYZ, "--g", g, "--f", "z", "--N", "3"))
    for argv in extras:
        calls.extend((*argv, *fmt) for fmt in FORMATS)
    return calls


def run(argv: tuple[str, ...]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(result: tuple[int, str, str]) -> str:
    return hashlib.sha256(json.dumps(result).encode("utf-8")).hexdigest()


def test_cli_outputs_match_the_recorded_digests():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    calls = invocations()
    assert sorted(" ".join(argv) for argv in calls) == sorted(recorded)
    mismatches = []
    for argv in calls:
        result = run(argv)
        if digest(result) != recorded[" ".join(argv)]:
            code, out, err = result
            mismatches.append(
                f"germlab {' '.join(argv)}\n"
                f"exit code: {code}\n--- stdout ---\n{out}--- stderr ---\n{err}"
            )
    assert not mismatches, f"{len(mismatches)} outputs changed:\n\n" + "\n\n".join(mismatches)


if __name__ == "__main__":
    table = {" ".join(argv): digest(run(argv)) for argv in invocations()}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
