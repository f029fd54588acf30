"""The three benchmark workloads: their inputs, how one case runs, and how
each output is checked against the frozen reference in reference.json.

All workloads run as a closed loop from one process, one case at a time:
germlab is a batch tool, so there is no arrival schedule.  The seed only
permutes the case order and, for `heavy`, picks the ladder rung that serves
as the Le form; seed 0 keeps the listed order and rung 0 (x + 2y + 3z).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

from speed import COLD_START, IN_PROCESS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURE_DIR = SRC / "germlab" / "fixtures"

SWEEP_FIXTURES = (
    "brieskorn-345",
    "cusp-isolated",
    "cylinder-z3",
    "cylinder",
    "double-axes",
    "pinch-point",
    "three-lines",
)
SWEEP_RANGE = (2, 30)

HEAVY_VARS = ("x", "y", "z")
HEAVY_LE = (
    "x^2*y^2+x^2*z^2+y^2*z^2",
    "y^2-x^3+z*x^2*y",
    "x^2*y^2+z^3",
    "x^3+y^3+x*y*z",
)
HEAVY_MU = ("x^2*y+y^4+z^5+x*y*z^2", "x^4+y^4+z^4+x^2*y*z", "x^3*y+y^3*z+z^3*x")
# rungs of verifier.generic_linear_candidates a seed may pick as the Le form
LADDER_RUNGS = 3

DATASETS = ("cusp-curve", "node-curve", "main-identity-negative", "parity-negative")


def _fixture_path(name: str) -> str:
    return str((FIXTURE_DIR / f"{name}.json").relative_to(ROOT))


def cli_invocations() -> list[tuple[str, ...]]:
    """Every verb at least once, in text and JSON, over polynomial fixtures
    (by name), the stratified datasets (by file path) and inline input."""
    calls: list[tuple[str, ...]] = [("fixtures",), ("fixtures", "--format", "json")]
    plans = (
        ("milnor", ("brieskorn-345", "cusp-isolated")),
        ("critical-locus", ("cylinder", "three-lines")),
        ("polar", ("double-axes", "pinch-point")),
        ("gap", ("cusp-isolated", "cylinder-z3")),
        ("le", ("three-lines", "pinch-point", "cylinder")),
        ("verify", SWEEP_FIXTURES),
    )
    for verb, names in plans:
        for i, name in enumerate(names):
            fmt = ("text", "json")[i % 2]
            calls.append((verb, "--fixture", name, "--format", fmt))
    calls.append(("verify", "--fixture", "double-axes", "--N", "2..12", "--format", "json"))
    calls.append(("milnor", "--vars", "x,y,z", "--g", "x^4+y^4+z^4+x^2*y*z"))
    calls.append(("le", "--vars", "x,y,z", "--g", "x^3+y^3+x*y*z", "--format", "json"))
    for i, name in enumerate(DATASETS):
        path = _fixture_path(name)
        calls.append(("brasselet", "--scenario", path))
        calls.append(("brasselet", "--scenario", path, "--format", "json"))
        if i < 2:
            fmt = ("text", "json")[i % 2]
            calls.append(("brasselet", "--scenario", path, "--slice", "l", "--format", fmt))
    calls.append(("export-dataset", "--fixture", "cylinder", "--N", "3"))
    calls.append(("export-dataset", "--fixture", "three-lines", "--N", "3", "--format", "json"))
    return calls


def import_germlab(with_cli: bool = False):
    """Import germlab afresh from src/, dropping any copy already loaded, so
    repeated set-ups each pay the import."""
    for name in [m for m in sys.modules if m == "germlab" or m.startswith("germlab.")]:
        del sys.modules[name]
    package = importlib.import_module("germlab")
    if with_cli:
        importlib.import_module("germlab.cli")
    where = Path(package.__file__).resolve().parent
    if where != (SRC / "germlab").resolve():
        raise RuntimeError(f"imported germlab from {where}, not from {SRC}")
    return package


def seeded(seed: int, items):
    items = list(items)
    if seed:
        random.Random(seed).shuffle(items)
    return items


class Case:
    __slots__ = ("key", "data")

    def __init__(self, key: str, data):
        self.key = key
        self.data = data


def _diff(path: str, got, want) -> list[str]:
    """Paths at which two JSON-shaped values differ (first few only)."""
    if type(got) is not type(want):
        return [f"{path}: got {got!r}, reference {want!r}"]
    if isinstance(got, dict):
        out = []
        for key in sorted(set(got) | set(want)):
            out += _diff(f"{path}.{key}", got.get(key), want.get(key))
        return out[:5]
    if isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)}, reference {len(want)}"]
        out = []
        for i, (a, b) in enumerate(zip(got, want)):
            out += _diff(f"{path}[{i}]", a, b)
        return out[:5]
    return [] if got == want else [f"{path}: got {got!r}, reference {want!r}"]


class Workload:
    """Set-up and clocks shared by the workloads; the clocks are this
    process's, which is where `sweep` and `heavy` do their work."""

    with_cli = False
    probe = IN_PROCESS  # what scales this workload's case times (see speed.py)

    def __init__(self, reference: dict):
        self.reference = reference
        self.gl = None
        self.cases: list[Case] = []

    def setup(self) -> None:
        self.gl = import_germlab(self.with_cli)
        self.load_inputs()

    def cpu(self) -> float:
        return time.process_time()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def run_checks(self, outputs: dict, meter) -> tuple[int, list[str]]:
        """Checks made once per run, outside the timed region: (attempted, problems)."""
        return 0, []


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


def sweep_extract(doc: dict) -> dict:
    """Every computed integer and verdict of a verdict table.  The echoed
    inputs (`defaults`, `schema_version`) are left out on purpose."""
    return {
        "ok": doc["ok"],
        "threshold": doc["threshold"],
        "lambda0": doc["lambda0"],
        "lambda1": doc["lambda1"],
        "chi_fibre_g": doc["chi_fibre_g"],
        "branch_terms": doc["branch_terms"],
        "rows": [
            [
                row["N"],
                row["asserted"],
                row["mu_gtilde"],
                row["chi_gtilde"],
                row["morse_defect"],
                row["morse_expansion"],
                [[v["name"], v["status"], v.get("left"), v.get("right")] for v in row["verdicts"]],
            ]
            for row in doc["rows"]
        ],
    }


def expected_block_problems(doc: dict, expected: dict) -> list[str]:
    """Check a verdict table against a fixture's oracle-backed expected
    block, and refuse a vacuous PASS (no asserted row)."""
    problems = []
    for key, got in (
        ("lambda0", doc["lambda0"]),
        ("lambda1", doc["lambda1"]),
        ("chi_fibre", doc["chi_fibre_g"]),
        ("threshold", doc["threshold"]),
    ):
        if got != expected[key]:
            problems.append(f"{key} = {got}, fixture expects {expected[key]}")
    rows = doc["rows"]
    asserted = [r for r in rows if r["asserted"]]
    if not asserted:
        problems.append("no asserted (in-range) row: a PASS here would be vacuous")
    if not doc["ok"]:
        problems.append("verdict table reports FAIL")
    for row in rows:
        want = expected.get("mu_gtilde", {}).get(str(row["N"]))
        if want is not None and row["mu_gtilde"] != want:
            problems.append(f"N={row['N']}: mu = {row['mu_gtilde']}, fixture expects {want}")
    for row in asserted:
        n, mu = row["N"], row["mu_gtilde"]
        if "mu_stable" in expected and mu != expected["mu_stable"]:
            problems.append(f"N={n}: mu = {mu}, fixture expects stable {expected['mu_stable']}")
        if mu != doc["lambda0"] + (n - 1) * doc["lambda1"]:
            problems.append(f"N={n}: mu = {mu} breaks the Le-Iomdin identity")
        if "polar_pairing" in expected:
            polar = {v["name"]: v for v in row["verdicts"]}["polar_stability"]
            if not polar.get("left") == polar.get("right") == expected["polar_pairing"]:
                problems.append(f"N={n}: polar pairing {polar}, fixture expects {expected['polar_pairing']}")
    if "subthreshold_nonisolated" in expected:
        bad = [r["N"] for r in rows if r["mu_gtilde"] == "INFINITE"]
        if bad != expected["subthreshold_nonisolated"]:
            problems.append(f"non-isolated rows {bad}, fixture expects {expected['subthreshold_nonisolated']}")
    return problems


class Sweep(Workload):
    """verify_scenario over N = 2..30 on the seven polynomial fixtures."""

    name = "sweep"
    tail_pct = 90
    min_passes = 15

    def __init__(self, seed, reference, quick=False):
        super().__init__(reference)
        self.names = ["cylinder"] if quick else seeded(seed, SWEEP_FIXTURES)
        self.expected = {
            n: json.loads((FIXTURE_DIR / f"{n}.json").read_text(encoding="utf-8"))["expected"]
            for n in self.names
        }

    def load_inputs(self) -> None:
        load = self.gl.fixtures_lib.load_fixture
        self.cases = [Case(n, load(n)) for n in self.names]

    def run(self, case: Case):
        return self.gl.verifier.verify_scenario(case.data, n_range=SWEEP_RANGE)

    def render(self, output) -> str:
        return json.dumps(output.to_json_dict(), indent=2, sort_keys=True)

    def check(self, case: Case, output) -> list[str]:
        doc = output.to_json_dict()
        problems = expected_block_problems(doc, self.expected[case.key])
        want = self.reference["sweep"][case.key]
        problems += _diff(case.key, sweep_extract(doc), want)
        return problems

    def inputs_record(self) -> dict:
        return {"fixtures": self.names, "n_range": list(SWEEP_RANGE)}


class Heavy(Workload):
    """Le numbers and Milnor numbers of a tier of 3-variable germs."""

    name = "heavy"
    tail_pct = 75
    min_passes = 6

    def __init__(self, seed, reference, quick=False):
        super().__init__(reference)
        rng = random.Random(seed)
        self.rung = rng.randrange(LADDER_RUNGS) if seed else 0
        items = [("le", g) for g in HEAVY_LE] + [("mu", g) for g in HEAVY_MU]
        self.items = [("le", "x^3+y^3+x*y*z")] if quick else seeded(seed, items)

    def load_inputs(self) -> None:
        gl = self.gl
        ring = gl.rings.PolyRing(HEAVY_VARS)
        ladder = list(gl.verifier.generic_linear_candidates(ring, LADDER_RUNGS))
        self.form = ladder[self.rung]
        self.cases = [Case(f"{kind}:{g}", (kind, gl.parsing.parse_poly(g, ring))) for kind, g in self.items]

    def run(self, case: Case):
        kind, g = case.data
        if kind == "le":
            return self.gl.le.le_numbers(g, self.form).as_pair()
        return self.gl.invariants.milnor_number(g)

    def render(self, output) -> str:
        return json.dumps(output)

    def check(self, case: Case, output) -> list[str]:
        kind, text = case.key.split(":", 1)
        want = self.reference["heavy"][kind][text]
        got = list(output) if kind == "le" else output
        return [] if got == want else [f"{case.key}: got {got}, reference {want}"]

    def run_checks(self, outputs: dict, meter) -> tuple[int, list[str]]:
        """The Le-Iomdin identity mu(g + l^N) = lambda0 + (N-1) lambda1, once
        per Le pair, at the exponent and coordinates frozen for this rung."""
        gl = self.gl
        routes = self.reference["heavy"]["le_iomdin"]
        attempted, problems = 0, []
        for case in self.cases:
            kind, g = case.data
            if kind != "le" or case.key not in outputs:
                continue
            attempted += 1
            route = routes[case.key.split(":", 1)[1]][str(self.rung)]
            n, pivot = route["N"], route["pivot"]
            if pivot is None:
                deformed = g + self.form**n
            else:
                gw, target, _ = gl.le.align_first(g, self.form, pivot)
                deformed = gw + target.variable(0) ** n
            lam0, lam1 = outputs[case.key]
            try:
                mu = gl.invariants.milnor_number(deformed)
            except Exception as exc:  # noqa: BLE001 - a raising check is a failed case
                problems.append(f"Le-Iomdin {case.key} N={n}: {type(exc).__name__}: {exc}")
                continue
            if mu != lam0 + (n - 1) * lam1:
                problems.append(
                    f"Le-Iomdin {case.key} N={n}: mu = {mu} but lambda0 + (N-1) lambda1 = {lam0 + (n - 1) * lam1}"
                )
        return attempted, problems

    def inputs_record(self) -> dict:
        return {"cases": [c for _, c in self.items], "kinds": [k for k, _ in self.items],
                "ladder_rung": self.rung, "le_form": str(self.form)}


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------

_ECHO_KEYS = {"schema_version", "defaults", "limits"}


def _drop_echo(value):
    if isinstance(value, dict):
        return {k: _drop_echo(v) for k, v in value.items() if k not in _ECHO_KEYS}
    if isinstance(value, list):
        return [_drop_echo(v) for v in value]
    return value


def cli_numbers(stdout: str) -> list[int]:
    """The integers printed by one invocation.  In JSON output the echoed
    inputs and the schema version are skipped."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        text = stdout
    else:
        text = json.dumps(_drop_echo(doc), sort_keys=True)
    return [int(m) for m in re.findall(r"-?\d+", text)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Cli(Workload):
    """Cold-start `germlab` subprocesses, one child at a time."""

    name = "cli"
    tail_pct = 90
    min_passes = 3
    with_cli = True
    probe = COLD_START

    def __init__(self, seed: int, reference: dict, quick: bool = False):
        super().__init__(reference)
        self.argvs = [("fixtures",)] if quick else seeded(seed, cli_invocations())
        self.env = child_env()
        self.steps_per_pass = 0

    def load_inputs(self) -> None:
        """Load and validate every scenario the invocations name."""
        fixtures = self.gl.fixtures_lib
        for argv in self.argvs:
            if "--fixture" in argv:
                fixtures.load_fixture(argv[argv.index("--fixture") + 1])
            if "--scenario" in argv:
                path = ROOT / argv[argv.index("--scenario") + 1]
                self.gl.scenario.load_scenario(path.read_text(encoding="utf-8"))
        self.cases = [Case(" ".join(a), a) for a in self.argvs]

    def cpu(self) -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def run(self, case: Case):
        done = subprocess.run(
            [sys.executable, "-m", "germlab.cli", *case.data],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return done.returncode, done.stdout

    def run_inprocess(self, case: Case):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.gl.cli.main(list(case.data))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def render(self, output) -> str:
        return f"exit {output[0]}\n{output[1]}"

    def check(self, case: Case, output) -> list[str]:
        code, stdout = output
        want = self.reference["cli"][case.key]
        problems = []
        if code != want["exit"]:
            problems.append(f"{case.key}: exit {code}, reference {want['exit']}")
        numbers = cli_numbers(stdout)
        if numbers != want["numbers"]:
            problems.append(f"{case.key}: printed numbers differ from the reference")
        return problems

    def run_checks(self, outputs: dict, meter) -> tuple[int, list[str]]:
        """One in-process pass through cli.main: it must print what the
        child printed, and it gives the pass's reduction steps."""
        attempted, problems, steps = 0, [], 0
        for case in self.cases:
            attempted += 1
            meter.take()
            try:
                got = self.run_inprocess(case)
            except Exception as exc:  # noqa: BLE001 - a raising check is a failed case
                problems.append(f"in-process {case.key}: {type(exc).__name__}: {exc}")
                continue
            steps += meter.take()[0]
            if case.key in outputs and self.render(got) != self.render(outputs[case.key]):
                problems.append(f"in-process {case.key}: output differs from the subprocess")
        self.steps_per_pass = steps
        return attempted, problems

    def inputs_record(self) -> dict:
        return {"invocations": [list(a) for a in self.argvs]}


WORKLOADS = {w.name: w for w in (Sweep, Heavy, Cli)}
