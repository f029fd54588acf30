"""Regenerate bench/reference.json, the frozen outputs every benchmark run
is checked against.

    python3 bench/freeze.py

Run it only when germlab's output changes on purpose.  Nothing is frozen
unless it first agrees with an independent oracle:

- sweep: each fixture's oracle-backed `expected` block, and the Le-Iomdin
  identity mu(g + f^N) = lambda0 + (N-1) lambda1 on every asserted row;
- heavy: the Le pairs and Milnor numbers below (closed forms noted per
  case), and for each ladder rung the Le-Iomdin identity at the exponent
  and coordinates the runs will use (see le_iomdin_route);
- cli: exit codes (brasselet on the *-negative datasets exits 1 by design)
  and the numbers printed by milnor and le against the fixture blocks.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402

HEAVY_LE_ORACLE = {
    # Le pairs for l = x + 2y + 3z; generic rungs give the same pair
    "x^2*y^2+x^2*z^2+y^2*z^2": [18, 3],
    "y^2-x^3+z*x^2*y": [0, 2],
    "x^2*y^2+z^3": [6, 4],
    "x^3+y^3+x*y*z": [6, 1],
}
HEAVY_MU_ORACLE = {
    # D5 (mu 5) joined with z^5 (mu 4); x*y*z^2 lies above the weights
    "x^2*y+y^4+z^5+x*y*z^2": 20,
    # isolated homogeneous quartics: (d - 1)^3
    "x^4+y^4+z^4+x^2*y*z": 27,
    "x^3*y+y^3*z+z^3*x": 27,
}
# used only when no coordinate choice finishes at the package's threshold
FALLBACK_EXPONENT = 4
ROUTE_TIMEOUT_S = 30


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def freeze_sweep(gl) -> dict:
    out = {}
    for name in wl.SWEEP_FIXTURES:
        doc = gl.verifier.verify_scenario(gl.fixtures_lib.load_fixture(name), n_range=wl.SWEEP_RANGE).to_json_dict()
        expected = json.loads((wl.FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8"))["expected"]
        problems = wl.expected_block_problems(doc, expected)
        if problems:
            raise SystemExit(f"sweep {name} disagrees with its oracle: {problems}")
        out[name] = wl.sweep_extract(doc)
    return out


def le_iomdin_route(gl, g, form, pair) -> dict:
    """The exponent and coordinates at which a run checks the Le-Iomdin
    identity: N = the package's threshold (`polar.iomdin_threshold`), in the
    original coordinates or aligned with the form at the first pivot whose
    Milnor number finishes within the timeout; N = FALLBACK_EXPONENT, below
    the threshold, where none does."""
    lam0, lam1 = pair
    threshold = gl.polar.iomdin_threshold(form, g)
    for n in dict.fromkeys((threshold, FALLBACK_EXPONENT)):
        for pivot in (None, 0, 1, 2):
            if pivot is None:
                deformed = g + form**n
            else:
                gw, target, _ = gl.le.align_first(g, form, pivot)
                deformed = gw + target.variable(0) ** n
            signal.alarm(ROUTE_TIMEOUT_S)
            t0 = time.perf_counter()
            try:
                mu = gl.invariants.milnor_number(deformed)
            except _Timeout:
                continue
            finally:
                signal.alarm(0)
            if mu != lam0 + (n - 1) * lam1:
                raise SystemExit(f"Le-Iomdin fails for {g}, form {form}, N={n}: mu = {mu}")
            return {"N": n, "pivot": pivot, "threshold": threshold, "seconds": round(time.perf_counter() - t0, 2)}
    raise SystemExit(f"no tractable Le-Iomdin route for {g}, form {form}")


def freeze_heavy(gl) -> dict:
    ring = gl.rings.PolyRing(wl.HEAVY_VARS)
    ladder = list(gl.verifier.generic_linear_candidates(ring, wl.LADDER_RUNGS))
    routes = {}
    for text, pair in HEAVY_LE_ORACLE.items():
        g = gl.parsing.parse_poly(text, ring)
        routes[text] = {}
        for rung, form in enumerate(ladder):
            got = list(gl.le.le_numbers(g, form).as_pair())
            if got != pair:
                raise SystemExit(f"Le pair of {text} with {form}: {got}, oracle {pair}")
            routes[text][str(rung)] = le_iomdin_route(gl, g, form, pair)
            print(f"heavy {text} rung {rung}: {routes[text][str(rung)]}", file=sys.stderr)
    for text, mu in HEAVY_MU_ORACLE.items():
        got = gl.invariants.milnor_number(gl.parsing.parse_poly(text, ring))
        if got != mu:
            raise SystemExit(f"mu of {text}: {got}, oracle {mu}")
    return {"le": HEAVY_LE_ORACLE, "mu": HEAVY_MU_ORACLE, "le_iomdin": routes}


def freeze_cli() -> dict:
    out = {}
    cli = wl.Cli(0, {})
    for argv in wl.cli_invocations():
        key = " ".join(argv)
        code, stdout = cli.run(wl.Case(key, argv))
        want_exit = 1 if argv[0] == "brasselet" and "negative" in key else 0
        if code != want_exit:
            raise SystemExit(f"{key}: exit {code}, expected {want_exit}")
        if argv[0] in ("milnor", "le") and "--fixture" in argv:
            expected = json.loads(
                (wl.FIXTURE_DIR / f"{argv[argv.index('--fixture') + 1]}.json").read_text(encoding="utf-8")
            )["expected"]
            want = [expected["lambda0"]] if argv[0] == "milnor" else [expected["lambda0"], expected["lambda1"]]
            if "json" in argv:
                doc = json.loads(stdout)
                got = [doc["mu"]] if argv[0] == "milnor" else [doc["lambda0"], doc["lambda1"]]
            else:
                pattern = r"mu = (-?\d+)" if argv[0] == "milnor" else r"lambda0 = (-?\d+), lambda1 = (-?\d+)"
                got = [int(x) for x in re.search(pattern, stdout).groups()]
            if got != want:
                raise SystemExit(f"{key}: printed {got}, fixture expects {want}")
        out[key] = {"exit": code, "numbers": wl.cli_numbers(stdout)}
    return out


def dumps(value, depth: int = 0) -> str:
    """JSON with short records and lists of numbers on one line each."""
    flat = json.dumps(value, sort_keys=True)
    scalars = isinstance(value, list) and not any(isinstance(v, (dict, list)) for v in value)
    if not isinstance(value, (dict, list)) or scalars or len(flat) <= 240:
        return flat
    pad = "\n" + " " * (depth + 1)
    if isinstance(value, dict):
        items = [f"{json.dumps(k)}: {dumps(v, depth + 1)}" for k, v in sorted(value.items())]
        return "{" + pad + ("," + pad).join(items) + "\n" + " " * depth + "}"
    items = [dumps(v, depth + 1) for v in value]
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"


def main() -> int:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    signal.signal(signal.SIGALRM, _alarm)
    gl = wl.import_germlab(with_cli=True)
    reference = {
        "sweep": freeze_sweep(gl),
        "heavy": freeze_heavy(gl),
        "cli": freeze_cli(),
    }
    path = HERE / "reference.json"
    path.write_text(dumps(reference) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
