"""Acceptance gate: ten criteria, exact integer equality, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.
"""

from __future__ import annotations

import subprocess
import sys

from germlab import (
    BranchParam,
    bls_euler_obstruction,
    build_deformation,
    export_dataset,
    le_numbers,
    load_scenario,
    milnor_number,
    parse_poly,
    save_scenario,
    verify_polar_decomposition,
    verify_scenario,
    verify_stratified_identities,
)
from germlab.fixtures_lib import fixture_text, list_fixtures, load_fixture
from conftest import RING_XY, RING_XYZ, child_env
from oracles import brieskorn_mu, monomial_quotient_count

X, Y, Z = (RING_XYZ.variable(i) for i in range(3))
x, y = RING_XY.variable(0), RING_XY.variable(1)

CN_FIXTURES = [
    "cylinder",
    "three-lines",
    "pinch-point",
    "cusp-isolated",
    "double-axes",
    "brieskorn-345",
    "cylinder-z3",
]
ISOLATED_FIXTURES = ["cusp-isolated", "double-axes", "brieskorn-345", "cylinder-z3"]


def report(number: int, ok: bool, label: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d}: {status}  {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_01_milnor_kernel():
    ok = True
    for a in range(2, 6):
        for b in range(2, 6):
            for c in range(2, 6):
                ok = ok and milnor_number(X**a + Y**b + Z**c) == brieskorn_mu(a, b, c)
    mu = milnor_number(x**3 + y**3)
    ok = ok and mu == 4 == monomial_quotient_count([(2, 0), (0, 2)])
    report(1, ok, "Brieskorn-Pham sweep 2..5 and the monomial-quotient cusp sum")


def test_criterion_02_le_numbers():
    cylinder = verify_scenario(load_fixture("cylinder"))
    lines = verify_scenario(load_fixture("three-lines"))
    ok = cylinder.le.as_pair() == (0, 1) and lines.le.as_pair() == (0, 4)
    for name in ISOLATED_FIXTURES:
        sc = load_fixture(name)
        table = verify_scenario(sc)
        mu = milnor_number(sc.g)
        ok = ok and table.le.as_pair() == (mu, 0)
    report(2, ok, "cylinder (0,1), three-lines (0,4), isolated fixtures (mu, 0)")


def _sweep(name: str):
    return verify_scenario(load_fixture(name), relative_to_threshold=True)


def test_criterion_03_massey_identity():
    ok = True
    for name, mu_of_n in (("cylinder", lambda n: n - 1), ("three-lines", lambda n: 4 * (n - 1))):
        table = _sweep(name)
        ok = ok and table.threshold + 6 == table.rows[-1].n
        for row in table.rows:
            verdict = {v.name: v for v in row.verdicts}["massey"]
            ok = ok and verdict.status == "PASS"
            ok = ok and verdict.left == mu_of_n(row.n)
            ok = ok and verdict.right == table.le.lambda0 + (row.n - 1) * table.le.lambda1
    report(3, ok, "mu route equals the lambda route over [threshold, threshold + 6]")


def test_criterion_04_chi_identity():
    ok = True
    for name, both_sides in (("cylinder", lambda n: n), ("three-lines", lambda n: 4 * n - 3)):
        table = _sweep(name)
        for row in table.rows:
            verdict = {v.name: v for v in row.verdicts}["chi"]
            ok = ok and verdict.status == "PASS"
            ok = ok and verdict.left == verdict.right == both_sides(row.n)
    report(4, ok, "chi identity sides equal N (cylinder) and 4N-3 (three-lines)")


def test_criterion_05_tibar_identity():
    ok = True
    for name in ("cylinder", "three-lines"):
        table = _sweep(name)
        for row in table.rows:
            by_name = {v.name: v for v in row.verdicts}
            chi, tibar = by_name["chi"], by_name["tibar"]
            ok = ok and tibar.status == "PASS"
            ok = ok and tibar.left == chi.left - table.chi_g
            ok = ok and tibar.right == chi.right - table.chi_g
    report(5, ok, "suspension defects identical to the chi defects row by row")


def test_criterion_06_polar_decomposition():
    from germlab.invariants import T_RING

    t = T_RING.variable(0)
    o = T_RING.zero()
    axis = BranchParam("axis", (o, o, t))
    ok = True
    for g, comps in (
        (X**2 + Y**2, [axis]),
        (X * Y * (X + Y), [axis]),
        (X**2 + Y**2 + Z**3, []),
    ):
        for n in (2, 3, 5):
            ok = ok and bool(verify_polar_decomposition(Z, g, n, components=comps))
    report(6, ok, "polar decomposition of the deformation on the three C3 fixtures")


def test_criterion_07_gap_lemma():
    table = _sweep("cylinder-z3")
    ok = True
    for row in table.rows:
        verdict = {v.name: v for v in row.verdicts}["polar_stability"]
        ok = ok and verdict.status == "PASS" and verdict.left == verdict.right == 3
    report(7, ok, "polar pairing against g and its deformation both equal 3")


def test_criterion_08_stratified_ledger():
    cusp = load_scenario(fixture_text("cusp-curve"))
    ok = bls_euler_obstruction(cusp.dataset) == 2

    exported = export_dataset(load_fixture("cylinder"), 3)
    main = {v.name: v for v in verify_stratified_identities(exported)}["main"]
    ok = ok and main.status == "PASS" and main.left == 3 and main.right == 3

    for name, expected_fail, witness in (
        ("parity-negative", "parity", (3, 5)),
        ("main-identity-negative", "main", (7, 3)),
    ):
        sc = load_scenario(fixture_text(name))
        failing = [v for v in verify_stratified_identities(sc.dataset) if v.status == "FAIL"]
        ok = ok and [v.name for v in failing] == [expected_fail]
        ok = ok and (failing[0].left, failing[0].right) == witness
    report(8, ok, "BLS on the cusp, main theorem on the export, negatives fail with witnesses")


def test_criterion_09_isolation_certificate():
    ok = True
    for name in CN_FIXTURES:
        table = _sweep(name)
        ok = ok and all(row.certificate is not None for row in table.rows)
    # sub-threshold non-isolation is reported, never asserted
    default = verify_scenario(load_fixture("double-axes"))
    bad = [row for row in default.rows if row.certificate is None]
    ok = ok and bad and all(not row.in_range for row in bad) and default.ok
    report(9, ok, "deformations isolated on every asserted row; sub-threshold failures reported only")


def test_criterion_10_determinism_and_round_trips():
    cmd = [sys.executable, "-m", "germlab.cli", "verify", "--fixture", "cylinder", "--format", "json"]
    runs = [subprocess.run(cmd, capture_output=True, check=True, env=child_env()).stdout for _ in range(2)]
    ok = runs[0] == runs[1] and bool(runs[0])

    corpus = []
    for name in list_fixtures():
        sc = load_scenario(fixture_text(name))
        ok = ok and load_scenario(save_scenario(sc)) == sc
        if sc.g is not None:
            corpus.append(sc.g)
        if sc.f is not None:
            corpus.append(sc.f)
        for b in sc.branches:
            corpus.extend(b.components)
    for p in corpus:
        ok = ok and parse_poly(str(p), p.ring) == p
    report(10, ok, "byte-identical JSON across runs; parse/print and load/save round trips")
