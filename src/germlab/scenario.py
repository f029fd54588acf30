"""Scenario documents: JSON loading with total validation, canonical saving.

A scenario bundles the ambient variables, the germ g, the deformation
direction f (or a request for a deterministic generic linear form), an
exponent range, optional branch parametrizations, an optional stratified
dataset, iteration limits, and an optional block of expected values used by
the bundled fixtures.  Malformed documents never yield a Scenario; every
rejection carries the offending path.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, NamedTuple

from .errors import ParseError, SchemaError
from .ideals import DEFAULT_REDUCTION_CAP
from .invariants import DEFAULT_TRUNC, BranchParam, T_RING
from .parsing import parse_poly
from .rings import Poly, PolyRing
from .stratified import (
    BRANCH_FIELDS,
    KNOWN_SCALARS,
    BranchTableRow,
    StratifiedDataset,
    StratumRecord,
)

GENERIC_LINEAR = "GENERIC-LINEAR"
N_MIN, N_MAX = 2, 64

_TOP_KEYS = {
    "name",
    "variables",
    "g",
    "f",
    "N",
    "branches",
    "strata",
    "branch_table",
    "known",
    "limits",
    "expected",
}
_BRANCH_KEYS = {"name", "components", "host", "trunc", "multiplicity"}
_STRATUM_KEYS = {"name", "dim", "eu", "chi", "in_zero_locus_of"}
_LIMIT_KEYS = {"reduction_cap", "trunc"}


class Limits(NamedTuple):
    """One reduction-step budget per run, and the default branch truncation."""

    reduction_cap: int = DEFAULT_REDUCTION_CAP
    trunc: int = DEFAULT_TRUNC


class Scenario(NamedTuple):
    """A fully validated scenario; polynomials are parsed and canonical."""

    name: str
    ring: PolyRing | None
    g: Poly | None
    f: Poly | None  # None requests the deterministic generic linear form
    n_range: tuple[int, int]
    branches: tuple[BranchParam, ...] = ()
    dataset: StratifiedDataset | None = None
    limits: Limits = Limits()
    expected: Mapping[str, Any] | None = None


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SchemaError(path, message)


def _expect_int(value, path: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer")
    return value


def _expect_str(value, path: str) -> str:
    _expect(isinstance(value, str), path, "expected a string")
    return value


def _check_keys(obj: Mapping, allowed: set[str], path: str) -> None:
    for key in obj:
        _expect(key in allowed, f"{path}.{key}", "unknown key")


def _parse_in(text: str, ring: PolyRing, path: str) -> Poly:
    try:
        return parse_poly(text, ring)
    except ParseError as exc:
        raise SchemaError(path, str(exc)) from exc


def _load_branch(obj, ring: PolyRing, default_trunc: int, path: str) -> BranchParam:
    _expect(isinstance(obj, dict), path, "expected an object")
    _check_keys(obj, _BRANCH_KEYS, path)
    name = _expect_str(obj.get("name"), f"{path}.name")
    comps_raw = obj.get("components")
    _expect(isinstance(comps_raw, list), f"{path}.components", "expected a list of series strings")
    _expect(
        len(comps_raw) == ring.nvars,
        f"{path}.components",
        f"expected {ring.nvars} components, one per variable",
    )
    comps = tuple(
        _parse_in(_expect_str(c, f"{path}.components[{i}]"), T_RING, f"{path}.components[{i}]")
        for i, c in enumerate(comps_raw)
    )
    host = obj.get("host", "sigma")
    _expect(host in ("sigma", "polar"), f"{path}.host", "expected 'sigma' or 'polar'")
    trunc = _expect_int(obj.get("trunc", default_trunc), f"{path}.trunc")
    multiplicity = _expect_int(obj.get("multiplicity", 1), f"{path}.multiplicity")
    try:
        return BranchParam(name, comps, trunc=trunc, host=host, multiplicity=multiplicity)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _load_stratum(obj, path: str) -> StratumRecord:
    _expect(isinstance(obj, dict), path, "expected an object")
    _check_keys(obj, _STRATUM_KEYS, path)
    name = _expect_str(obj.get("name"), f"{path}.name")
    dim = _expect_int(obj.get("dim"), f"{path}.dim")
    _expect(dim >= 0, f"{path}.dim", "dimension must be non-negative")
    eu = _expect_int(obj.get("eu"), f"{path}.eu")
    chi_raw = obj.get("chi", {})
    _expect(isinstance(chi_raw, dict), f"{path}.chi", "expected an object")
    chi = {
        _expect_str(k, f"{path}.chi"): _expect_int(v, f"{path}.chi.{k}")
        for k, v in chi_raw.items()
    }
    zl_raw = obj.get("in_zero_locus_of", [])
    _expect(isinstance(zl_raw, list), f"{path}.in_zero_locus_of", "expected a list")
    zero_locus = frozenset(_expect_str(k, f"{path}.in_zero_locus_of") for k in zl_raw)
    return StratumRecord(name, dim, eu, chi, zero_locus)


def _load_branch_row(obj, path: str) -> BranchTableRow:
    _expect(isinstance(obj, dict), path, "expected an object")
    _check_keys(obj, {"name", *BRANCH_FIELDS}, path)
    name = _expect_str(obj.get("name"), f"{path}.name")
    fields = {}
    for key in BRANCH_FIELDS:
        if key in obj:
            fields[key] = _expect_int(obj[key], f"{path}.{key}")
    return BranchTableRow(name, **fields)


def load_scenario(document: str | Mapping[str, Any]) -> Scenario:
    """Parse and validate a scenario document (JSON text or a parsed object)."""
    if isinstance(document, str):
        try:
            raw = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"not valid JSON: {exc}") from exc
        except RecursionError:
            raise SchemaError("$", "not valid JSON: nested too deeply to decode") from None
    else:
        raw = document
    _expect(isinstance(raw, dict), "$", "expected a JSON object")
    _check_keys(raw, _TOP_KEYS, "$")

    name = _expect_str(raw.get("name", "scenario"), "$.name")

    limits_raw = raw.get("limits", {})
    _expect(isinstance(limits_raw, dict), "$.limits", "expected an object")
    _check_keys(limits_raw, _LIMIT_KEYS, "$.limits")
    bounds = {}
    for key, default in (("reduction_cap", DEFAULT_REDUCTION_CAP), ("trunc", DEFAULT_TRUNC)):
        bounds[key] = _expect_int(limits_raw.get(key, default), f"$.limits.{key}")
        _expect(bounds[key] >= 1, f"$.limits.{key}", "must be at least 1")
    limits = Limits(**bounds)

    ring = None
    g = None
    f: Poly | None = None
    if "variables" in raw:
        vars_raw = raw["variables"]
        _expect(
            isinstance(vars_raw, list) and vars_raw and all(isinstance(v, str) for v in vars_raw),
            "$.variables",
            "expected a nonempty list of variable names",
        )
        _expect(
            all(v.isidentifier() for v in vars_raw),
            "$.variables",
            "variable names must be identifiers",
        )
        _expect(len(set(vars_raw)) == len(vars_raw), "$.variables", "variable names must be distinct")
        ring = PolyRing(tuple(vars_raw))

    if "g" in raw:
        _expect(ring is not None, "$.g", "a germ needs declared variables")
        g = _parse_in(_expect_str(raw["g"], "$.g"), ring, "$.g")
        _expect(g.constant_term() == 0, "$.g", "the germ must vanish at the origin")
        _expect(not g.is_zero, "$.g", "the germ must be nonzero")

    f_raw = raw.get("f", GENERIC_LINEAR)
    if g is not None:
        if f_raw != GENERIC_LINEAR:
            assert ring is not None
            f = _parse_in(_expect_str(f_raw, "$.f"), ring, "$.f")
            _expect(f.constant_term() == 0, "$.f", "f must vanish at the origin")
            _expect(not f.is_zero, "$.f", "f must be nonzero")
    else:
        _expect("f" not in raw, "$.f", "a deformation direction needs a germ g")
        _expect("strata" in raw, "$", "a scenario needs either a germ g or strata")

    n_raw = raw.get("N", [N_MIN, 8])
    if isinstance(n_raw, int) and not isinstance(n_raw, bool):
        n_range = (n_raw, n_raw)
    else:
        _expect(
            isinstance(n_raw, list) and len(n_raw) == 2,
            "$.N",
            "expected an integer or a two-element range [lo, hi]",
        )
        n_range = (_expect_int(n_raw[0], "$.N[0]"), _expect_int(n_raw[1], "$.N[1]"))
    _expect(
        N_MIN <= n_range[0] <= n_range[1] <= N_MAX,
        "$.N",
        f"the exponent range must sit inside [{N_MIN}, {N_MAX}]",
    )

    branches: tuple[BranchParam, ...] = ()
    if "branches" in raw:
        _expect(ring is not None, "$.branches", "branches need declared variables")
        br_raw = raw["branches"]
        _expect(isinstance(br_raw, list), "$.branches", "expected a list")
        assert ring is not None
        branches = tuple(
            _load_branch(b, ring, limits.trunc, f"$.branches[{i}]") for i, b in enumerate(br_raw)
        )
        names = [b.name for b in branches]
        _expect(len(set(names)) == len(names), "$.branches", "branch names must be distinct")

    dataset = None
    if "strata" in raw or "branch_table" in raw or "known" in raw:
        strata_raw = raw.get("strata", [])
        _expect(isinstance(strata_raw, list), "$.strata", "expected a list")
        strata = tuple(_load_stratum(s, f"$.strata[{i}]") for i, s in enumerate(strata_raw))
        table = None
        if "branch_table" in raw:
            table_raw = raw["branch_table"]
            _expect(isinstance(table_raw, list), "$.branch_table", "expected a list")
            table = tuple(
                _load_branch_row(r, f"$.branch_table[{i}]") for i, r in enumerate(table_raw)
            )
        known_raw = raw.get("known", {})
        _expect(isinstance(known_raw, dict), "$.known", "expected an object")
        known = {}
        # an explicit flag wins; otherwise linearity of a declared f decides
        f_is_linear = f is not None and f.is_linear_form
        for key, value in known_raw.items():
            if key == "f_is_linear":
                _expect(isinstance(value, bool), "$.known.f_is_linear", "expected a boolean")
                f_is_linear = value
                continue
            _expect(key in KNOWN_SCALARS, f"$.known.{key}", "unknown scalar")
            known[key] = _expect_int(value, f"$.known.{key}")
        if strata or table is not None or known:
            dataset = StratifiedDataset(strata, table, known, f_is_linear)
            try:
                dataset.validate()
            except SchemaError as exc:
                raise SchemaError(f"$.{exc.path}", str(exc)) from exc

    expected = raw.get("expected")
    if expected is not None:
        _expect(isinstance(expected, dict), "$.expected", "expected an object")

    return Scenario(
        name=name,
        ring=ring,
        g=g,
        f=f,
        n_range=n_range,
        branches=branches,
        dataset=dataset,
        limits=limits,
        expected=expected,
    )


def _branch_to_dict(b: BranchParam) -> dict:
    return {
        "name": b.name,
        "components": [str(c) for c in b.components],
        "host": b.host,
        "trunc": b.trunc,
        "multiplicity": b.multiplicity,
    }


def _stratum_to_dict(s: StratumRecord) -> dict:
    out: dict[str, Any] = {"name": s.name, "dim": s.dim, "eu": s.eu}
    if s.chi:
        out["chi"] = {k: s.chi[k] for k in sorted(s.chi)}
    if s.in_zero_locus_of:
        out["in_zero_locus_of"] = sorted(s.in_zero_locus_of)
    return out


def _row_to_dict(r: BranchTableRow) -> dict:
    out: dict[str, Any] = {"name": r.name}
    for key in BRANCH_FIELDS:
        value = getattr(r, key)
        if value is not None:
            out[key] = value
    return out


def scenario_to_dict(s: Scenario) -> dict:
    """Canonical JSON-ready form; load(save(x)) == x."""
    out: dict[str, Any] = {"name": s.name}
    if s.ring is not None:
        out["variables"] = list(s.ring.variables)
    if s.g is not None:
        out["g"] = str(s.g)
        out["f"] = str(s.f) if s.f is not None else GENERIC_LINEAR
    out["N"] = list(s.n_range)
    if s.branches:
        out["branches"] = [_branch_to_dict(b) for b in s.branches]
    if s.dataset is not None:
        if s.dataset.strata:
            out["strata"] = [_stratum_to_dict(st) for st in s.dataset.strata]
        if s.dataset.branch_table is not None:
            out["branch_table"] = [_row_to_dict(r) for r in s.dataset.branch_table]
        known: dict[str, Any] = {k: s.dataset.known[k] for k in sorted(s.dataset.known)}
        derived_flag = s.f is not None and s.f.is_linear_form
        if s.dataset.f_is_linear != derived_flag:
            known["f_is_linear"] = s.dataset.f_is_linear
        if known:
            out["known"] = known
    out["limits"] = s.limits._asdict()
    if s.expected is not None:
        out["expected"] = s.expected
    return out


def save_scenario(s: Scenario) -> str:
    """Deterministic JSON text for a scenario."""
    return json.dumps(scenario_to_dict(s), indent=2, sort_keys=True) + "\n"
