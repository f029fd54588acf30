"""Command-line surface: a batch tool over scenarios and fixtures.

Exit status: 0 when every asserted check passes, 1 on computation errors or
failing verdicts, 2 on usage errors, an unknown fixture, an unreadable
scenario file and input that fails to parse or validate among them.  JSON
output is deterministic: the same scenario produces byte-identical reports
across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ExponentRangeError, GermlabError, MissingSliceError, SchemaError
from .fixtures_lib import fixture_text, list_fixtures
from .invariants import critical_locus, milnor_number
from .scenario import (
    GENERIC_LINEAR,
    N_MAX,
    N_MIN,
    Scenario,
    load_scenario,
    save_scenario,
)
from .stratified import (
    bls_euler_obstruction,
    brasselet_number,
    euler_obstruction_of_function,
    verify_stratified_identities,
)
from .verifier import (
    SCHEMA_VERSION,
    ScenarioContext,
    export_dataset,
    verify_scenario,
)

USAGE_EXIT = 2
ERROR_EXIT = 1


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _parse_n_range(parser: argparse.ArgumentParser, text: str) -> tuple[int, int]:
    """The --N value "n" or "lo..hi" as a nonempty range inside [N_MIN, N_MAX].

    Every malformed or out-of-bounds value is a usage error (exit 2).
    """
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if dots else lo
    except ValueError:
        parser.error(f"--N expects an integer n or a range lo..hi, got {text!r}")
    if lo > hi:
        parser.error(f"--N range {text!r} is empty: {lo} > {hi}")
    if lo < N_MIN or hi > N_MAX:
        parser.error(f"--N {text!r} must sit inside [{N_MIN}, {N_MAX}]")
    return lo, hi


def _scenario_from_args(parser: argparse.ArgumentParser, args) -> Scenario:
    """The scenario named by the input flags, with --caps applied to it."""
    if sum(map(bool, (args.scenario, args.fixture, args.vars or args.g))) != 1:
        parser.error("provide exactly one input: --scenario, --fixture, or inline --vars/--g")
    if args.caps is not None and args.caps < 1:
        parser.error(f"--caps must be at least 1, got {args.caps}")
    f, l = getattr(args, "f", None), getattr(args, "l", None)
    if (args.scenario or args.fixture) and (f is not None or l is not None):
        flag = "--f" if f is not None else "--l"
        parser.error(f"{flag} is inline input; a --fixture or --scenario declares its own f")
    document: str | dict
    if args.scenario or args.fixture:
        try:
            if args.scenario:
                document = Path(args.scenario).read_text(encoding="utf-8")
            else:
                document = fixture_text(args.fixture)
        except UnicodeDecodeError as exc:
            parser.exit(USAGE_EXIT, f"error: $: not valid UTF-8: {exc}\n")
        except (GermlabError, OSError) as exc:  # an unknown fixture, an unreadable file
            parser.exit(USAGE_EXIT, f"error: {exc}\n")
    else:
        if not args.vars or not args.g:
            parser.error("inline input needs both --vars and --g")
        if f and l:
            parser.error("give the deformation direction once: --f and --l are aliases")
        form = f or l
        document = {
            "name": "inline",
            "variables": args.vars.split(","),
            "g": args.g,
            "f": form if form else GENERIC_LINEAR,
        }
        if getattr(args, "N", None):
            document["N"] = list(_parse_n_range(parser, args.N))
    try:
        scenario = load_scenario(document)
    except SchemaError as exc:  # input that fails to parse or validate
        parser.exit(USAGE_EXIT, f"error: {exc}\n")
    if args.caps is not None:
        scenario = scenario._replace(limits=scenario.limits._replace(reduction_cap=args.caps))
    return scenario


def cmd_milnor(parser, args) -> int:
    ctx = ScenarioContext(_scenario_from_args(parser, args))
    mu = milnor_number(ctx.g, ctx.budget)
    note = "nonsingular germ" if mu == 0 else ""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "milnor",
        "g": str(ctx.g),
        "mu": mu,
        "provenance": "local quotient dimension of the Jacobian ideal",
    }
    if note:
        payload["note"] = note
    _emit(args, payload, f"mu = {mu}" + (f"  ({note})" if note else ""))
    return 0


def cmd_critical_locus(parser, args) -> int:
    ctx = ScenarioContext(_scenario_from_args(parser, args))
    report = critical_locus(ctx.g, ctx.scenario.f, ctx.budget)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "critical-locus",
        "g": str(ctx.g),
        "generators": [str(p) for p in report.ideal.generators],
        "dim_at_origin": report.dim,
    }
    lines = [f"critical locus ideal: {', '.join(str(p) for p in report.ideal.generators)}"]
    lines.append(f"dimension at the origin: {report.dim}")
    if report.meets_f_only_at_origin is not None:
        payload["meets_f_only_at_origin"] = report.meets_f_only_at_origin
        lines.append(f"meets {{f = 0}} only at the origin: {report.meets_f_only_at_origin}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_polar(parser, args) -> int:
    ctx = ScenarioContext(_scenario_from_args(parser, args))
    f, curve = ctx.f, ctx.polar
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "polar",
        "g": str(ctx.g),
        "f": str(f),
        "generators": [str(p) for p in curve.ideal.generators],
        "dim_at_origin": curve.dim,
        "empty": curve.is_empty,
    }
    text = (
        f"relative polar curve of (f = {f}, g = {ctx.g})\n"
        f"ideal: {', '.join(str(p) for p in curve.ideal.generators)}\n"
        f"dimension at the origin: {curve.dim}" + ("  (empty)" if curve.is_empty else "")
    )
    _emit(args, payload, text)
    return 0


def cmd_gap(parser, args) -> int:
    ctx = ScenarioContext(_scenario_from_args(parser, args))
    f, report = ctx.f, ctx.gap
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "gap",
        "g": str(ctx.g),
        "f": str(f),
        "ratios": [
            {"name": r.name, "ord_g": r.ord_g, "ord_f": r.ord_f, "ratio": str(r.ratio)}
            for r in report.ratios
        ],
        "sound_bound": report.sound_bound,
        "exact_max": None if report.exact_max is None else str(report.exact_max),
        "threshold": report.threshold,
    }
    lines = [f"gap ratios for (f = {f}, g = {ctx.g}):"]
    for r in report.ratios:
        lines.append(f"  {r.name}: ord_g = {r.ord_g}, ord_f = {r.ord_f}, ratio = {r.ratio}")
    if not report.ratios:
        lines.append("  (no parametrized components)")
    lines.append(f"sound bound: {report.sound_bound}")
    if report.exact_max is not None:
        lines.append(f"exact maximum: {report.exact_max}")
    lines.append(f"threshold: {report.threshold}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_le(parser, args) -> int:
    scenario = _scenario_from_args(parser, args)
    form = args.f or args.l
    if form and scenario.f is not None and not scenario.f.is_linear_form:
        flag = "--f" if args.f else "--l"
        parser.error(
            f"{flag} {form!r} is not a linear form; Le numbers are taken against a linear "
            f"form, so omit {flag} to use the generic ladder"
        )
    ctx = ScenarioContext(scenario)
    le, chi = ctx.le, ctx.chi_g
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "le",
        "g": str(ctx.g),
        "coords": list(le.coords),
        "lambda0": le.lambda0,
        "lambda1": le.lambda1,
        "chi_fibre": chi,
        "provenance": list(le.route_log),
    }
    _emit(
        args,
        payload,
        f"lambda0 = {le.lambda0}, lambda1 = {le.lambda1}, chi(Milnor fibre) = {chi}",
    )
    return 0


def cmd_verify(parser, args) -> int:
    n_range = _parse_n_range(parser, args.N) if args.N else None
    scenario = _scenario_from_args(parser, args)
    try:
        table = verify_scenario(scenario, n_range=n_range, relative_to_threshold=args.relative)
    except ExponentRangeError as exc:
        parser.error(str(exc))
    _emit(args, table.to_json_dict(), table.to_text())
    return 0 if table.ok else ERROR_EXIT


def cmd_brasselet(parser, args) -> int:
    scenario = _scenario_from_args(parser, args)
    if scenario.dataset is None:
        raise GermlabError("this scenario has no stratified dataset")
    dataset = scenario.dataset
    payload: dict = {
        "schema_version": SCHEMA_VERSION,
        "kind": "brasselet",
        "scenario": scenario.name,
    }
    lines = [f"stratified dataset of {scenario.name}:"]
    if any("l" in s.chi for s in dataset.strata):
        eu = bls_euler_obstruction(dataset)
        payload["eu_X_0"] = eu
        lines.append(f"Eu_X(0) via hyperplane slices: {eu}")
    if args.slice:
        try:
            value = brasselet_number(dataset, args.slice)
        except MissingSliceError:
            kinds = ", ".join(dataset.slice_kinds()) or "none"
            parser.error(
                f"--slice {args.slice!r} is not a slice kind of this dataset (it carries: {kinds})"
            )
        payload["brasselet"] = {args.slice: value}
        lines.append(f"Brasselet number for slice kind {args.slice!r}: {value}")
        if "eu_X_0" in payload or "eu_X_0" in dataset.known:
            eu_f = euler_obstruction_of_function(dataset, args.slice)
            payload["eu_function"] = {args.slice: eu_f}
            lines.append(f"Euler obstruction of the function ({args.slice}): {eu_f}")
    verdicts = verify_stratified_identities(dataset)
    payload["verdicts"] = [
        {
            "name": v.name,
            "status": v.status,
            "left": v.left,
            "right": v.right,
            "note": v.note,
        }
        for v in verdicts
    ]
    for v in verdicts:
        sides = f"  left={v.left} right={v.right}" if v.status != "SKIPPED" else ""
        note = f"  ({v.note})" if v.note else ""
        lines.append(f"  {v.name:<18} {v.status}{sides}{note}")
    failed = any(v.status == "FAIL" for v in verdicts)
    payload["ok"] = not failed
    lines.append(f"overall: {'FAIL' if failed else 'PASS'}")
    _emit(args, payload, "\n".join(lines))
    return ERROR_EXIT if failed else 0


def cmd_export_dataset(parser, args) -> int:
    n = None
    if args.N:
        n, hi = _parse_n_range(parser, args.N)
        if n != hi:
            parser.error(f"export-dataset takes a single exponent --N, got {args.N!r}")
    scenario = _scenario_from_args(parser, args)
    dataset = export_dataset(scenario, n)
    n = dataset.known["N"]
    exported = scenario._replace(
        name=f"{scenario.name}-dataset-N{n}",
        n_range=(n, n),
        dataset=dataset,
        expected=None,
    )
    text = save_scenario(exported)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_fixtures(parser, args) -> int:
    names = list_fixtures()
    if args.format == "json":
        print(json.dumps({"schema_version": SCHEMA_VERSION, "fixtures": names}, indent=2, sort_keys=True))
    else:
        for name in names:
            print(name)
    return 0


def _add_input_flags(sub, with_form=True, with_n=False):
    sub.add_argument("--scenario", help="path to a scenario JSON file")
    sub.add_argument("--fixture", help="name of a bundled fixture")
    sub.add_argument("--vars", help="comma-separated variable names (inline input)")
    sub.add_argument("--g", help="the germ g (inline input)")
    if with_form:
        sub.add_argument("--f", help="deformation direction f (inline input)")
        sub.add_argument("--l", help="alias for --f when it is a linear form")
    if with_n:
        sub.add_argument("--N", help="exponent or range, e.g. 3 or 2..8")
    sub.add_argument("--caps", type=int, help="reduction-step budget for the whole run")
    sub.add_argument(
        "--format", choices=("text", "json"), default="text", help="output mode"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="germlab",
        description="exact-arithmetic workbench for singularity invariants of polynomial germs",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    sub = subs.add_parser("milnor", help="Milnor number of an isolated singularity")
    _add_input_flags(sub, with_form=False)
    sub.set_defaults(func=cmd_milnor)

    sub = subs.add_parser("critical-locus", help="Jacobian ideal and its local dimension")
    _add_input_flags(sub)
    sub.set_defaults(func=cmd_critical_locus)

    sub = subs.add_parser("polar", help="relative polar curve of (f, g)")
    _add_input_flags(sub)
    sub.set_defaults(func=cmd_polar)

    sub = subs.add_parser("gap", help="gap ratios and the deformation threshold")
    _add_input_flags(sub)
    sub.set_defaults(func=cmd_gap)

    sub = subs.add_parser("le", help="Le numbers and the fibre Euler characteristic")
    _add_input_flags(sub)
    sub.set_defaults(func=cmd_le)

    sub = subs.add_parser("verify", help="run the deformation identity sweep")
    _add_input_flags(sub, with_n=True)
    sub.add_argument(
        "--relative",
        action="store_true",
        help="interpret the N range relative to the computed threshold",
    )
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("brasselet", help="evaluate stratified dataset identities")
    _add_input_flags(sub, with_form=False)
    sub.add_argument("--slice", help="slice kind for a Brasselet number, e.g. g or gtilde")
    sub.set_defaults(func=cmd_brasselet)

    sub = subs.add_parser("export-dataset", help="distill a run into a stratified dataset")
    _add_input_flags(sub, with_n=True)
    sub.add_argument("-o", "--output", help="destination file (stdout when omitted)")
    sub.set_defaults(func=cmd_export_dataset)

    sub = subs.add_parser("fixtures", help="list the bundled fixtures")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except (GermlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())
