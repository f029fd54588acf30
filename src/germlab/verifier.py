"""Deformation verifier: builds g + f^N across a sweep of exponents, certifies
isolation, and checks the deformation identities row by row.

Rows below the gap-ratio threshold are labeled OUT-OF-RANGE and evaluated for
information only; their outcomes are never asserted.  Rows at or above the
threshold must pass: a non-isolated deformation there is a hard error, and
any failing identity makes the table (and the CLI) report failure.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Sequence

from .errors import (
    DegenerateBranchError,
    ExponentRangeError,
    GenericityError,
    GermlabError,
    HypothesisError,
    UndefinedLeError,
)
from .ideals import Budget, IdealPresentation, as_budget, dim_at_origin, quotient_dim_local
from .invariants import (
    BranchParam,
    branch_slice_milnor,
    jacobian_ideal,
    local_degree,
    milnor_number,
    restrict_to_hyperplane,
    stable_along_branch,
    translate,
    validate_branch,
)
from .le import LeData, euler_char_fibre, le_numbers
from .polar import (
    GapReport,
    PolarCurve,
    gap_ratios,
    intersection_number,
    iomdin_threshold,
    relative_polar_ideal,
)
from .rings import Poly, PolyRing
from .scenario import N_MAX, Scenario
from .stratified import BranchTableRow, IdentityVerdict, StratifiedDataset, StratumRecord

MAX_LADDER_ATTEMPTS = 16
SCHEMA_VERSION = "2"


def generic_linear_candidates(ring, attempts: int = MAX_LADDER_ATTEMPTS):
    """Deterministic ladder of candidate generic linear forms.

    Attempt k uses coefficients 1, 1 + (k+1), 1 + 2(k+1), ...; randomness is
    never used, so reruns pick identical forms.
    """
    for k in range(attempts):
        form = ring.zero()
        for i in range(ring.nvars):
            form = form + ring.variable(i) * (1 + i * (k + 1))
        yield form


@dataclass(frozen=True)
class HypothesisChecks:
    """Results of the deformation-case hypotheses; require_hypotheses
    enforces all three."""

    sigma_dim: int
    sigma_meets_f_only_at_origin: bool
    f_isolated: bool


@dataclass(frozen=True)
class DeformationCase:
    """One deformation g_tilde = g + f^N with its isolation certificate."""

    g: Poly
    f: Poly
    n: int
    g_tilde: Poly
    certificate: int | None  # local Jacobian quotient dimension, None = infinite
    threshold: int
    hypotheses: HypothesisChecks

    @property
    def chi_gtilde(self) -> int | None:
        """Euler characteristic of the Milnor fibre of g_tilde; None when the
        deformation is not isolated."""
        if self.certificate is None:
            return None
        return 1 + _sign(self.g.ring.nvars - 1) * self.certificate


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def check_hypotheses(g: Poly, f: Poly, cap=None) -> HypothesisChecks:
    budget = as_budget(cap)
    jac_g = jacobian_ideal(g)
    sigma_dim = dim_at_origin(jac_g, budget)
    meets = dim_at_origin(jac_g.plus([f]), budget) <= 0
    f_isolated = dim_at_origin(jacobian_ideal(f), budget) <= 0
    return HypothesisChecks(sigma_dim, meets, f_isolated)


def require_hypotheses(g: Poly, f: Poly, cap=None) -> HypothesisChecks:
    """The N-independent case hypotheses; HypothesisError when a hard one fails."""
    hypotheses = check_hypotheses(g, f, cap)
    if hypotheses.sigma_dim > 1:
        raise HypothesisError("sigma-dimension", f"critical locus has dimension {hypotheses.sigma_dim}")
    if not hypotheses.sigma_meets_f_only_at_origin:
        raise HypothesisError(
            "sigma-meets-f", "the critical locus of g meets {f = 0} outside the origin"
        )
    if not hypotheses.f_isolated:
        raise HypothesisError("f-isolated", "f does not have an isolated singularity at the origin")
    return hypotheses


def assemble_deformation(
    g: Poly,
    f: Poly,
    n: int,
    f_power: Poly,
    threshold: int,
    hypotheses: HypothesisChecks,
    cap=None,
) -> DeformationCase:
    """g + f^N, given f_power = f^N, with its isolation certificate;
    HypothesisError when it is not isolated although n reached the threshold."""
    if n < 2:
        raise ValueError("the deformation exponent must be at least 2")
    g_tilde = g + f_power
    certificate = quotient_dim_local(jacobian_ideal(g_tilde), cap)
    if certificate is None and n >= threshold:
        raise HypothesisError(
            "isolation-at-threshold",
            f"g + f^{n} has a non-isolated singularity although n >= threshold {threshold}",
        )
    return DeformationCase(g, f, n, g_tilde, certificate, threshold, hypotheses)


def build_deformation(g: Poly, f: Poly, n: int, threshold: int | None = None, cap=None) -> DeformationCase:
    """Assemble g + f^N after checking the case hypotheses, in one call."""
    budget = as_budget(cap)
    hypotheses = require_hypotheses(g, f, budget)
    if threshold is None:
        threshold = iomdin_threshold(f, g, cap=budget)
    return assemble_deformation(g, f, n, f**n, threshold, hypotheses, budget)


@dataclass(frozen=True)
class BranchTerm:
    """Per-branch data entering the identity sums: the local degree of f and
    the Milnor number of the slice of g at a branch point."""

    name: str
    multiplicity: int
    local_degree: int
    slice_milnor: int


def branch_terms(g: Poly, f: Poly, branches: Sequence[BranchParam], cap=None) -> tuple[BranchTerm, ...]:
    budget = as_budget(cap)
    terms = []
    for b in branches:
        m = local_degree(f, b)
        mu = branch_slice_milnor(g, f, b, budget)
        terms.append(BranchTerm(b.name, b.multiplicity, m, mu))
    return tuple(terms)


def branch_sum(terms: Sequence[BranchTerm]) -> int:
    """B = sum m_b d_b mu_b, the one branch sum of the deformation formula."""
    return sum(t.multiplicity * t.local_degree * t.slice_milnor for t in terms)


def _no_terms_note(case: DeformationCase) -> str:
    if case.f.is_linear_form:
        return "the critical locus is a curve but no sigma branches are declared"
    return "branch slice data needs a linear deformation direction"


def _compared(name: str, left, right, note: str = "") -> IdentityVerdict:
    return IdentityVerdict(name, "PASS" if left == right else "FAIL", left=left, right=right, note=note)


def verify_le_number_identity(case: DeformationCase, le: LeData) -> IdentityVerdict:
    """mu of the deformation against lambda0 + (N-1) * lambda1."""
    if not case.f.is_linear_form:
        return IdentityVerdict("massey", "SKIPPED", note="needs a linear deformation direction")
    if case.certificate is None:
        return IdentityVerdict("massey", "SKIPPED", note="deformation is not isolated")
    return _compared("massey", case.certificate, le.lambda0 + (case.n - 1) * le.lambda1)


def verify_branch_sum_identities(
    case: DeformationCase, chi_g: int, terms: Sequence[BranchTerm] | None
) -> tuple[tuple[IdentityVerdict, ...], int | None, int | None]:
    """The deformation formula chi(F_g~) = chi(F_g) + (-1)^(v-1) N B, with the
    branch sum B = sum m_b d_b mu_b computed once, in three presentations:
    chi compares the fibre Euler characteristics, tibar their difference
    (stated for a generic linear form), and morse the Morse-count jump
    n~ - n read off the chi values against its expansion N B.  B is
    branch_sum(terms).

    Returns the chi, tibar and morse verdicts with the Morse defect n - n~
    and the expansion, both None when morse is skipped.
    """
    if terms is None:
        skip = _no_terms_note(case)
    elif case.chi_gtilde is None:
        skip = "deformation is not isolated"
    else:
        skip = None
    tibar_skip = skip if case.f.is_linear_form else "stated for a generic linear form"
    if skip is not None:
        notes = (("chi", skip), ("tibar", tibar_skip), ("morse", skip))
        return tuple(IdentityVerdict(name, "SKIPPED", note=note) for name, note in notes), None, None
    sign = _sign(case.g.ring.nvars - 1)
    expansion = case.n * branch_sum(terms)
    jump = case.chi_gtilde - chi_g
    verdicts = (
        _compared("chi", case.chi_gtilde, chi_g + sign * expansion),
        _compared("tibar", jump, sign * expansion)
        if tibar_skip is None
        else IdentityVerdict("tibar", "SKIPPED", note=tibar_skip),
        _compared("morse", sign * jump, expansion, "n~ - n via chi defect vs branch expansion"),
    )
    return verdicts, -sign * jump, expansion


def verify_gap_stability(
    case: DeformationCase, polar: PolarCurve, left: int | None, cap=None
) -> IdentityVerdict:
    """Intersection of the polar curve with V(g) against V(g + f^N).

    left is the g-side number, intersection_number(polar, case.g), which does
    not depend on N (None for an empty polar curve).
    """
    if polar.is_empty:
        return IdentityVerdict("polar_stability", "SKIPPED", note="empty polar curve")
    try:
        right = intersection_number(polar, case.g_tilde, cap)
    except GermlabError as exc:
        return IdentityVerdict("polar_stability", "FAIL", left=left, right=str(exc))
    return _compared("polar_stability", left, right)


@dataclass(frozen=True)
class SweepRow:
    n: int
    in_range: bool
    certificate: int | None
    chi_gtilde: int | None
    verdicts: tuple[IdentityVerdict, ...]
    morse_defect: int | None
    morse_expansion: int | None

    @property
    def ok(self) -> bool:
        return self.certificate is not None and all(
            v.status != "FAIL" for v in self.verdicts
        )


@dataclass
class VerdictTable:
    scenario: str
    variables: tuple[str, ...]
    g: str
    f: str
    threshold: int
    le: LeData
    chi_g: int
    terms: tuple[BranchTerm, ...] | None
    rows: list[SweepRow] = field(default_factory=list)
    defaults: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Every asserted row passed, and at least one row was asserted."""
        asserted = [row for row in self.rows if row.in_range]
        return bool(asserted) and all(row.ok for row in asserted)

    def to_json_dict(self) -> dict:
        def verdict_dict(v: IdentityVerdict) -> dict:
            out: dict[str, Any] = {"name": v.name, "status": v.status}
            if v.left is not None:
                out["left"] = v.left
            if v.right is not None:
                out["right"] = v.right
            if v.note:
                out["note"] = v.note
            return out

        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "verdict-table",
            "scenario": self.scenario,
            "variables": list(self.variables),
            "g": self.g,
            "f": self.f,
            "threshold": self.threshold,
            "lambda0": self.le.lambda0,
            "lambda1": self.le.lambda1,
            "chi_fibre_g": self.chi_g,
            "branch_terms": None
            if self.terms is None
            else [
                {
                    "name": t.name,
                    "multiplicity": t.multiplicity,
                    "local_degree": t.local_degree,
                    "slice_milnor": t.slice_milnor,
                }
                for t in self.terms
            ],
            "defaults": self.defaults,
            "ok": self.ok,
            "rows": [
                {
                    "N": row.n,
                    "asserted": row.in_range,
                    "range_label": "IN-RANGE" if row.in_range else "OUT-OF-RANGE",
                    "mu_gtilde": "INFINITE" if row.certificate is None else row.certificate,
                    "chi_gtilde": row.chi_gtilde,
                    "morse_defect": row.morse_defect,
                    "morse_expansion": row.morse_expansion,
                    "verdicts": [verdict_dict(v) for v in row.verdicts],
                }
                for row in self.rows
            ],
        }

    def to_text(self) -> str:
        lines = [
            f"scenario {self.scenario}: g = {self.g}, f = {self.f}",
            f"lambda = ({self.le.lambda0}, {self.le.lambda1}), chi(F_g) = {self.chi_g}, "
            f"threshold = {self.threshold}",
        ]
        for row in self.rows:
            mu = "INFINITE" if row.certificate is None else row.certificate
            label = "" if row.in_range else "  [OUT-OF-RANGE, informational]"
            lines.append(f"N = {row.n}: mu(g~) = {mu}{label}")
            for v in row.verdicts:
                sides = ""
                if v.left is not None or v.right is not None:
                    sides = f"  left={v.left} right={v.right}"
                note = f"  ({v.note})" if v.note else ""
                lines.append(f"    {v.name:<16} {v.status}{sides}{note}")
        if not any(row.in_range for row in self.rows):
            overall = f"NOTHING ASSERTED (every N below threshold {self.threshold})"
        else:
            overall = "PASS" if self.ok else "FAIL"
        lines.append(f"overall: {overall}")
        return "\n".join(lines)


def resolve_linear_form(scenario: Scenario, cap=None) -> tuple[Poly, LeData]:
    """The scenario's deformation direction and the Le data computed with it.

    An explicit linear f is used as given and doubles as the coordinate form.
    Otherwise the Le numbers come from the first rung of the deterministic
    ladder that passes every genericity check, and that form is also the
    direction when the scenario requests GENERIC-LINEAR.
    """
    assert scenario.ring is not None and scenario.g is not None
    budget = as_budget(cap)
    g = scenario.g
    sigma_branches = tuple(b for b in scenario.branches if b.host == "sigma")
    if scenario.f is not None and scenario.f.is_linear_form:
        return scenario.f, le_numbers(g, scenario.f, sigma_branches, budget)

    last_error: Exception | None = None
    for candidate in generic_linear_candidates(scenario.ring):
        try:
            if dim_at_origin(jacobian_ideal(g).plus([candidate]), budget) > 0:
                raise GenericityError("candidate form contains a critical branch")
            le = le_numbers(g, candidate, sigma_branches, budget)
            return scenario.f if scenario.f is not None else candidate, le
        except (UndefinedLeError, DegenerateBranchError, GenericityError) as exc:
            last_error = exc
    raise GenericityError(f"generic linear ladder exhausted: {last_error}")


class ScenarioContext:
    """The N-independent data of one run on a polynomial scenario.

    The Le numbers, chi(F_g), the polar curve of (f, g) with its gap report,
    the case hypotheses and the branch terms belong to the pair (f, g); only
    case(n) depends on the exponent.  Each is computed on first read and
    kept, and all spend from the run's one budget of limits.reduction_cap
    steps.  A caller pays only for what it reads, in the order it reads it,
    so that order also fixes which error a bad input hits first.
    """

    def __init__(self, scenario: Scenario):
        if scenario.ring is None or scenario.g is None:
            raise GermlabError("this command needs a polynomial scenario (variables and g)")
        self.scenario = scenario
        self.ring: PolyRing = scenario.ring
        self.g: Poly = scenario.g
        self.budget = Budget(scenario.limits.reduction_cap)
        self._f_power: tuple[int, Poly] | None = None  # the last (k, f^k) of case()

    def _hosted(self, host: str) -> tuple[BranchParam, ...]:
        return tuple(b for b in self.scenario.branches if b.host == host)

    @cached_property
    def _resolved(self) -> tuple[Poly, LeData]:
        return resolve_linear_form(self.scenario, self.budget)

    @cached_property
    def f(self) -> Poly:
        """The scenario's f; for GENERIC-LINEAR, the ladder form of the Le numbers."""
        return self.scenario.f if self.scenario.f is not None else self._resolved[0]

    @cached_property
    def le(self) -> LeData:
        return self._resolved[1]

    @cached_property
    def chi_g(self) -> int:
        return euler_char_fibre(self.g, self.le)

    @cached_property
    def sigma_branches(self) -> tuple[BranchParam, ...]:
        """The declared branches of the critical locus, each checked against Jac(g)."""
        branches = self._hosted("sigma")
        jac_g = jacobian_ideal(self.g)
        for b in branches:
            check = validate_branch(b, jac_g)
            if not check:
                gen, order = check.violation or ("?", -1)
                raise GermlabError(
                    f"branch {b.name!r} is not on the critical locus: generator {gen} "
                    f"vanishes only to order {order}"
                )
        return branches

    @cached_property
    def polar(self) -> PolarCurve:
        return relative_polar_ideal(self.f, self.g, self._hosted("polar"), self.budget)

    @cached_property
    def gap(self) -> GapReport:
        return gap_ratios(self.f, self.g, self.polar, self.budget)

    @cached_property
    def hypotheses(self) -> HypothesisChecks:
        return require_hypotheses(self.g, self.f, self.budget)

    @cached_property
    def terms(self) -> tuple[BranchTerm, ...] | None:
        """Branch terms for the identity sums; None when f is not linear or the
        critical locus is a curve with no declared branch (an empty sum is not 0)."""
        branches, sigma_dim = self.sigma_branches, self.hypotheses.sigma_dim
        if not self.f.is_linear_form or (sigma_dim == 1 and not branches):
            return None
        return branch_terms(self.g, self.f, branches, self.budget)

    def case(self, n: int) -> DeformationCase:
        """g + f^n with its isolation certificate.  The case hypotheses are
        read before the polar curve whose gap report sets the threshold.

        A sweep asks for increasing n, so the last power f^k is kept and
        extended by n - k multiplications by f; only the first call, or one
        with a smaller n, raises f to the full power.
        """
        hypotheses = self.hypotheses
        threshold = self.gap.threshold
        if self._f_power is None or self._f_power[0] > n:
            self._f_power = (n, self.f**n)
        k, power = self._f_power
        for _ in range(n - k):
            power = power * self.f
        self._f_power = (n, power)
        return assemble_deformation(self.g, self.f, n, power, threshold, hypotheses, self.budget)


def verify_scenario(
    scenario: Scenario,
    n_range: tuple[int, int] | None = None,
    relative_to_threshold: bool = False,
) -> VerdictTable:
    """Run the whole pipeline on a scenario and assemble the verdict table.

    Everything that does not depend on N is read once from the run's
    ScenarioContext, and the sweep rows share its one budget.

    With relative_to_threshold the sweep runs over threshold .. threshold +
    (hi - lo) regardless of the requested bounds, which keeps fixture sweeps
    aligned with their thresholds; past N_MAX it raises ExponentRangeError.
    """
    ctx = ScenarioContext(scenario)
    f, le, chi_g = ctx.f, ctx.le, ctx.chi_g
    ctx.sigma_branches  # validate the declared branches before the polar curve
    threshold = ctx.gap.threshold

    lo, hi = n_range if n_range is not None else scenario.n_range
    if relative_to_threshold:
        span = hi - lo
        lo, hi = threshold, threshold + span
        if hi > N_MAX:
            raise ExponentRangeError(
                f"the sweep shifted to the threshold, {lo}..{hi} (threshold {threshold} "
                f"plus span {span}), passes N_MAX = {N_MAX}"
            )
    terms = ctx.terms

    def make_row(n: int) -> SweepRow:
        case = ctx.case(n)
        sums, defect, expansion = verify_branch_sum_identities(case, chi_g, terms)
        verdicts = (
            verify_le_number_identity(case, le),
            *sums,
            verify_gap_stability(case, ctx.polar, ctx.gap.g_intersection, ctx.budget),
        )
        return SweepRow(
            n=n,
            in_range=n >= threshold,
            certificate=case.certificate,
            chi_gtilde=case.chi_gtilde,
            verdicts=verdicts,
            morse_defect=defect,
            morse_expansion=expansion,
        )

    return VerdictTable(
        scenario=scenario.name,
        variables=ctx.ring.variables,
        g=str(ctx.g),
        f=str(f),
        threshold=threshold,
        le=le,
        chi_g=chi_g,
        terms=terms,
        rows=[make_row(n) for n in range(lo, hi + 1)],
        defaults={"N": list(scenario.n_range), "limits": asdict(scenario.limits)},
    )


# ---------------------------------------------------------------------------
# dataset export
# ---------------------------------------------------------------------------


def _slice_milnor_at_origin(g: Poly, form: Poly, cap=None) -> int | None:
    """Milnor number of g restricted to {form = 0}; None when non-isolated."""
    restricted = restrict_to_hyperplane(g, form)
    restricted = restricted - restricted.constant_term()
    if restricted.is_zero or dim_at_origin(jacobian_ideal(restricted), cap) > 0:
        return None
    return milnor_number(restricted, cap)


def _certify_slice_generic(g: Poly, f: Poly, g_tilde: Poly, mu_h: int | None, cap=None) -> bool:
    """Whether the f-hyperplane slices of g and of the deformation carry the
    same Milnor numbers as slices by a ladder-generic form.

    mu_h is the Milnor number of the f-slice of g (None when non-isolated).
    It is also that of the f-slice of the deformation, since f^N restricts
    to 0 on {f = 0}.

    This is the gate for exporting Euler obstructions (quantities defined
    through generic hyperplanes) out of f-slice data: a special direction
    like f = x - y against x^2*y^2 - (x-y)^2 inflates the slice invariants
    and would plant wrong absolute values.
    """
    for candidate in generic_linear_candidates(g.ring):
        if candidate == f:
            return True
        via_l = _slice_milnor_at_origin(g, candidate, cap)
        if via_l is None:
            continue  # unlucky ladder rung, try the next form
        if mu_h != via_l:
            return False
        return mu_h == _slice_milnor_at_origin(g_tilde, candidate, cap)
    return False


def export_dataset(scenario: Scenario, n: int | None = None) -> StratifiedDataset:
    """Distill a verified deformation run at one exponent into stratified data.

    Without n the exponent is the lowest N of the scenario's range at or above
    the threshold, or the range's lowest N when the whole range lies below it;
    the exported dataset records it as known["N"].

    Every exported number has an honest route: Euler characteristics come from
    the Le pair and the deformation's Milnor number, Morse counts from polar
    intersection numbers, restriction values from slice Milnor numbers, and
    Euler obstructions either from curve multiplicities (two variables) or
    from transverse slice data once the f-direction is certified to behave
    generically (three variables).  Quantities without a sound route for the
    scenario at hand are omitted, which downgrades the identities that need
    them to SKIPPED.
    """
    ctx = ScenarioContext(scenario)
    budget = ctx.budget
    g, f, chi_g = ctx.g, ctx.f, ctx.chi_g
    v = ctx.ring.nvars

    if n is None:
        ctx.hypotheses  # read before the polar curve, as case(n) reads them
        threshold = ctx.gap.threshold
        lo, hi = scenario.n_range
        n = max(lo, threshold) if threshold <= hi else lo
    case = ctx.case(n)
    chi_gtilde = case.chi_gtilde
    if chi_gtilde is None:
        raise HypothesisError("isolation", f"g + f^{n} is not isolated; export needs an isolated deformation")

    # require_hypotheses required f to be isolated, so its Milnor number exists
    chi_f_fibre = 1 + _sign(v - 1) * milnor_number(f, budget)

    terms = ctx.terms

    chi = {"g": chi_g, "gtilde": chi_gtilde, "l": 1, "f": chi_f_fibre}
    strata = (
        StratumRecord("origin", 0, 1, {}, frozenset()),
        StratumRecord("regular", v, 1, chi, frozenset()),
    )

    known: dict[str, int] = {
        "d": v,
        "N": n,
        "eu_X_0": 1,
        "B_g_X_0": chi_g,
        "B_gtilde_X_0": chi_gtilde,
    }

    known["m"] = 0 if ctx.polar.is_empty else intersection_number(ctx.polar, f, budget)
    deformed_polar = relative_polar_ideal(f, case.g_tilde, cap=budget)
    known["m_tilde"] = (
        0 if deformed_polar.is_empty else intersection_number(deformed_polar, f, budget)
    )

    mu_h = _slice_milnor_at_origin(g, f, budget) if f.is_linear_form else None
    certified = f.is_linear_form and _certify_slice_generic(g, f, case.g_tilde, mu_h, budget)

    rows: tuple[BranchTableRow, ...] | None = None
    if terms is not None:
        row_list = []
        for b, t in zip(ctx.sigma_branches, terms):
            chi_f_j = 1 + _sign(v - 2) * t.slice_milnor
            fields: dict[str, int] = {
                "m_f": t.local_degree,
                "eu_X_b": 1,
                "B_g_f_fibre": chi_f_j,
                "eu_g_f_fibre": 1 - chi_f_j,
                "eu_f_gtilde_fibre": _sign(v - 1) * t.slice_milnor,
                "B_f_gtilde_fibre": chi_f_j,
            }
            if v == 3 and t.local_degree == 1:
                # the f-slice meets the branch transversally, so its germ is
                # a transverse curve slice and the obstruction is its
                # multiplicity
                fields["eu_Xg_b"] = _transverse_multiplicity(g, f, b)
            row_list.append(BranchTableRow(b.name, **fields))
        rows = tuple(row_list)

    if mu_h is not None:
        # g and its deformation agree on {f = 0}, so one slice Milnor
        # number covers both restriction values; the swap value comes from
        # the partial-smoothing route for the f-slice of the deformed
        # hypersurface, which is smooth off the origin
        chi_slice = 1 + _sign(v - 2) * mu_h
        known["B_g_Xf_0"] = chi_slice
        known["B_gtilde_Xf_0"] = chi_slice
        known["B_f_Xgtilde_0"] = chi_slice
        if v == 2 and rows == () and case.hypotheses.sigma_dim <= 0:
            # reduced plane curves: obstructions are germ multiplicities
            # and the Brasselet numbers of f count slice points exactly
            known["eu_Xg_0"] = g.min_degree()
            known["eu_Xgtilde_0"] = case.g_tilde.min_degree()
            known["B_f_Xg_0"] = intersection_number(
                IdealPresentation(g.ring, [g]), f, budget
            )
            known["B_f_Xgtilde_0"] = intersection_number(
                IdealPresentation(g.ring, [case.g_tilde]), f, budget
            )
        elif v == 3 and certified and rows is not None and all(
            r.eu_Xg_b is not None for r in rows
        ):
            # chi of the hyperplane slice of the g-hypersurface: the
            # generic-slice value corrected by the vanishing cycles at the
            # branch points, then reweighted by the per-branch Euler
            # obstructions
            known["eu_Xgtilde_0"] = chi_slice
            link_chi = chi_slice - _sign(v - 2) * branch_sum(terms or ())
            eu_xg = link_chi
            for r, t in zip(rows, terms or ()):
                assert r.eu_Xg_b is not None
                eu_xg += t.multiplicity * t.local_degree * (r.eu_Xg_b - 1)
            known["eu_Xg_0"] = eu_xg
            known["B_f_Xg_0"] = eu_xg

    dataset = StratifiedDataset(
        strata=strata,
        branch_table=rows,
        known=known,
        f_is_linear=certified,
    )
    dataset.validate()
    return dataset


def _transverse_multiplicity(g: Poly, f: Poly, branch: BranchParam) -> int:
    """Multiplicity of the transverse slice germ of {g = 0} at a branch point:
    the minimal total degree of g translated to the point and restricted to
    the f-hyperplane through it, stabilized along the same tau-halving ladder
    as the slice Milnor numbers."""

    def at(tau: Fraction) -> int:
        point = branch.point_at(tau)
        sliced = restrict_to_hyperplane(translate(g, point), f)
        return (sliced - sliced.constant_term()).min_degree()

    return stable_along_branch("transverse multiplicity", branch, at)
