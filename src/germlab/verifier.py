"""Deformation verifier: builds g + f^N across a sweep of exponents, certifies
isolation, and checks the deformation identities row by row.

A ScenarioContext holds the N-independent data of the pair (f, g): the case
hypotheses (check_hypotheses, the one check of them), the Le numbers, the
polar curve and its threshold.  Only its mu(n) and polar_intersection(n)
depend on the exponent, so the hypotheses and the threshold are computed
once per run, not once per exponent.

Rows below the gap-ratio threshold are labeled OUT-OF-RANGE and evaluated for
information only; their outcomes are never asserted.  Rows at or above the
threshold must pass: a non-isolated deformation there is a hard error, and
any failing identity makes the table (and the CLI) report failure.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from .errors import (
    ComponentMismatchError,
    DegenerateBranchError,
    ExponentRangeError,
    GenericityError,
    GermlabError,
    HypothesisError,
    ImproperIntersectionError,
    UndefinedLeError,
)
from .ideals import Budget, IdealPresentation, as_budget, dim_at_origin, quotient_dim_local
from .ideals import StandardBasis, _complete, _integral, _packed, _primitive
from .invariants import (
    BranchParam,
    BranchTerm,
    _solve_for_pivot,
    critical_locus,
    jacobian_ideal,
    linear_part,
    milnor_number,
    slice_germ,
    transverse_multiplicity,
    validate_branch,
)
from .le import LeData, euler_char_fibre, le_numbers
from .polar import (
    GapReport,
    PolarCurve,
    checked_intersection,
    deformed_order,
    deformed_polar_ideal,
    gap_ratios,
    intersection_number,
    relative_polar_ideal,
)
from .orders import LOCAL
from .rings import Poly, PolyRing, _muladd, jacobian
from .scenario import N_MAX, Scenario
from .stratified import (
    EMPTY_MAPPING,
    BranchTableRow,
    IdentityVerdict,
    StratifiedDataset,
    StratumRecord,
    compared,
    parity_sign,
)

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


def check_hypotheses(g: Poly, f: Poly, cap=None) -> int:
    """The N-independent case hypotheses; returns the dimension of the
    critical locus of g.

    Computes that locus with its meeting with {f = 0}, and whether f is
    isolated, then raises HypothesisError when the locus has dimension above
    1, meets {f = 0} outside the origin, or f is not isolated.
    """
    budget = as_budget(cap)
    locus = critical_locus(g, f, budget)
    f_isolated = dim_at_origin(jacobian_ideal(f), budget) <= 0
    if locus.dim > 1:
        raise HypothesisError("sigma-dimension", f"critical locus has dimension {locus.dim}")
    if not locus.meets_f_only_at_origin:
        raise HypothesisError(
            "sigma-meets-f", "the critical locus of g meets {f = 0} outside the origin"
        )
    if not f_isolated:
        raise HypothesisError("f-isolated", "f does not have an isolated singularity at the origin")
    return locus.dim


def _le_iomdin_rows(ctx: ScenarioContext) -> Callable:
    """The Le-Iomdin formula on the rows of one run, as a routine of N and
    mu(g~) (None when g~ is not isolated) that returns the massey, chi, tibar
    and morse verdicts with the Morse defect n - n~ and the expansion N B,
    both None when g~ is not isolated.  massey compares mu(g~) against
    lambda0 + (N-1) lambda1, which needs a linear f, the form of the Le
    numbers.  chi, tibar and morse check chi(F_g~) = chi(F_g) + (-1)^(v-1) N B
    as the fibre Euler characteristics, their difference, and the Morse-count
    jump n~ - n read off the chi values.  B is the run's branch sum (see
    ScenarioContext.branch_sum), read on the first isolated row.
    """
    linear, le, chi_g = ctx.f.is_linear_form, ctx.le, ctx.chi_g
    names = ("massey", "chi", "tibar", "morse")
    skipped = tuple(IdentityVerdict(name, "SKIPPED", note="deformation is not isolated") for name in names)
    no_massey = IdentityVerdict("massey", "SKIPPED", note="needs a linear deformation direction")
    sign = parity_sign(ctx.ring.nvars - 1)

    def row(n: int, mu: int | None) -> tuple[tuple[IdentityVerdict, ...], int | None, int | None]:
        if mu is None:
            return skipped, None, None
        massey = compared("massey", mu, le.lambda0 + (n - 1) * le.lambda1) if linear else no_massey
        expansion, jump = n * ctx.branch_sum, 1 + sign * mu - chi_g  # chi(F_g~) - chi(F_g)
        return (
            massey,
            compared("chi", chi_g + jump, chi_g + sign * expansion),
            compared("tibar", jump, sign * expansion),
            compared("morse", sign * jump, expansion, "n~ - n via chi defect vs branch expansion"),
        ), -sign * jump, expansion

    return row


def verify_gap_stability(n: int, ctx: ScenarioContext) -> IdentityVerdict:
    """Intersection of the polar curve with V(g) against V(g + f^N).

    The g-side number is gap.g_intersection, which does not depend on N
    (None for an empty polar curve).  The g + f^N side is the run's packed
    intersection number (see ScenarioContext.polar_intersection), checked
    on the polar components against orders read from the images of g and f
    that the gap report holds (see deformed_order), so a row composes no
    polynomial on a branch, and builds g + f^N only for an error message.
    A component mismatch or an improper intersection is the verdict's
    FAIL; any other error, a spent budget among them, ends the run.
    """
    polar, gap = ctx.polar, ctx.gap
    left = gap.g_intersection
    if polar.is_empty:
        return IdentityVerdict("polar_stability", "SKIPPED", note="empty polar curve")
    total = ctx.polar_intersection(n)
    orders = [deformed_order(g_image, f_image, n) for g_image, f_image in gap.images]
    try:
        right = checked_intersection(polar, lambda: ctx.g + ctx.f**n, total, orders)
    except (ComponentMismatchError, ImproperIntersectionError) as exc:
        return IdentityVerdict("polar_stability", "FAIL", left=left, right=str(exc))
    return compared("polar_stability", left, right)


class SweepRow(NamedTuple):
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


class VerdictTable(NamedTuple):
    scenario: str
    variables: tuple[str, ...]
    g: str
    f: str
    threshold: int
    le: LeData
    chi_g: int
    terms: tuple[BranchTerm, ...] | None
    rows: Sequence[SweepRow] = ()
    defaults: Mapping[str, Any] = EMPTY_MAPPING

    def _checked(self) -> bool:
        """Whether some asserted row holds a verdict that is not SKIPPED."""
        return any(v.status != "SKIPPED" for row in self.rows if row.in_range for v in row.verdicts)

    @property
    def ok(self) -> bool:
        """Every asserted row passed, and something was checked: a sweep
        with no asserted row, or whose asserted verdicts are all SKIPPED,
        fails."""
        return self._checked() and all(row.ok for row in self.rows if row.in_range)

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
            "defaults": dict(self.defaults),
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
        elif not self._checked():
            overall = "NOTHING ASSERTED (every verdict SKIPPED)"
        else:
            overall = "PASS" if self.ok else "FAIL"
        lines.append(f"overall: {overall}")
        return "\n".join(lines)


def resolve_linear_form(scenario: Scenario, cap=None) -> tuple[Poly, LeData]:
    """The scenario's deformation direction and the Le data computed with it.

    An explicit linear f is used as given and doubles as the coordinate form.
    Otherwise the Le numbers come from the first rung of the deterministic
    ladder that passes every genericity check, and that form is also the
    direction when the scenario requests GENERIC-LINEAR.  When the scenario
    declares a nonlinear f, the lambda0 line of the route log names the
    ladder form, since the numbers are not taken against f.
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
            if scenario.f is None:
                return candidate, le
            named = f"{le.route_log[0]}, against the linear form {candidate}, not the nonlinear f = {scenario.f}"
            return scenario.f, le._replace(route_log=(named, *le.route_log[1:]))
        except (UndefinedLeError, DegenerateBranchError, GenericityError) as exc:
            last_error = exc
    raise GenericityError(f"generic linear ladder exhausted: {last_error}")


class _RowKind(NamedTuple):
    """One kind of sweep row (see ScenarioContext._row): the N-independent
    base, completed under LOCAL, and the pairs (a_i, b_i) of the row
    generators a_i + s_n f'^(n - lag) b_i, each of a_i and b_i packed as
    (d*h, d) for an int d, with least_order the least ord b_i over the
    nonzero b_i.  The name keys the run's carry of this kind."""

    name: str
    base: StandardBasis
    pairs: list[tuple[tuple[dict, int], tuple[dict, int]]]
    lag: int
    least_order: int


class ScenarioContext:
    """The N-independent data of one run on a polynomial scenario.

    The Le numbers, chi(F_g), the polar curve of (f, g) with its gap report,
    the case hypotheses (sigma_dim), the polar meetings, the branch sum and
    terms belong to the pair (f, g); only mu(n) and polar_intersection(n)
    depend on the exponent.
    Each is computed on first read and kept, and all spend from the run's
    one budget of
    limits.reduction_cap steps.  A caller pays only for what it reads, in
    the order it reads it, so that order also fixes which error a bad input
    hits first.

    The sweep rows work in row coordinates.  The pivot p is the highest
    index with d_p f(0) != 0.  For a linear f = sum c_i x_i they substitute
    x_p -> (x_p - sum_{i != p} c_i x_i)/c_p and keep the variable order, so
    f becomes x_p and f^N one monomial; when f already is x_p they are the
    original ones, as they are for a nonlinear f.  A local dimension does
    not depend on the coordinates, and every polynomial, branch and witness
    that a run prints stays in the original ones.  A row's two numbers,
    mu(g + f^N) (see mu) and the polar meeting (see polar_intersection),
    come from one routine, _row, on two kinds of row (see _RowKind): each
    resumes an N-independent base, completed once per run under LOCAL, with
    row generators built from a kept power of f', and past its determinacy
    point reuses the number of an earlier row, its carry.  The carries
    belong to the run: they are not options, and no other run reads them.
    """

    def __init__(self, scenario: Scenario):
        if scenario.ring is None or scenario.g is None:
            raise GermlabError("this command needs a polynomial scenario (variables and g)")
        self.scenario = scenario
        self.ring: PolyRing = scenario.ring
        self.g: Poly = scenario.g
        self.budget = Budget(scenario.limits.reduction_cap)
        self._f_power_kept: tuple[int, dict, int] | None = None  # the last (k, d*f'^k, d) of _f_power
        # per row kind, the (m, number) of the row past whose exponent m later rows reuse its number
        self._carries: dict[str, tuple[int, int] | None] = {}

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
            violation = validate_branch(b, jac_g)
            if violation is not None:
                gen, order = violation
                raise GermlabError(
                    f"branch {b.name!r} is not on the critical locus: generator {gen} "
                    f"vanishes only to order {order}"
                )
        return branches

    @cached_property
    def polar(self) -> PolarCurve:
        """The relative polar curve of (f, g).  One variable is refused: there
        no 2x2 minor exists, so the polar locus is the whole line, which is
        no polar curve although it has dimension 1."""
        if self.ring.nvars < 2:
            raise GermlabError(
                f"the relative polar curve needs at least two variables, and the ring has only "
                f"{self.ring.variables[0]}"
            )
        return relative_polar_ideal(self.f, self.g, self._hosted("polar"), self.budget)

    @cached_property
    def gap(self) -> GapReport:
        return gap_ratios(self.f, self.g, self.polar, self.budget)

    @cached_property
    def _pivot(self) -> tuple[int | None, list[Poly] | None]:
        """The pivot p, the highest index with d_p f(0) != 0 (None when f
        has no linear part), and the images of the variables that give the
        row coordinates (None when those are the original ones)."""
        ring, f = self.ring, self.f
        coeffs, p = linear_part(f)
        if p is None or not f.is_linear_form or f == ring.variable(p):
            return p, None
        others = [ring.variable(i) for i in range(ring.nvars) if i != p]
        return p, _solve_for_pivot(coeffs, p, others, ring.variable(p))

    def _in_row_coordinates(self, h: Poly) -> Poly:
        images = self._pivot[1]
        return h if images is None else h.substitute(self.ring, images)

    @cached_property
    def _row_germs(self) -> tuple[Poly, Poly]:
        """g' and f', the germs in the row coordinates."""
        return self._in_row_coordinates(self.g), self._in_row_coordinates(self.f)

    @cached_property
    def _row_f(self) -> tuple[dict, int, int]:
        """(d*f', d) packed under LOCAL for an int d, and ord f'."""
        pk = LOCAL._packing(self.ring.nvars)
        f, den = _packed(self._row_germs[1], pk)
        return f, den, min(map(pk.degree, f))

    def _row_kind(self, name: str, gens: Sequence[Poly], pairs: Sequence[tuple[Poly, Poly]], lag: int) -> _RowKind:
        """The row kind with the base gens, completed once per run (the run's
        Budget returns a basis it already completed, see Budget.completed),
        and the pairs (a_i, b_i), packed once per run."""
        pk = LOCAL._packing(self.ring.nvars)
        base = self.budget.completed(self.ring, LOCAL, [_integral(h, pk) for h in gens if not h.is_zero])
        packed = [(_packed(a, pk), _packed(b, pk)) for a, b in pairs]
        least = min(pk.degree(m) for _, (b, _) in packed for m in b)
        return _RowKind(name, base, packed, lag, least)

    @cached_property
    def _jacobian_rows(self) -> _RowKind:
        """Jac(g' + f'^n).  Since d_p f' is a unit in the local ring,

            Jac(g' + f'^n) = (d_p f' d_i g' - d_i f' d_p g' : i != p) + (d_p g' + n f'^(n-1) d_p f'),

        so the base is those p-minors, which are (d_i g')_{i != p} for a
        linear f, and the one pair is (d_p g', d_p f').  When f has no linear
        part there is no pivot, the base is empty, and the pairs are (d_i
        g', d_i f') for every i.  The lag is 1, by the chain rule."""
        p = self._pivot[0]
        nvars = self.ring.nvars
        dg, df = (jacobian(h) for h in self._row_germs)
        minors = [] if p is None else [df[p] * dg[i] - df[i] * dg[p] for i in range(nvars) if i != p]
        rows = range(nvars) if p is None else (p,)
        return self._row_kind("jacobian", minors, [(dg[i], df[i]) for i in rows], 1)

    @cached_property
    def _polar_rows(self) -> _RowKind:
        """The polar meeting P + (g' + f'^n): the base is the polar ideal P in
        the row coordinates, and the one pair is (g', 1), with lag 0."""
        gens = [self._in_row_coordinates(h) for h in self.polar.ideal.generators]
        return self._row_kind("polar", gens, [(self._row_germs[0], self.ring.one())], 0)

    def _row(self, rows: _RowKind, n: int) -> int | None:
        """The local quotient dimension of row n's ideal I_n of the kind
        rows: its base B resumed with the generators h_n,i = a_i + s_n
        f'^(n-l) b_i for the lag l and s_n = n!/(n-l)!, built on ints from
        the kept power of f' (see _f_power), or the number carried from an
        earlier row, which builds nothing.

        Past the determinacy point a row reuses the number (Nakayama's lemma
        with the highest corner, Greuel-Pfister, A Singular Introduction to
        Commutative Algebra, 1.7 and 7.2).  For N > m, h_N,i - h_m,i = b_i
        f'^(m-l) (s_N f'^(N-m) - s_m), and the last factor is a unit, so that
        difference has order (m-l) ord f' + ord b_i exactly.  Let row m be
        computed with a finite number and highest corner D (m^D inside I_m)
        and have (m-l) ord f' + min_i ord b_i >= D + 1.  Then for N >= m, I_N
        lies in I_m + m^(D+1), which is I_m, and I_m lies in I_N + m^(D+1),
        inside I_N + m I_m, so I_m lies in I_N by Nakayama: I_N = I_m, and
        row N returns the number of row m with no completion.  Requiring
        only >= D would not be exact: on cylinder (g = x^2 + y^2, f = z) the
        Jacobian row 2 has mu = 1 and D = 1, but mu(x^2 + y^2 + z^3) = 2.
        The Jacobian rows of a non-isolated g, whose corner grows with N,
        never get there.  The carry is dropped when a row asks for an N
        below m.
        """
        carry = self._carries.get(rows.name)
        if carry is not None and n >= carry[0]:
            return carry[1]
        pk, k = LOCAL._packing(self.ring.nvars), n - rows.lag
        power, den = self._f_power(k)
        s = math.perm(n, rows.lag)
        gens = [_muladd(a, den * db, power, b, s * da, pk) for (a, da), (b, db) in rows.pairs]
        gens = [_primitive(h, pk.lead(h)) for h in gens if h]
        row = _complete(self.ring, LOCAL, gens, self.budget, rows.base)
        number = row.staircase_size
        determined = number is not None and k * self._row_f[2] + rows.least_order > row.corner
        self._carries[rows.name] = (n, number) if determined else None
        return number

    def polar_intersection(self, n: int) -> int | None:
        """quotient_dim_local(polar.ideal.plus([g + f^n])), the polar kind of
        row (see _row)."""
        return self._row(self._polar_rows, n)

    @cached_property
    def sigma_dim(self) -> int:
        """The dimension of the critical locus of g, once check_hypotheses
        has found that the case hypotheses hold."""
        return check_hypotheses(self.g, self.f, self.budget)

    @cached_property
    def polar_meetings(self) -> tuple[int, int]:
        """(m, m~) = (Gamma.V(f), S.V(f)): the polar curve of (f, g) and the
        N-independent polar ideal S of g + f^N (see deformed_polar_ideal)
        met with {f = 0}; m is 0 for an empty polar curve."""
        f, budget = self.f, self.budget
        m = 0 if self.polar.is_empty else intersection_number(self.polar, f, budget)
        return m, intersection_number(deformed_polar_ideal(f, self.g, budget), f, budget)

    @cached_property
    def branch_sum(self) -> int:
        """B = sum m_b d_b mu_b over the branches of the critical locus, the
        slope of the deformation formula: lambda1 for a linear f, the form of
        the Le numbers (Massey, Le Cycles and Hypersurface Singularities, LNM
        1615), and otherwise m~ - m (see polar_meetings), by the export's
        morse_transfer identity m~ = m + B, which holds once g + f^N is
        isolated."""
        if self.f.is_linear_form:
            return self.le.lambda1
        m, m_tilde = self.polar_meetings
        return m_tilde - m

    @property
    def terms(self) -> tuple[BranchTerm, ...] | None:
        """The branch terms of the JSON branch_terms and the export's branch
        table; None when f is not linear or the critical locus is a curve
        with no declared branch (an empty sum is not 0).  A linear f is the
        form of the Le numbers, so these are the terms of their branch route,
        read after the declared branches are validated."""
        if not self.f.is_linear_form:
            return None
        self.sigma_branches  # validate the declared branches first
        return self.le.terms

    def mu(self, n: int) -> int | None:
        """mu(g + f^n), the Jacobian kind of row (see _row), None when g + f^n
        is not isolated; HypothesisError when it is not isolated although n
        reached the threshold.  The case hypotheses are read before the
        polar curve whose gap report sets the threshold."""
        self.sigma_dim  # the case hypotheses, before the polar curve
        threshold = self.gap.threshold
        if n < 2:
            raise ValueError("the deformation exponent must be at least 2")
        mu = self._row(self._jacobian_rows, n)
        if mu is None and n >= threshold:
            raise HypothesisError(
                "isolation-at-threshold",
                f"g + f^{n} has a non-isolated singularity although n >= threshold {threshold}",
            )
        return mu

    def _f_power(self, k: int) -> tuple[dict, int]:
        """(d*f'^k, d) packed under LOCAL for an int d.  A sweep asks for
        increasing k, so the last power is kept and extended by one product
        by f' per exponent step; the first call, or one with a smaller k,
        starts again from f'."""
        pk = LOCAL._packing(self.ring.nvars)
        f, df, _ = self._row_f
        if self._f_power_kept is None or self._f_power_kept[0] > k:
            self._f_power_kept = (1, f, df)
        j, power, den = self._f_power_kept
        for _ in range(k - j):
            power, den = _muladd({}, 0, power, f, 1, pk), den * df
        self._f_power_kept = (k, power, den)
        return power, den


def verify_scenario(
    scenario: Scenario,
    n_range: tuple[int, int] | None = None,
    relative_to_threshold: bool = False,
) -> VerdictTable:
    """Run the whole pipeline on a scenario and assemble the verdict table.

    Everything that does not depend on N is read once from the run's
    ScenarioContext or built once with _le_iomdin_rows, and the sweep rows
    share the context's one budget.

    With relative_to_threshold the sweep runs over threshold .. threshold +
    (hi - lo) regardless of the requested bounds, which keeps fixture sweeps
    aligned with their thresholds; past N_MAX it raises ExponentRangeError.
    """
    ctx = ScenarioContext(scenario)
    ctx.sigma_dim  # the case hypotheses first, so a pair that fails them fails there
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
    le_iomdin = _le_iomdin_rows(ctx)
    sign = parity_sign(ctx.ring.nvars - 1)

    def make_row(n: int) -> SweepRow:
        mu = ctx.mu(n)
        verdicts, defect, expansion = le_iomdin(n, mu)
        verdicts = (*verdicts, verify_gap_stability(n, ctx))
        chi = None if mu is None else 1 + sign * mu  # chi(F_g~)
        return SweepRow(n, n >= threshold, mu, chi, verdicts, defect, expansion)

    return VerdictTable(
        scenario=scenario.name,
        variables=ctx.ring.variables,
        g=str(ctx.g),
        f=str(f),
        threshold=threshold,
        le=le,
        chi_g=chi_g,
        terms=ctx.terms,
        rows=[make_row(n) for n in range(lo, hi + 1)],
        defaults={"N": list(scenario.n_range), "limits": scenario.limits._asdict()},
    )


# ---------------------------------------------------------------------------
# dataset export
# ---------------------------------------------------------------------------


def _slice_milnor_at_origin(g: Poly, form: Poly, budget: Budget) -> int | None:
    """Milnor number of g restricted to {form = 0}; None when non-isolated."""
    return quotient_dim_local(jacobian_ideal(slice_germ(g, form)), budget)


def _certify_slice_generic(g: Poly, f: Poly, g_tilde: Poly, mu_h: int | None, budget: Budget) -> bool:
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
        via_l = _slice_milnor_at_origin(g, candidate, budget)
        if via_l is None:
            continue  # unlucky ladder rung, try the next form
        if mu_h != via_l:
            return False
        return mu_h == _slice_milnor_at_origin(g_tilde, candidate, budget)
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
    ctx.sigma_dim  # the case hypotheses first, so a pair that fails them fails there
    budget = ctx.budget
    g, f, chi_g = ctx.g, ctx.f, ctx.chi_g
    v = ctx.ring.nvars

    if n is None:
        threshold = ctx.gap.threshold
        lo, hi = scenario.n_range
        n = max(lo, threshold) if threshold <= hi else lo
    mu = ctx.mu(n)
    if mu is None:
        raise HypothesisError("isolation", f"g + f^{n} is not isolated; export needs an isolated deformation")
    chi_gtilde = 1 + parity_sign(v - 1) * mu

    # check_hypotheses required f to be isolated, so its Milnor number exists
    chi_f_fibre = 1 + parity_sign(v - 1) * milnor_number(f, budget)

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

    known["m"], known["m_tilde"] = ctx.polar_meetings

    g_tilde = g + f**n if f.is_linear_form else None  # only the slices of a linear f read it
    mu_h = _slice_milnor_at_origin(g, f, budget) if f.is_linear_form else None
    certified = f.is_linear_form and _certify_slice_generic(g, f, g_tilde, mu_h, budget)

    rows: tuple[BranchTableRow, ...] | None = None
    if terms is not None:
        row_list = []
        for b, t in zip(ctx.sigma_branches, terms):
            chi_f_j = 1 + parity_sign(v - 2) * t.slice_milnor
            fields: dict[str, int] = {
                "m_f": t.local_degree,
                "eu_X_b": 1,
                "B_g_f_fibre": chi_f_j,
                "eu_g_f_fibre": 1 - chi_f_j,
                "eu_f_gtilde_fibre": parity_sign(v - 1) * t.slice_milnor,
                "B_f_gtilde_fibre": chi_f_j,
            }
            if v == 3 and t.local_degree == 1:
                # the f-slice meets the branch transversally, so its germ is
                # a transverse curve slice and the obstruction is its
                # multiplicity
                fields["eu_Xg_b"] = transverse_multiplicity(g, f, b)
            row_list.append(BranchTableRow(b.name, **fields))
        rows = tuple(row_list)

    if mu_h is not None:
        # g and its deformation agree on {f = 0}, so one slice Milnor
        # number covers both restriction values; the swap value comes from
        # the partial-smoothing route for the f-slice of the deformed
        # hypersurface, which is smooth off the origin
        chi_slice = 1 + parity_sign(v - 2) * mu_h
        known["B_g_Xf_0"] = chi_slice
        known["B_gtilde_Xf_0"] = chi_slice
        known["B_f_Xgtilde_0"] = chi_slice
        if v == 2 and rows == ():
            # reduced plane curves: obstructions are germ multiplicities
            # and the Brasselet numbers of f count slice points exactly;
            # (g + f^N, f) = (g, f), so both curves meet {f = 0} alike
            known["eu_Xg_0"] = g.min_degree()
            known["eu_Xgtilde_0"] = g_tilde.min_degree()
            known["B_f_Xg_0"] = intersection_number(IdealPresentation(g.ring, [g]), f, budget)
            known["B_f_Xgtilde_0"] = known["B_f_Xg_0"]
        elif v == 3 and certified and rows is not None and all(
            r.eu_Xg_b is not None for r in rows
        ):
            # chi of the hyperplane slice of the g-hypersurface: the
            # generic-slice value corrected by the vanishing cycles at the
            # branch points, then reweighted by the per-branch Euler
            # obstructions
            known["eu_Xgtilde_0"] = chi_slice
            link_chi = chi_slice - parity_sign(v - 2) * ctx.branch_sum
            eu_xg = link_chi + sum(
                t.multiplicity * t.local_degree * (r.eu_Xg_b - 1) for r, t in zip(rows, terms)
            )
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

