"""Per-germ and per-branch invariants: Milnor numbers, critical loci, branch
validation, local degrees along branches, hyperplane slices, and the branch
terms of the branch sum.

One routine, _solve_for_pivot, makes a linear form a coordinate w: it sends
its pivot variable to (w - sum_{i != p} c_i x_i)/c_p.  align_first puts w
first, the hyperplane slices substitute once into the other variables at
the form's value, and the sweep rows (verifier) keep x_p in its place.

Branches are supplied as exact polynomial parametrizations in one parameter t;
compositions are computed exactly, and the declared truncation order is used
as a validation threshold rather than a floating precision.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .errors import (
    DegenerateBranchError,
    GermlabError,
    InstabilityError,
    NonisolatedError,
    RingMismatchError,
)
from .ideals import IdealPresentation, as_budget, dim_at_origin, quotient_dim_local
from .rings import Poly, PolyRing, jacobian

T_RING = PolyRing(("t",))

DEFAULT_TRUNC = 16
MAX_TAU_HALVINGS = 8


class _BranchParamFields(NamedTuple):
    name: str
    components: tuple[Poly, ...]
    trunc: int = DEFAULT_TRUNC
    host: str = "sigma"
    multiplicity: int = 1


class BranchParam(_BranchParamFields):
    """A curve branch through the origin, parametrized by polynomials in t.

    host records which locus the branch claims to lie on ("sigma" for the
    critical locus, "polar" for the relative polar curve); multiplicity scales
    intersection orders for non-reduced components.  The fields are checked
    on construction; _replace skips that check, so build a changed branch
    with BranchParam(...).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.trunc < 1:
            raise ValueError("truncation order must be at least 1")
        if self.multiplicity < 1:
            raise ValueError("component multiplicity must be positive")
        if self.host not in ("sigma", "polar"):
            raise ValueError(f"unknown branch host {self.host!r}")
        for comp in self.components:
            if comp.ring != T_RING:
                raise RingMismatchError("branch components must be polynomials in t")
            if comp.constant_term() != 0:
                raise ValueError(f"branch {self.name!r} does not pass through the origin")
        if all(c.is_zero for c in self.components):
            raise ValueError(f"branch {self.name!r} is identically the origin")
        return self

    def point_at(self, tau: Fraction) -> tuple[Fraction, ...]:
        return tuple(c.evaluate([tau]) for c in self.components)


def compose_on_branch(p: Poly, branch: BranchParam) -> Poly:
    """The exact univariate polynomial p(branch(t))."""
    if len(branch.components) != p.ring.nvars:
        raise RingMismatchError("branch component count does not match the ring")
    return p.substitute(T_RING, list(branch.components))


def order_in_t(p: Poly) -> int | None:
    """Order of vanishing at t = 0; None for the zero polynomial."""
    if p.is_zero:
        return None
    return p.min_degree()


def jacobian_ideal(g: Poly) -> IdealPresentation:
    return IdealPresentation(g.ring, jacobian(g))


def milnor_number(g: Poly, cap=None) -> int:
    """Milnor number of an isolated singularity as a local quotient dimension.

    Raises NonisolatedError when the Jacobian ideal has positive-dimensional
    zero locus at the origin.  A result of 0 means the germ is nonsingular.
    """
    if g.constant_term() != 0:
        raise ValueError("the germ must vanish at the origin")
    mu = quotient_dim_local(jacobian_ideal(g), cap)
    if mu is None:
        raise NonisolatedError(f"critical locus of {g} has positive dimension at 0")
    return mu


class CriticalLocusReport(NamedTuple):
    """Jacobian ideal of g with its local dimension, plus the optional check
    that the critical locus meets {f = 0} only at the origin."""

    ideal: IdealPresentation
    dim: int
    f_slice_dim: int | None = None

    @property
    def meets_f_only_at_origin(self) -> bool | None:
        if self.f_slice_dim is None:
            return None
        return self.f_slice_dim <= 0


def critical_locus(g: Poly, f: Poly | None = None, cap=None) -> CriticalLocusReport:
    budget = as_budget(cap)
    ideal = jacobian_ideal(g)
    dim = dim_at_origin(ideal, budget)
    f_slice_dim = None
    if f is not None:
        if f.ring != g.ring:
            raise RingMismatchError("f and g must share a ring")
        f_slice_dim = dim_at_origin(ideal.plus([f]), budget)
    return CriticalLocusReport(ideal, dim, f_slice_dim)


def validate_branch(branch: BranchParam, host: IdealPresentation) -> tuple[str, int] | None:
    """Check that every generator of the host ideal vanishes along the branch
    modulo t^trunc: the first (generator, order) that does not, or None."""
    for gen in host.generators:
        comp = compose_on_branch(gen, branch)
        order = order_in_t(comp)
        if order is not None and order < branch.trunc:
            return str(gen), order
    return None


def local_degree(f: Poly, branch: BranchParam, image: Poly | None = None) -> int:
    """Order in t of f along the branch (the local degree of f restricted to it).

    Compositions are exact, so the order is exact whatever the branch's
    trunc, which only validate_branch reads; f degenerates on the branch
    only when it vanishes identically there.  image is the composition
    f(branch(t)), when the caller has it already.
    """
    comp = compose_on_branch(f, branch) if image is None else image
    order = order_in_t(comp)
    if order is None:
        raise DegenerateBranchError(f"{f} vanishes identically on branch {branch.name!r}")
    return order


def linear_part(p: Poly) -> tuple[list[Fraction], int | None]:
    """The coefficients c_i = d_i p(0) of the linear part of p, and its pivot:
    the highest index with c_i != 0 (None when there is none)."""
    n = p.ring.nvars
    coeffs = [p.terms.get(tuple(int(i == k) for i in range(n)), Fraction(0)) for k in range(n)]
    return coeffs, max((k for k, c in enumerate(coeffs) if c), default=None)


def _form_pivot(form: Poly, pivot: int | None = None) -> tuple[list[Fraction], int]:
    """The coefficients of a linear form and its pivot, by default linear_part's."""
    if not form.is_linear_form:
        raise ValueError("expected a nonzero linear form")
    coeffs, last = linear_part(form)
    if pivot is not None and coeffs[pivot] == 0:
        raise ValueError(f"variable {pivot} does not occur in the form")
    return coeffs, last if pivot is None else pivot


def _solve_for_pivot(coeffs: list[Fraction], pivot: int, others: list[Poly], w: Poly) -> list[Poly]:
    """The images under which sum c_i x_i becomes w: others, the images of the
    variables other than the pivot p in order, with x_p -> (w - sum_{i != p}
    c_i others_i)/c_p put in at p."""
    for c, image in zip(coeffs[:pivot] + coeffs[pivot + 1 :], others):
        if c:
            w = w - image * c
    return [*others[:pivot], w * (1 / coeffs[pivot]), *others[pivot:]]


def align_first(g: Poly, form: Poly, pivot: int | None = None) -> tuple[Poly, PolyRing, int]:
    """Rewrite g in coordinates (w_0, ..., w_{v-1}) with w_0 = form.

    Returns the rewritten germ, the new ring, and the pivot variable index of
    the original ring that was traded for w_0: by default the highest-index
    variable with a nonzero coefficient in the form.
    """
    names = g.ring.variables
    coeffs, pivot = _form_pivot(form, pivot)
    target = PolyRing(names[pivot : pivot + 1] + names[:pivot] + names[pivot + 1 :])
    others = [target.variable(slot) for slot in range(1, len(names))]
    return g.substitute(target, _solve_for_pivot(coeffs, pivot, others, target.variable(0))), target, pivot


def _on_hyperplane(p: Poly, form: Poly, point: Sequence[Fraction]) -> Poly:
    """p on the hyperplane through point parallel to {form = 0}, in the
    variables other than the pivot, centred at point."""
    coeffs, pivot = _form_pivot(form)
    kept = PolyRing(p.ring.variables[:pivot] + p.ring.variables[pivot + 1 :])
    shifts = [*point[:pivot], *point[pivot + 1 :]]
    others = [kept.variable(slot) + kept.constant(c) for slot, c in enumerate(shifts)]
    return p.substitute(kept, _solve_for_pivot(coeffs, pivot, others, kept.constant(form.evaluate(point))))


def slice_germ(g: Poly, form: Poly, point: Sequence[Fraction] | None = None) -> Poly:
    """The germ at point (default: the origin) of g restricted to the
    hyperplane through point parallel to {form = 0}, constant term dropped."""
    sliced = _on_hyperplane(g, form, [0] * g.ring.nvars if point is None else point)
    return sliced - sliced.constant_term()


def stable_along_branch(what: str, branch: BranchParam, at: Callable[[Fraction], int]) -> int:
    """at(tau) once two consecutive values on the ladder tau = 1/2, 1/4, ...
    agree, which steps past branch points where the value degenerates by
    accident; InstabilityError when MAX_TAU_HALVINGS halvings never agree.
    Agreement is a heuristic: le_numbers' slices are certified instead when
    the branch list is complete (see _certified_terms), and fall back here."""
    tau = Fraction(1, 2)
    previous = at(tau)
    for _ in range(MAX_TAU_HALVINGS):
        tau = tau / 2
        current = at(tau)
        if current == previous:
            return current
        previous = current
    raise InstabilityError(f"{what} along branch {branch.name!r} never stabilized")


def _slice_milnor_at(g: Poly, form: Poly, branch: BranchParam, tau: Fraction, budget) -> int:
    """Milnor number of g on the hyperplane {form = form(p)} at p = branch(tau)."""
    point = branch.point_at(tau)
    if form.evaluate(point) == 0:
        raise DegenerateBranchError(f"slice level vanishes at branch point of {branch.name!r} (tau={tau})")
    if any(d.evaluate(point) != 0 for d in jacobian(g)):
        raise GermlabError(f"branch point of {branch.name!r} at tau={tau} is not a critical point of g")
    return milnor_number(slice_germ(g, form, point), budget)


def branch_slice_milnor(g: Poly, form: Poly, branch: BranchParam, cap=None) -> int:
    """Milnor number of g restricted to the hyperplane {form = form(p)} at the
    branch point p = branch(tau), stabilized along the tau-halving ladder;
    le_numbers reads it only where no rung certifies (see _certified_terms)."""
    if form.ring != g.ring:
        raise RingMismatchError("slice form must live in the ring of g")
    budget = as_budget(cap)
    return stable_along_branch("slice Milnor number", branch, lambda tau: _slice_milnor_at(g, form, branch, tau, budget))


def transverse_multiplicity(g: Poly, form: Poly, branch: BranchParam) -> int:
    """Multiplicity of the transverse slice germ of {g = 0} at a branch point:
    the minimal total degree of the slice germ of g there, stabilized along
    the same tau-halving ladder as the slice Milnor numbers."""
    return stable_along_branch(
        "transverse multiplicity",
        branch,
        lambda tau: slice_germ(g, form, branch.point_at(tau)).min_degree(),
    )


class BranchTerm(NamedTuple):
    """Per-branch data entering the branch sum: the local degree of the form
    along the branch and the Milnor number of the slice of g at a branch
    point."""

    name: str
    multiplicity: int
    local_degree: int
    slice_milnor: int


def branch_terms(
    g: Poly, form: Poly, branches: Sequence[BranchParam], cap=None, images: Sequence[Poly] | None = None
) -> tuple[BranchTerm, ...]:
    """The branch terms of g against form; images, when the caller has them,
    are the compositions form(branch(t)), one per branch."""
    budget = as_budget(cap)
    return tuple(
        BranchTerm(b.name, b.multiplicity, local_degree(form, b, image), branch_slice_milnor(g, form, b, budget))
        for b, image in zip(branches, images or [None] * len(branches))
    )


def _certified_terms(
    g: Poly, form: Poly, branches: Sequence[BranchParam], budget, images: Sequence[Poly], total: int
) -> tuple[BranchTerm, ...] | None:
    """The branch terms at the first tau = 1/2, 1/4, ... whose sum of
    m_b d_b mu_b(tau) is total, lambda^1 by le_numbers' polar-slice route.
    Each mu_b(tau) is at least b's generic slice Milnor number (upper
    semicontinuity), and if the branches are all of Sigma(g) the generic
    values sum to lambda^1: an equal sum proves every value generic, a
    smaller one the list incomplete.  None then, when no rung gives the sum
    or when a rung raises; branch_terms' ladder decides instead."""
    degrees = [local_degree(form, b, image) for b, image in zip(branches, images)]
    for k in range(1, MAX_TAU_HALVINGS + 2):
        try:
            slices = [_slice_milnor_at(g, form, b, Fraction(1, 2**k), budget) for b in branches]
        except GermlabError:
            return None
        terms = tuple(BranchTerm(b.name, b.multiplicity, d, mu) for b, d, mu in zip(branches, degrees, slices))
        if (found := branch_sum(terms)) <= total:
            return terms if found == total else None
    return None


def branch_sum(terms: Sequence[BranchTerm]) -> int:
    """B = sum m_b d_b mu_b over the branches of the critical locus: the
    deformation formula's one branch sum, and lambda^1 when the form is the
    Le form."""
    return sum(t.multiplicity * t.local_degree * t.slice_milnor for t in terms)
