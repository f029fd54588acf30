"""Per-germ and per-branch invariants: Milnor numbers, critical loci, branch
validation, local degrees along branches, and Milnor numbers of hyperplane
slices at branch points.

Branches are supplied as exact polynomial parametrizations in one parameter t;
compositions are computed exactly, and the declared truncation order is used
as a validation threshold rather than a floating precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

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


@dataclass(frozen=True)
class BranchParam:
    """A curve branch through the origin, parametrized by polynomials in t.

    host records which locus the branch claims to lie on ("sigma" for the
    critical locus, "polar" for the relative polar curve); multiplicity scales
    intersection orders for non-reduced components.
    """

    name: str
    components: tuple[Poly, ...]
    trunc: int = DEFAULT_TRUNC
    host: str = "sigma"
    multiplicity: int = 1

    def __post_init__(self):
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

    def point_at(self, tau: Fraction) -> tuple[Fraction, ...]:
        return tuple(c.evaluate([tau]) for c in self.components)


@dataclass(frozen=True)
class BranchValidation:
    """Outcome of checking a branch against its host ideal."""

    ok: bool
    violation: tuple[str, int] | None = None  # (generator, offending order)

    def __bool__(self) -> bool:
        return self.ok


def compose_on_branch(p: Poly, branch: BranchParam, below: int | None = None) -> Poly:
    """The exact univariate polynomial p(branch(t)), or with below, its
    truncation modulo t^below."""
    if len(branch.components) != p.ring.nvars:
        raise RingMismatchError("branch component count does not match the ring")
    return p.substitute(T_RING, list(branch.components), below)


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


@dataclass(frozen=True)
class CriticalLocusReport:
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


def validate_branch(branch: BranchParam, host: IdealPresentation) -> BranchValidation:
    """Check that every generator of the host ideal vanishes along the branch
    modulo t^trunc; report the first generator that does not."""
    for gen in host.generators:
        comp = compose_on_branch(gen, branch)
        order = order_in_t(comp)
        if order is not None and order < branch.trunc:
            return BranchValidation(False, violation=(str(gen), order))
    return BranchValidation(True)


def local_degree(f: Poly, branch: BranchParam) -> int:
    """Order in t of f along the branch (the local degree of f restricted to it).

    Compositions are exact, so an order of 8 * trunc or more (three doublings
    of the declared truncation) means f degenerates on the branch.
    """
    comp = compose_on_branch(f, branch)
    order = order_in_t(comp)
    if order is None:
        raise DegenerateBranchError(f"{f} vanishes identically on branch {branch.name!r}")
    if order >= 8 * branch.trunc:
        raise DegenerateBranchError(
            f"{f} vanishes to order {order} on branch {branch.name!r}, beyond the doubling cap"
        )
    return order


def translate(p: Poly, point: Sequence[Fraction]) -> Poly:
    """p(z + point): move the germ so that point becomes the origin."""
    ring = p.ring
    images = [ring.variable(i) + ring.constant(point[i]) for i in range(ring.nvars)]
    return p.substitute(ring, images)


def linear_coefficients(form: Poly) -> list[Fraction]:
    if not form.is_linear_form:
        raise ValueError("expected a nonzero linear form")
    coeffs = [Fraction(0)] * form.ring.nvars
    for exps, c in form.terms.items():
        coeffs[exps.index(1)] = c
    return coeffs


def restrict_to_hyperplane(p: Poly, form: Poly) -> Poly:
    """Restriction of p to {form = 0} by eliminating one pivoted variable.

    Returns a germ in one variable fewer; the pivot is the highest-index
    variable with a nonzero coefficient in the form, as in le.align_first.
    """
    ring = p.ring
    coeffs = linear_coefficients(form)
    k = max(i for i, c in enumerate(coeffs) if c != 0)
    kept = [i for i in range(ring.nvars) if i != k]
    target = PolyRing(tuple(ring.variables[i] for i in kept))
    images: list[Poly] = []
    position = {i: j for j, i in enumerate(kept)}
    for i in range(ring.nvars):
        if i != k:
            images.append(target.variable(position[i]))
    pivot_image = target.zero()
    for i in kept:
        if coeffs[i]:
            pivot_image = pivot_image - target.variable(position[i]) * (coeffs[i] / coeffs[k])
    images.insert(k, pivot_image)
    return p.substitute(target, images)


def stable_along_branch(what: str, branch: BranchParam, at: Callable[[Fraction], int]) -> int:
    """at(tau) once two consecutive values on the ladder tau = 1/2, 1/4, ...
    agree, which steps past branch points where the value degenerates by
    accident; InstabilityError when MAX_TAU_HALVINGS halvings never agree."""
    tau = Fraction(1, 2)
    previous = at(tau)
    for _ in range(MAX_TAU_HALVINGS):
        tau = tau / 2
        current = at(tau)
        if current == previous:
            return current
        previous = current
    raise InstabilityError(f"{what} along branch {branch.name!r} never stabilized")


def branch_slice_milnor(g: Poly, form: Poly, branch: BranchParam, cap=None) -> int:
    """Milnor number of g restricted to the hyperplane {form = form(p)} at the
    branch point p = branch(tau), stabilized along the tau-halving ladder."""
    if form.ring != g.ring:
        raise RingMismatchError("slice form must live in the ring of g")
    budget = as_budget(cap)

    def at(tau: Fraction) -> int:
        point = branch.point_at(tau)
        delta = form.evaluate(point)
        if delta == 0:
            raise DegenerateBranchError(
                f"slice level vanishes at branch point of {branch.name!r} (tau={tau})"
            )
        moved = translate(g, point)
        for i in range(g.ring.nvars):
            if moved.diff(i).constant_term() != 0:
                raise GermlabError(
                    f"branch point of {branch.name!r} at tau={tau} is not a critical point of g"
                )
        sliced = restrict_to_hyperplane(moved, form)
        sliced = sliced - sliced.constant_term()
        return milnor_number(sliced, budget)

    return stable_along_branch("slice Milnor number", branch, at)
