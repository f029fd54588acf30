"""Le numbers of germs with critical locus of dimension at most one, and
Euler characteristics of Milnor fibres derived from them.

For an isolated singularity the pair degenerates to (mu, 0).  In the
one-dimensional case lambda^0 is the intersection number at the origin of the
relative polar curve with the first partial derivative, all in coordinates
aligned so that the supplied linear form is the first variable.  The polar
curve is the remaining-partials ideal saturated along the critical locus;
since the Jacobian ideal is that ideal plus the first partial, one
saturation by the first partial alone gives it.  lambda^1 comes from
the branch decomposition, with a branch-free fallback that intersects the
remaining-partials scheme with the aligned hyperplane and subtracts the polar
contribution; when both routes apply they must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ComponentMismatchError, UndefinedLeError
from .ideals import IdealPresentation, as_budget, dim_at_origin, quotient_dim_local, saturate_single
from .invariants import (
    BranchParam,
    branch_slice_milnor,
    compose_on_branch,
    jacobian_ideal,
    linear_coefficients,
    local_degree,
    milnor_number,
    order_in_t,
)
from .rings import Poly, PolyRing


@dataclass(frozen=True)
class LeData:
    """The pair (lambda^0, lambda^1) plus how each number was obtained."""

    lambda0: int
    lambda1: int
    coords: tuple[str, ...]
    route_log: tuple[str, ...]

    def as_pair(self) -> tuple[int, int]:
        return (self.lambda0, self.lambda1)


def align_first(g: Poly, form: Poly, pivot: int | None = None) -> tuple[Poly, PolyRing, int]:
    """Rewrite g in coordinates (w_0, ..., w_{v-1}) with w_0 = form.

    Returns the rewritten germ, the new ring, and the pivot variable index of
    the original ring that was traded for w_0.
    """
    ring = g.ring
    coeffs = linear_coefficients(form)
    if pivot is None:
        pivot = max(i for i, c in enumerate(coeffs) if c != 0)
    elif coeffs[pivot] == 0:
        raise ValueError(f"variable {pivot} does not occur in the form")
    kept = [i for i in range(ring.nvars) if i != pivot]
    names = [ring.variables[pivot]] + [ring.variables[i] for i in kept]
    target = PolyRing(tuple(names))
    # z_pivot = (w_0 - sum c_i w_i)/c_pivot, z_other = its own w slot
    images: list[Poly] = [target.zero()] * ring.nvars
    pivot_image = target.variable(0)
    for slot, i in enumerate(kept, start=1):
        images[i] = target.variable(slot)
        if coeffs[i]:
            pivot_image = pivot_image - target.variable(slot) * coeffs[i]
    images[pivot] = pivot_image * (1 / coeffs[pivot])
    return g.substitute(target, images), target, pivot


def _polar_ideal_after_alignment(gw: Poly, cap=None) -> IdealPresentation:
    """Remaining-partials ideal saturated along the critical locus of g."""
    rest = [gw.diff(i) for i in range(1, gw.ring.nvars)]
    rest_ideal = IdealPresentation(gw.ring, rest)
    # Jac(g) = I + (d_0 g) for the remaining-partials ideal I, and
    # (I + (h))^k lies in I + (h^k), so I : Jac^infinity = I : (d_0 g)^infinity
    return saturate_single(rest_ideal, gw.diff(0), cap)


def le_numbers(
    g: Poly,
    form: Poly,
    branches: Sequence[BranchParam] = (),
    cap=None,
) -> LeData:
    """Le numbers of g with respect to a linear form, from supplied branches
    of the critical locus (plus the polar fallback when none are supplied)."""
    if not form.is_linear_form or form.ring != g.ring:
        raise ValueError("the form must be a nonzero linear form in the ring of g")
    budget = as_budget(cap)
    sigma_dim = dim_at_origin(jacobian_ideal(g), budget)
    if sigma_dim > 1:
        raise UndefinedLeError(
            f"critical locus has dimension {sigma_dim}; only dimension <= 1 is supported"
        )
    if sigma_dim <= 0:
        mu = milnor_number(g, budget)
        return LeData(
            lambda0=mu,
            lambda1=0,
            coords=g.ring.variables,
            route_log=(
                "lambda0: isolated case, Milnor number as local Jacobian quotient dimension",
                "lambda1: isolated case, zero",
            ),
        )

    for branch in branches:
        if order_in_t(compose_on_branch(form, branch)) is None:
            raise UndefinedLeError(
                f"the linear form vanishes identically on branch {branch.name!r}"
            )

    # the fixed list of coordinate attempts: every pivot variable the form
    # can be solved for, highest index first
    coeffs = linear_coefficients(form)
    pivots = [i for i in reversed(range(g.ring.nvars)) if coeffs[i] != 0]
    lam0 = None
    gw = target = polar = None
    for pivot in pivots:
        gw, target, _ = align_first(g, form, pivot)
        polar = _polar_ideal_after_alignment(gw, budget)
        lam0 = quotient_dim_local(polar.plus([gw.diff(0)]), budget)
        if lam0 is not None:
            break
    if lam0 is None or gw is None or target is None or polar is None:
        raise UndefinedLeError(
            "the polar curve meets the first-partial hypersurface improperly "
            "for every admissible coordinate choice"
        )
    log = [
        "lambda0: intersection of the saturated relative polar curve with the "
        "first partial derivative in aligned coordinates "
        f"({', '.join(target.variables)})"
    ]

    lam1_branch = None
    if branches:
        total = 0
        for branch in branches:
            m = local_degree(form, branch)
            mu_slice = branch_slice_milnor(g, form, branch, budget)
            total += branch.multiplicity * m * mu_slice
        lam1_branch = total
        log.append(
            "lambda1: sum over branches of local degree times slice Milnor number"
        )

    lam1_polar = None
    rest_ideal = IdealPresentation(gw.ring, [gw.diff(i) for i in range(1, gw.ring.nvars)])
    hyperplane = target.variable(0)
    total_slice = quotient_dim_local(rest_ideal.plus([hyperplane]), budget)
    if total_slice is not None:
        polar_slice = quotient_dim_local(polar.plus([hyperplane]), budget)
        if polar_slice is not None:
            lam1_polar = total_slice - polar_slice
            log.append(
                "lambda1 cross-route: remaining-partials scheme sliced by the "
                "aligned hyperplane minus the polar contribution"
            )

    if lam1_branch is not None and lam1_polar is not None and lam1_branch != lam1_polar:
        raise ComponentMismatchError(
            f"branch-route lambda1 = {lam1_branch} but polar-slice route gives "
            f"{lam1_polar}; the branch list looks incomplete"
        )
    lam1 = lam1_branch if lam1_branch is not None else lam1_polar
    if lam1 is None:
        raise UndefinedLeError(
            "lambda1 needs either a branch decomposition or a proper hyperplane slice"
        )
    return LeData(lambda0=lam0, lambda1=lam1, coords=target.variables, route_log=tuple(log))


def euler_char_fibre(g: Poly, le: LeData) -> int:
    """Euler characteristic of the Milnor fibre from the Le pair: with v
    variables, chi = 1 + (-1)^(v-1) * lambda0 + (-1)^(v-2) * lambda1."""
    v = g.ring.nvars
    sign0 = -1 if (v - 1) % 2 else 1
    sign1 = -1 if (v - 2) % 2 else 1
    return 1 + sign0 * le.lambda0 + sign1 * le.lambda1
