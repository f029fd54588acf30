"""Le numbers of germs with critical locus of dimension at most one, and
Euler characteristics of Milnor fibres derived from them.

For an isolated singularity the pair degenerates to (mu, 0).  In the
one-dimensional case lambda^0 is the intersection number at the origin of the
relative polar curve with the first partial derivative, all in coordinates
aligned so that the supplied linear form is the first variable.  The polar
curve is the remaining-partials ideal saturated along the critical locus;
since the Jacobian ideal is that ideal plus the first partial, one
saturation by the first partial alone gives it.  lambda^1 is the branch
sum over the declared branches (LeData keeps its terms), with a branch-free
fallback that intersects the remaining-partials scheme with the aligned
hyperplane, computed on the hyperplane, and subtracts the polar
contribution; when both routes apply they must agree.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import ComponentMismatchError, UndefinedLeError
from .ideals import Budget, IdealPresentation, as_budget, dim_at_origin, quotient_dim_local, saturate_single
from .invariants import (
    BranchParam,
    BranchTerm,
    _certified_terms,
    align_first,
    branch_sum,
    branch_terms,
    compose_on_branch,
    jacobian_ideal,
    order_in_t,
)
from .rings import Poly, PolyRing
from .stratified import parity_sign


class LeData(NamedTuple):
    """The pair (lambda^0, lambda^1) plus how each number was obtained.

    terms are the branch terms of lambda^1's branch route: () for an isolated
    germ, None when the critical locus is a curve with no declared branch.
    """

    lambda0: int
    lambda1: int
    coords: tuple[str, ...]
    route_log: tuple[str, ...]
    terms: tuple[BranchTerm, ...] | None

    def as_pair(self) -> tuple[int, int]:
        return (self.lambda0, self.lambda1)


def _polar_ideal_after_alignment(gw: Poly, budget: Budget) -> tuple[IdealPresentation, IdealPresentation]:
    """The remaining-partials ideal, and that ideal saturated along the
    critical locus of g."""
    rest_ideal = IdealPresentation(gw.ring, [gw.diff(i) for i in range(1, gw.ring.nvars)])
    # Jac(g) = I + (d_0 g) for the remaining-partials ideal I, and
    # (I + (h))^k lies in I + (h^k), so I : Jac^infinity = I : (d_0 g)^infinity
    return rest_ideal, saturate_single(rest_ideal, gw.diff(0), budget)


def _hyperplane_slice_dim(I: IdealPresentation, budget: Budget) -> int | None:
    """dim O/(I + (w_0)) for the first variable w_0, on H = {w_0 = 0}: it is
    O_H modulo I restricted to H, each generator without its terms in w_0.
    In one variable H is the origin: Q unless a generator is a unit."""
    if I.ring.nvars == 1:
        return int(not any(g.constant_term() for g in I.generators))
    plane = PolyRing(I.ring.variables[1:])
    restricted = [Poly._make(plane, {e[1:]: c for e, c in g.terms.items() if not e[0]}) for g in I.generators]
    return quotient_dim_local(IdealPresentation(plane, restricted), budget)


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
    if g.constant_term() != 0:
        raise ValueError("the germ must vanish at the origin")
    budget = as_budget(cap)
    jac = jacobian_ideal(g)
    sigma_dim = dim_at_origin(jac, budget)
    if sigma_dim > 1:
        raise UndefinedLeError(
            f"critical locus has dimension {sigma_dim}; only dimension <= 1 is supported"
        )
    if sigma_dim <= 0:
        # finite: the Milnor number, read off the LOCAL basis just cached
        mu = quotient_dim_local(jac, budget)
        return LeData(
            lambda0=mu,
            lambda1=0,
            coords=g.ring.variables,
            route_log=(
                "lambda0: isolated case, Milnor number as local Jacobian quotient dimension",
                "lambda1: isolated case, zero",
            ),
            terms=(),
        )

    images = []  # form(branch(t)), composed once for this check and the branch terms
    for branch in branches:
        images.append(compose_on_branch(form, branch))
        if order_in_t(images[-1]) is None:
            raise UndefinedLeError(
                f"the linear form vanishes identically on branch {branch.name!r}"
            )

    gw, target, _ = align_first(g, form)
    rest_ideal, polar = _polar_ideal_after_alignment(gw, budget)
    lam0 = quotient_dim_local(polar.plus([gw.diff(0)]), budget)
    if lam0 is None:
        raise UndefinedLeError(
            "the polar curve meets the first-partial hypersurface improperly "
            "for every admissible coordinate choice"
        )
    log = [
        "lambda0: intersection of the saturated relative polar curve with the "
        "first partial derivative in aligned coordinates "
        f"({', '.join(target.variables)})"
    ]

    total_slice = _hyperplane_slice_dim(rest_ideal, budget)
    polar_slice = None if total_slice is None else _hyperplane_slice_dim(polar, budget)
    lam1_polar = None if polar_slice is None else total_slice - polar_slice

    terms = lam1_branch = None
    if branches:
        certified = None if lam1_polar is None else _certified_terms(g, form, branches, budget, images, lam1_polar)
        terms = certified or branch_terms(g, form, branches, budget, images)
        lam1_branch = branch_sum(terms)
        log.append("lambda1: sum over branches of local degree times slice Milnor number")
    if lam1_polar is not None:
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
    return LeData(lambda0=lam0, lambda1=lam1, coords=target.variables, route_log=tuple(log), terms=terms)


def euler_char_fibre(g: Poly, le: LeData) -> int:
    """Euler characteristic of the Milnor fibre from the Le pair: with v
    variables, chi = 1 + (-1)^(v-1) * lambda0 + (-1)^(v-2) * lambda1."""
    v = g.ring.nvars
    return 1 + parity_sign(v - 1) * le.lambda0 + parity_sign(v - 2) * le.lambda1
