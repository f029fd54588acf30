"""Relative polar curves, intersection numbers at the origin, gap ratios, the
Iomdin threshold, and the polar ideal of every isolated deformation g + f^N,
read once from the pair (f, g).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .errors import ComponentMismatchError, GermlabError, ImproperIntersectionError
from .ideals import (
    IdealPresentation,
    as_budget,
    dim_at_origin,
    quotient_dim_local,
    saturate_single,
)
from .invariants import (
    BranchParam,
    compose_on_branch,
    local_degree,
    order_in_t,
    validate_branch,
)
from .orders import DEGREVLEX
from .rings import Poly, jacobian


class PolarCurve(NamedTuple):
    """The symmetric relative polar curve of (f, g) as a scheme at the origin.

    ideal is the 2x2-minors ideal of the Jacobian rows of f and g, saturated
    so that components inside {f*g = 0} (in particular the critical locus of
    g) are removed; components, when supplied, are validated parametrizations
    of its branches.
    """

    ideal: IdealPresentation
    dim: int
    components: tuple[BranchParam, ...] = ()

    @property
    def is_empty(self) -> bool:
        return self.dim < 0


class GapRatio(NamedTuple):
    name: str
    ord_g: int
    ord_f: int
    ratio: Fraction


class _GapReportFields(NamedTuple):
    ratios: tuple[GapRatio, ...]
    g_intersection: int | None
    exact_max: Fraction | None = None
    images: tuple[tuple[Poly, Poly], ...] = ()


class GapReport(_GapReportFields):
    """Per-component gap ratios plus a sound a-priori bound.

    g_intersection is the polar curve's intersection number with {g = 0}
    (None for an empty curve).  sound_bound is always valid: component ratios
    never exceed that total, so total + 1 certifies N > ratio for every
    component.  exact_max is present only when components are supplied.
    images holds the exact compositions (g(branch(t)), f(branch(t))) on each
    component, which do not depend on N; a sweep row reads the order of
    g + f^N on each component from them (see deformed_order).
    The repr leaves images out.  exact_max is checked against the sound
    bound on construction; _replace skips that check, so build a changed
    report with GapReport(...).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.exact_max is not None and self.exact_max > self.sound_bound:
            raise ValueError("exact maximum exceeds the sound bound")
        return self

    def __repr__(self) -> str:
        return (
            f"GapReport(ratios={self.ratios!r}, g_intersection={self.g_intersection!r}, "
            f"exact_max={self.exact_max!r})"
        )

    @property
    def sound_bound(self) -> int:
        return 2 if self.g_intersection is None else self.g_intersection + 1

    @property
    def threshold(self) -> int:
        """Smallest admissible exponent N for the deformation g + f^N:
        strictly larger than every gap ratio (exactly when components are
        supplied, by the sound bound otherwise) and never less than 2."""
        if self.exact_max is not None:
            return max(2, int(self.exact_max) + 1)
        return max(2, self.sound_bound)


def jacobian_minors(f: Poly, g: Poly) -> list[Poly]:
    """All 2x2 minors of the two Jacobian rows of f and g."""
    df = jacobian(f)
    dg = jacobian(g)
    v = f.ring.nvars
    minors = []
    for i in range(v):
        for j in range(i + 1, v):
            m = df[i] * dg[j] - df[j] * dg[i]
            if not m.is_zero:
                minors.append(m)
    return minors


def _saturated_minors(f: Poly, g: Poly, h: Poly, budget) -> IdealPresentation:
    """The Jacobian minors of (f, g) saturated by h.  The minors themselves are
    kept when their reduced degrevlex basis is the saturation's (nothing was
    removed), and that basis otherwise."""
    if f.constant_term() != 0 or g.constant_term() != 0:
        raise ValueError("f and g must vanish at the origin")
    ideal = IdealPresentation(f.ring, jacobian_minors(f, g))
    sat = saturate_single(ideal, h, budget)
    return ideal if ideal.standard_basis(DEGREVLEX, budget) == sat.generators else sat


def relative_polar_ideal(
    f: Poly,
    g: Poly,
    components: Sequence[BranchParam] = (),
    cap=None,
) -> PolarCurve:
    """The relative polar curve of (f, g): dependency locus of df and dg with
    every component inside {f = 0} or {g = 0} removed by saturation (see
    _saturated_minors).  When df and dg are dependent everywhere, no minor
    survives, and the zero ideal saturates to itself: the locus is the whole
    space, not an empty curve."""
    budget = as_budget(cap)
    ideal = _saturated_minors(f, g, f * g, budget)
    dim = dim_at_origin(ideal, budget)
    curve = PolarCurve(ideal, dim, tuple(components))
    for comp in curve.components:
        check = validate_branch(comp, ideal)
        if not check:
            gen, order = check.violation or ("?", -1)
            raise ComponentMismatchError(
                f"component {comp.name!r} is not on the polar curve: "
                f"generator {gen} has order {order}"
            )
    return curve


def deformed_polar_ideal(f: Poly, g: Poly, cap=None) -> IdealPresentation:
    """The ideal S = M : f^infinity of the Jacobian minors M of (f, g), which is,
    at the origin, the polar ideal of (f, g + f^N) for every N at which
    g + f^N has an isolated singularity (see _saturated_minors).

    M is also the minors ideal of (f, g + f^N), since df ^ d(f^N) = 0, so
    that polar ideal is M : (f*(g + f^N))^infinity = S : (g + f^N)^infinity.
    Let Z be a component of S through 0.  Then f is not identically 0 on Z,
    and df != 0 on Z off {f = 0}, since the critical locus of f lies in
    {f = 0}.  So dg = a*df on Z, and d(g + f^N) = (a + N*f^(N-1))*df.  If
    g + f^N vanished on Z, so would its derivative along Z; f is not
    constant on Z, so a + N*f^(N-1) would vanish on Z, and Z would lie in
    the critical locus of g + f^N.  So when g + f^N is isolated it vanishes
    on no component of S, and the saturation by it leaves S unchanged at
    the origin.  S has no embedded point at 0, since f lies in the maximal
    ideal; where S has a surface component, both S and the polar ideal of
    (f, g + f^N) meet {f = 0} improperly.  No threshold on N is needed.
    """
    return _saturated_minors(f, g, f, as_budget(cap))


def intersection_number(curve: PolarCurve | IdealPresentation, h: Poly, cap=None) -> int:
    """Intersection number at the origin of the (1-dimensional) scheme with
    the hypersurface {h = 0}, as a local quotient dimension.

    When parametrized components are supplied on a PolarCurve, the sum of
    t-orders of h along them (weighted by declared multiplicities) must equal
    the scheme-side number; a disagreement raises ComponentMismatchError
    rather than guessing which route is right.
    """
    ideal = curve.ideal if isinstance(curve, PolarCurve) else curve
    return checked_intersection(curve, lambda: h, quotient_dim_local(ideal.plus([h]), cap))


def checked_intersection(
    curve: PolarCurve | IdealPresentation,
    h: Callable[[], Poly],
    total: int | None,
    orders: Sequence[int | None] | None = None,
) -> int:
    """The scheme-side intersection number total of curve with {h() = 0}
    (None when infinite), for a caller that computed it, checked against the
    components as intersection_number describes.  orders holds, per
    component, the exact t-order of h(branch(t)), None when that is 0 (by
    default read from compose_on_branch(h(), component)).  h builds the
    equation; it is called only for an error message or the default orders,
    so a caller with orders and a passing check builds none."""
    if total is None:
        raise ImproperIntersectionError(
            f"intersection with {h()} has positive dimension at the origin"
        )
    if isinstance(curve, PolarCurve) and curve.components:
        if orders is None:
            equation = h()
            orders = [order_in_t(compose_on_branch(equation, comp)) for comp in curve.components]
        by_orders = 0
        for comp, order in zip(curve.components, orders):
            if order is None:
                raise ImproperIntersectionError(
                    f"{h()} vanishes identically on component {comp.name!r}"
                )
            by_orders += comp.multiplicity * order
        if by_orders != total:
            raise ComponentMismatchError(
                f"component orders sum to {by_orders} but the scheme-side "
                f"intersection number is {total}; the component list is "
                "incomplete or has wrong multiplicities"
            )
    return total


def deformed_order(g_image: Poly, f_image: Poly, n: int) -> int | None:
    """The t-order of g_image + f_image^n, (g + f^n)(branch(t)) for the
    nonzero images g(branch(t)) and f(branch(t)) of one branch; None when
    that sum is 0.  The sum has the order of the lower of the two leading
    terms when their orders differ, and their common order when the
    coefficients lc_g + lc_f^n do not cancel; only a cancelling sum is built."""
    og, of = g_image.min_degree(), f_image.min_degree()
    if og != n * of:
        return min(og, n * of)
    if g_image.terms[(og,)] + f_image.terms[(of,)] ** n:
        return og
    return order_in_t(g_image + f_image**n)


def gap_ratios(f: Poly, g: Poly, curve: PolarCurve, cap=None) -> GapReport:
    """Gap ratios ord_t g / ord_t f of the polar components, plus a sound
    upper bound derived from the total g-intersection number."""
    if curve.is_empty:
        return GapReport(ratios=(), g_intersection=None)
    if curve.dim > 1:
        raise GermlabError(
            f"the relative polar locus of (f = {f}, g = {g}) has dimension {curve.dim} "
            "at the origin; gap ratios and the threshold need a curve"
        )
    total_g = quotient_dim_local(curve.ideal.plus([g]), cap)
    # g and f are composed once per component, once the total is finite;
    # the component check of the total reads the order of the image of g
    images = () if total_g is None else tuple(
        (compose_on_branch(g, comp), compose_on_branch(f, comp)) for comp in curve.components
    )
    checked_intersection(curve, lambda: g, total_g, [order_in_t(g_image) for g_image, _ in images])
    ratios = []
    for comp, (g_image, f_image) in zip(curve.components, images):
        og = local_degree(g, comp, g_image)
        of = local_degree(f, comp, f_image)
        ratios.append(GapRatio(comp.name, og, of, Fraction(og, of)))
    exact_max = max((r.ratio for r in ratios), default=None) if curve.components else None
    return GapReport(tuple(ratios), total_g, exact_max, images)


def iomdin_threshold(f: Poly, g: Poly, curve: PolarCurve | None = None, cap=None) -> int:
    """GapReport.threshold of (f, g), computing the polar curve if not given."""
    budget = as_budget(cap)
    if curve is None:
        curve = relative_polar_ideal(f, g, cap=budget)
    return gap_ratios(f, g, curve, budget).threshold
