"""Ideal arithmetic: normal forms, standard bases, local quotient dimensions,
dimension at the origin and saturation.

Global orders use ordinary multivariate division and Buchberger's algorithm.
Local orders use Mora reduction with ecart control, which terminates on
polynomial input; the resulting bases are standard bases of the localized
ideal at the origin.  Every loop spends from an iteration budget and raises
IterationLimitError instead of spinning.

The kernel is fraction-free: it reduces primitive int multiples of the
polynomials (Poly values with int coefficients, which never leave this
module) and converts back to Fraction coefficients only at the public
boundary, taking the same steps as reduction over the rationals.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import GermlabError, IterationLimitError, RingMismatchError
from .orders import (
    DEGREVLEX,
    ELIM_FIRST,
    LOCAL,
    MonomialOrder,
    ecart,
    leading_monomial,
    leading_term,
)
from .rings import Exponents, Poly, PolyRing, mono_div, mono_divides, mono_lcm, mono_mul

DEFAULT_REDUCTION_CAP = 10**6
POWER_CAP = 6  # largest power tried by has_power_in


class Budget:
    """A decrementing step counter shared across one top-level computation."""

    __slots__ = ("remaining",)

    def __init__(self, cap: int | None = None):
        self.remaining = DEFAULT_REDUCTION_CAP if cap is None else int(cap)

    def spend(self, n: int = 1) -> None:
        self.remaining -= n
        if self.remaining < 0:
            raise IterationLimitError("reduction step cap exceeded")


def as_budget(cap) -> Budget:
    """The Budget a public call spends from: the one passed in, or a fresh one
    for an int cap (None for the default), so the cap bounds the whole call."""
    return cap if isinstance(cap, Budget) else Budget(cap)


def _check_same_ring(polys: Iterable[Poly]) -> PolyRing:
    ring = None
    for p in polys:
        if ring is None:
            ring = p.ring
        elif p.ring != ring:
            raise RingMismatchError("all polynomials must share one ring")
    if ring is None:
        raise ValueError("empty polynomial collection")
    return ring


def _clear_denominators(p: Poly) -> tuple[Poly, int]:
    """(d*p, d) for the least positive d that makes every coefficient an int."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    terms = {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}
    return Poly._make(p.ring, terms), den


def _with_terms(p: Poly, terms: dict) -> Poly:
    """A Poly on p's support with new coefficients; p's leading monomials carry over."""
    q = Poly._make(p.ring, terms)
    if p._lead is not None:
        object.__setattr__(q, "_lead", dict(p._lead))
    return q


def _primitive(p: Poly, order: MonomialOrder) -> Poly:
    """p (int coefficients) divided by its content, leading coefficient positive."""
    _, lc = leading_term(p, order)
    content = math.gcd(*p.terms.values())
    if lc < 0:
        content = -content
    if content == 1:
        return p
    return _with_terms(p, {e: c // content for e, c in p.terms.items()})


def _integral(p: Poly, order: MonomialOrder) -> Poly:
    """The primitive integer multiple of p with a positive leading coefficient:
    the kernel's representative of p up to a nonzero rational factor."""
    return _primitive(_clear_denominators(p)[0], order)


def _monic_rational(p: Poly, order: MonomialOrder) -> Poly:
    """p divided by its leading coefficient, with Fraction coefficients."""
    _, lc = leading_term(p, order)
    return _with_terms(p, {e: Fraction(c, lc) for e, c in p.terms.items()})


def _shift(p: Poly, exps: Exponents) -> Poly:
    """x^exps * p."""
    return Poly._make(p.ring, {mono_mul(e, exps): c for e, c in p.terms.items()})


def _sub_shifted(h: Poly, lch: int, g: Poly, lcg: int, exps: Exponents) -> tuple[Poly, int]:
    """(a*h - b*x^exps*g, a) with (a, b) = (lcg, lch) / gcd(lch, lcg) and a > 0.

    The result is a*(h - (lch/lcg)*x^exps*g), the rational reduction step
    times a positive int; when lch is the coefficient of h at x^exps * lm(g)
    and lcg that of g at lm(g), that term cancels.  Built in one pass over the
    terms of g.
    """
    d = math.gcd(lch, lcg)
    a, b = lcg // d, lch // d
    if a < 0:
        a, b = -a, -b
    acc = dict(h.terms) if a == 1 else {e: a * c for e, c in h.terms.items()}
    for e, c in g.terms.items():
        m = mono_mul(e, exps)
        s = acc.get(m)
        s = -(c * b) if s is None else s - c * b
        if s:
            acc[m] = s
        else:
            del acc[m]
    return Poly._make(h.ring, acc), a


def _without(h: Poly, lm: Exponents) -> Poly:
    """h with its term at lm removed."""
    acc = dict(h.terms)
    del acc[lm]
    return Poly._make(h.ring, acc)


def _rescaled_tail(ring: PolyRing, tail: list[tuple[Exponents, int, int]], scale: int) -> Poly:
    """The remainder from tail terms (lm, lc, s), each popped while the
    reduced polynomial carried the scale s, brought to the final scale."""
    return Poly._make(ring, {lm: lc * (scale // s) for lm, lc, s in tail})


# ---------------------------------------------------------------------------
# normal forms
#
# The kernel works on int coefficients.  A reduction step multiplies the
# reduced polynomial h by a positive int a (see _sub_shifted), so each routine
# also returns the product of those factors: its scale.  The int result is
# scale times the remainder that rational reduction of the same input gives.
# ---------------------------------------------------------------------------


def _divide_global(
    p: Poly, basis: Sequence[Poly], order: MonomialOrder, budget: Budget
) -> tuple[Poly, int]:
    """Fully reduced remainder of p modulo basis for a global order, and its scale."""
    lead = [leading_term(g, order) for g in basis]
    tail: list[tuple[Exponents, int, int]] = []
    scale = 1
    h = p
    while not h.is_zero:
        lm, lc = leading_term(h, order)
        for g, (lmg, lcg) in zip(basis, lead):
            if mono_divides(lmg, lm):
                budget.spend()
                h, a = _sub_shifted(h, lc, g, lcg, mono_div(lm, lmg))
                scale *= a
                break
        else:
            tail.append((lm, lc, scale))
            h = _without(h, lm)
    return _rescaled_tail(p.ring, tail, scale), scale


def _mora_weak(
    p: Poly, basis: Sequence[Poly], order: MonomialOrder, budget: Budget
) -> tuple[Poly, int]:
    """Mora weak normal form, and its scale: the leading term of the result is
    irreducible.

    The returned remainder r satisfies u*p = q + r in the local ring for some
    unit u and q in the ideal generated by the basis; in particular r == 0
    exactly when p lies in the localized ideal, provided the basis is a
    standard basis.
    """
    reducers = list(basis)
    lead = [leading_term(g, order) for g in reducers]
    ecarts = [ecart(g, order) for g in reducers]
    scale = 1
    h = p
    while not h.is_zero:
        lm, lc = leading_term(h, order)
        best = -1
        best_ecart = None
        for i, (lmg, _) in enumerate(lead):
            if mono_divides(lmg, lm) and (best_ecart is None or ecarts[i] < best_ecart):
                best = i
                best_ecart = ecarts[i]
        if best < 0:
            break
        eh = h.total_degree() - sum(lm)
        if best_ecart is not None and best_ecart > eh:
            reducers.append(h)
            lead.append((lm, lc))
            ecarts.append(eh)
        lmg, lcg = lead[best]
        budget.spend()
        h, a = _sub_shifted(h, lc, reducers[best], lcg, mono_div(lm, lmg))
        scale *= a
    return h, scale


def _reduce_local(
    p: Poly, basis: Sequence[Poly], order: MonomialOrder, budget: Budget
) -> tuple[Poly, int]:
    """Tail-reduced local normal form, and its scale: pop irreducible leading
    terms and keep running Mora reduction on the rest.  Termination is
    budget-guarded."""
    tail: list[tuple[Exponents, int, int]] = []
    scale = 1
    h = p
    while not h.is_zero:
        h, a = _mora_weak(h, basis, order, budget)
        scale *= a
        if h.is_zero:
            break
        lm, lc = leading_term(h, order)
        tail.append((lm, lc, scale))
        h = _without(h, lm)
    return _rescaled_tail(p.ring, tail, scale), scale


def normal_form(p: Poly, basis: Sequence[Poly], order: MonomialOrder, cap=None) -> Poly:
    """Remainder of p on division by basis.

    No term of the result is divisible by a basis leading term.  For global
    orders the difference p - result lies in the ideal generated by the basis;
    for local orders the statement holds in the local ring up to a unit
    factor, and result == 0 still characterizes ideal membership whenever the
    basis is a standard basis.  The reduction runs on int multiples of p and
    of the basis; dividing by the tracked scale gives the exact rational
    remainder.
    """
    budget = as_budget(cap)
    basis = [g for g in basis if not g.is_zero]
    if not basis:
        return p
    _check_same_ring([p, *basis])
    h, den = _clear_denominators(p)
    reducers = [_integral(g, order) for g in basis]
    reduce = _divide_global if order.is_global else _reduce_local
    r, scale = reduce(h, reducers, order, budget)
    scale *= den
    return Poly._make(p.ring, {e: Fraction(c, scale) for e, c in r.terms.items()})


def _weak_nf(p: Poly, basis: Sequence[Poly], order: MonomialOrder, budget: Budget) -> Poly:
    """Cheapest normal form adequate for membership tests and basis building,
    up to a positive int factor."""
    if order.is_global:
        return _divide_global(p, basis, order, budget)[0]
    return _mora_weak(p, basis, order, budget)[0]


# ---------------------------------------------------------------------------
# standard bases
# ---------------------------------------------------------------------------


def _spoly(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    """The S-polynomial of two int polynomials, up to a positive int factor."""
    lmf, lcf = leading_term(f, order)
    lmg, lcg = leading_term(g, order)
    lcm = mono_lcm(lmf, lmg)
    return _sub_shifted(_shift(f, mono_div(lcm, lmf)), lcf, g, lcg, mono_div(lcm, lmg))[0]


def _interreduce_global(basis: list[Poly], order: MonomialOrder, budget: Budget) -> list[Poly]:
    """Tail-reduce a minimal global basis to the unique reduced basis."""
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1 :]
            r = _divide_global(basis[i], others, order, budget)[0]
            if r != basis[i]:
                if r.is_zero:
                    raise GermlabError("interreduction killed a minimal basis element")
                basis[i] = _primitive(r, order)
                changed = True
    return basis


def standard_basis_of(
    generators: Sequence[Poly], order: MonomialOrder, cap=None
) -> tuple[Poly, ...]:
    """Buchberger/Mora completion of the generators under the given order.

    The result is deterministic: pairs are selected by smallest lcm key (ties
    broken by index), the basis is minimalized, made monic, sorted by leading
    monomial, and (for global orders) fully tail-reduced.  Pairs wait in a
    heap keyed once, when the pair is formed; basis entries never change after
    they are appended, so the key of a waiting pair stays valid.

    The completion runs fraction-free: each generator and each new basis
    element is kept as its primitive int multiple with a positive leading
    coefficient, and only the returned basis is made monic over the
    rationals.  Every intermediate polynomial is a nonzero rational multiple
    of the one rational arithmetic would build, and every decision reads only
    supports, leading monomials and (to drop duplicate generators) primitive
    forms, so the steps are the same.
    """
    budget = as_budget(cap)
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        return ()
    _check_same_ring(gens)
    gens = [_integral(g, order) for g in gens]
    gens.sort(key=lambda g: order.key(leading_term(g, order)[0]))
    basis: list[Poly] = []
    lead: list[Exponents] = []
    pairs: list[tuple] = []  # heap of (order.key(lcm), i, j, lcm) with i < j

    def append(g: Poly) -> None:
        j = len(basis)
        lmj = leading_monomial(g, order)
        for i, lmi in enumerate(lead):
            lcm = mono_lcm(lmi, lmj)
            heapq.heappush(pairs, (order.key(lcm), i, j, lcm))
        basis.append(g)
        lead.append(lmj)

    for g in gens:
        if g not in basis:
            append(g)

    while pairs:
        budget.spend()
        _, i, j, lcm = heapq.heappop(pairs)
        if lcm == mono_mul(lead[i], lead[j]):
            continue  # coprime leading terms reduce to zero
        s = _spoly(basis[i], basis[j], order)
        if s.is_zero:
            continue
        r = _weak_nf(s, basis, order, budget)
        if r.is_zero:
            continue
        append(_primitive(r, order))

    # minimalize: drop elements whose leading monomial is divisible by another
    keep: list[int] = []
    for i, lm in enumerate(lead):
        dominated = False
        for j, lm2 in enumerate(lead):
            if i == j:
                continue
            if mono_divides(lm2, lm) and (lm2 != lm or j < i):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    minimal = [basis[i] for i in keep]
    minimal.sort(key=lambda g: order.key(leading_term(g, order)[0]))
    if order.is_global:
        minimal = _interreduce_global(minimal, order, budget)
        minimal.sort(key=lambda g: order.key(leading_term(g, order)[0]))
    return tuple(_monic_rational(g, order) for g in minimal)


class IdealPresentation:
    """A generator list together with cached standard bases per order.

    The cache is confined to this object; distinct presentations never share
    state, so separate sessions are safe to use on separate threads.
    """

    __slots__ = ("ring", "generators", "_bases")

    def __init__(self, ring: PolyRing, generators: Iterable[Poly] = ()):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise RingMismatchError("generator ring mismatch")
            if not g.is_zero and g not in gens:
                gens.append(g)
        if not gens:
            gens = [ring.zero()]
        self.ring = ring
        self.generators = tuple(gens)
        self._bases: dict[MonomialOrder, tuple[Poly, ...]] = {}

    def standard_basis(self, order: MonomialOrder, cap=None) -> tuple[Poly, ...]:
        cached = self._bases.get(order)
        if cached is None:
            cached = standard_basis_of(self.generators, order, cap)
            self._bases[order] = cached
        return cached

    def plus(self, extra: Iterable[Poly]) -> "IdealPresentation":
        return IdealPresentation(self.ring, list(self.generators) + list(extra))

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators)
        return f"Ideal<{gens}>"


def contains(I: IdealPresentation, p: Poly, order: MonomialOrder = LOCAL, cap=None) -> bool:
    """Ideal membership of p, local by default (membership in the localized
    ideal at the origin)."""
    if p.is_zero:
        return True
    budget = as_budget(cap)
    basis = I.standard_basis(order, budget)
    if not basis:
        return False
    reducers = [_integral(g, order) for g in basis]
    return _weak_nf(_clear_denominators(p)[0], reducers, order, budget).is_zero


def ideal_contains(I: IdealPresentation, J: IdealPresentation, order: MonomialOrder, cap=None) -> bool:
    budget = as_budget(cap)
    return all(contains(I, g, order, budget) for g in J.generators)


def ideal_equal(I: IdealPresentation, J: IdealPresentation, order: MonomialOrder = DEGREVLEX, cap=None) -> bool:
    budget = as_budget(cap)
    return ideal_contains(I, J, order, budget) and ideal_contains(J, I, order, budget)


# ---------------------------------------------------------------------------
# local quotient dimension and dimension at the origin
# ---------------------------------------------------------------------------


def _local_leading_monomials(I: IdealPresentation, cap) -> list[Exponents]:
    basis = I.standard_basis(LOCAL, cap)
    return [leading_term(g, LOCAL)[0] for g in basis]


def quotient_dim_local(I: IdealPresentation, cap=None) -> int | None:
    """Dimension over QQ of the local ring at the origin modulo I.

    Counts standard monomials of the local standard basis.  Returns None when
    the quotient is infinite-dimensional, which happens exactly when some
    variable has no pure power among the leading terms.
    """
    lms = _local_leading_monomials(I, cap)
    if not lms:
        return None  # zero ideal in at least one variable
    v = I.ring.nvars
    zero = (0,) * v
    if zero in lms:
        return 0
    bounds = []
    for i in range(v):
        pure = [e[i] for e in lms if all(x == 0 for j, x in enumerate(e) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    count = 0
    for exps in itertools.product(*(range(b) for b in bounds)):
        if not any(mono_divides(lm, exps) for lm in lms):
            count += 1
    return count


def dim_at_origin(I: IdealPresentation, cap=None) -> int:
    """Krull dimension at the origin of the vanishing locus of I.

    Returns -1 for the empty germ (unit ideal).  Computed from the staircase
    of the local leading-term ideal via maximal independent variable sets.
    """
    lms = _local_leading_monomials(I, cap)
    v = I.ring.nvars
    if not lms:
        return v
    if (0,) * v in lms:
        return -1
    supports = [frozenset(i for i, e in enumerate(lm) if e) for lm in lms]
    for size in range(v, 0, -1):
        for subset in itertools.combinations(range(v), size):
            s = set(subset)
            if not any(sup <= s for sup in supports):
                return size
    return 0


# ---------------------------------------------------------------------------
# saturation by elimination of one tag variable
# ---------------------------------------------------------------------------


def saturate_single(I: IdealPresentation, f: Poly, cap=None) -> IdealPresentation:
    """The saturation I : <f>^infinity = (I, 1 - t*f) ∩ Q[x] (Rabinowitsch).

    The intersection is the t-free part of the reduced ELIM_FIRST basis in
    Q[t, x]; on t-free monomials ELIM_FIRST ranks like DEGREVLEX, so that part
    is the reduced monic degrevlex basis of the saturated ideal.  When the
    saturation removes nothing, I itself is returned, so its generators are
    kept as given; otherwise the result carries that degrevlex basis.
    """
    budget = as_budget(cap)
    ring = I.ring
    if f.is_zero:
        return IdealPresentation(ring, [ring.one()])
    tag = "_t"
    while tag in ring.variables:
        tag += "_"
    ext = PolyRing((tag, *ring.variables))

    def lift(p: Poly) -> Poly:
        return Poly._make(ext, {(0, *e): c for e, c in p.terms.items()})

    gens = [lift(g) for g in I.generators if not g.is_zero]
    gens.append(ext.one() - ext.variable(0) * lift(f))
    kept = [
        Poly._make(ring, {e[1:]: c for e, c in g.terms.items()})
        for g in standard_basis_of(gens, ELIM_FIRST, budget)
        if all(e[0] == 0 for e in g.terms)
    ]
    sat = IdealPresentation(ring, kept)
    return I if ideal_contains(I, sat, DEGREVLEX, budget) else sat


def has_power_in(p: Poly, I: IdealPresentation, cap=None) -> bool:
    """Whether some power p^k (k <= POWER_CAP) lies in I locally at the origin."""
    if p.is_zero:
        return True
    budget = as_budget(cap)
    q = p.ring.one()
    for _ in range(POWER_CAP):
        q = q * p
        if contains(I, q, LOCAL, budget):
            return True
    return False
