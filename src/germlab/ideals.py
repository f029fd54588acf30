"""Ideal arithmetic: normal forms, standard bases, local quotient dimensions,
dimension at the origin and saturation.

One completion serves every order (see _complete): Buchberger's algorithm
on homogenizations, read back in the original variables (Lazard's method),
with pairs taken by sugar (Giovini-Mora-Niesi-Robbiano-Traverso, ISSAC
1991) and one reduction loop that runs within the degree each element
carries.  A pair with coprime leading monomials is settled when it is
formed; a global completion drops pairs by Gebauer and Moeller's update,
and a LOCAL one skips a popped pair by Buchberger's chain criterion and
truncates at the highest corner.  LOCAL bases are standard
bases of the localized ideal at the origin, and a LOCAL completion can
resume from a completed base, pairing only the generators it adds.
Full division takes its leading monomial with `pk.lead` each step, as
every other kernel loop does; it serves the tail reduction of global bases
and `normal_form`, which takes global orders only, since a local remainder
is fixed only up to a unit.  Their remainders are a few terms long, so a
heap of pending monomials (Monagan-Pearce, CASC 2007) saved no measurable
time and was dropped.  Global membership is `normal_form(...).is_zero`.
Every loop spends from an iteration budget and raises IterationLimitError
instead of spinning.

The kernel reduces primitive int multiples of the polynomials, as term dicts
whose monomials are ints packed by the order (orders._Packing;
Bachmann-Schoenemann, ISSAC 1998): a product is one `+`, and the leading
monomial is the dict's `max`, or its `min` under LOCAL.  `standard_basis_of`
packs, then completes (`_complete`) unless its Budget already holds that
basis (see Budget.completed).  The sweep rows of
verifier.ScenarioContext enter `_complete` with generators built on ints,
and resume bases that it completed once per run; `normal_form` packs on
entry.  Results return Fraction coefficients on exponent tuples,
taking the steps of rational reduction on tuples; a StandardBasis unpacks
only when its polynomials are read.  A degree the packed fields cannot hold
raises GermlabError.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import GermlabError, IterationLimitError, RingMismatchError
from .orders import _FIELD_BITS, ELIM_FIRST, LOCAL, MonomialOrder, _Packing
from .rings import Exponents, Poly, PolyRing, _numerators

DEFAULT_REDUCTION_CAP = 10**6


class Budget:
    """A decrementing step counter shared across one top-level computation.
    Its cap, the steps it started with, also bounds the size of each local
    staircase (see _Staircase).

    It also keeps every standard basis it paid for (see completed), so one
    computation completes each ideal once: the bases live and die with the
    Budget, and a computation with another Budget completes them again."""

    __slots__ = ("cap", "remaining", "bases")

    def __init__(self, cap: int | None = None):
        self.cap = self.remaining = DEFAULT_REDUCTION_CAP if cap is None else int(cap)
        self.bases: dict[tuple, StandardBasis] = {}

    def spend(self, k: int = 1) -> None:
        """Spend k steps; raise once more than the cap are spent."""
        self.remaining -= k
        if self.remaining < 0:
            raise IterationLimitError("reduction step cap exceeded")

    def completed(self, ring: PolyRing, order: MonomialOrder, packed: list[dict]) -> StandardBasis:
        """_complete(ring, order, packed, self), completed on the first request
        and returned again, spending no step, on a later one.

        The key is the ring, the order and the set of the packed generators,
        each the kernel's primitive int multiple (see _integral), so h and -h
        share a key and the order of the generators does not matter.  A
        reduced global basis depends only on the ideal; so do the staircase,
        the corner and the leading monomials of a LOCAL one, which is all
        that germlab reads of it besides the completion a row resumes.  The
        first request of a run is the same on every run, so a hit returns
        the same basis each time."""
        key = (ring, order, frozenset(frozenset(h.items()) for h in packed))
        basis = self.bases.get(key)
        if basis is None:
            basis = self.bases[key] = _complete(ring, order, packed, self)
        return basis


def as_budget(cap) -> Budget:
    """The Budget a public call spends from: the one passed in, or a fresh one
    for an int cap (None for the default), so the cap bounds the whole call."""
    return cap if isinstance(cap, Budget) else Budget(cap)


def _check_same_ring(polys: Sequence[Poly]) -> PolyRing | None:
    if any(p.ring != polys[0].ring for p in polys):
        raise RingMismatchError("all polynomials must share one ring")
    return polys[0].ring if polys else None


# ---------------------------------------------------------------------------
# packed term dicts
#
# Inside the kernel a polynomial is a dict from packed monomials to ints.  A
# reduction step multiplies the reduced polynomial h by a positive int a (see
# _subtract_into).  Global division also returns the product of those
# factors, its scale: the int remainder is scale times the one rational
# division of the same input gives.  The local loop returns its result only
# up to that factor.
# ---------------------------------------------------------------------------


def _packed(p: Poly, pk: _Packing) -> tuple[dict, int]:
    """(d*p, d) on packed monomials, for the least positive d that makes
    every coefficient an int."""
    terms, den = _numerators(p.terms)
    pk.check_degree(max(map(sum, terms), default=0))
    return {sum(map(mul, e, pk.units)): c for e, c in terms.items()}, den


def _primitive(h: dict, lm: int) -> dict:
    """h divided by its content, its coefficient at lm positive."""
    content = math.gcd(*h.values())
    if h[lm] < 0:
        content = -content
    if content == 1:
        return h
    return {m: c // content for m, c in h.items()}


def _integral(p: Poly, pk: _Packing) -> dict:
    """The primitive int multiple of p with a positive leading coefficient,
    packed: the kernel's representative of p up to a nonzero rational factor."""
    h = _packed(p, pk)[0]
    return _primitive(h, pk.lead(h))


def _unpacked(ring: PolyRing, h: dict, den: int, pk: _Packing) -> Poly:
    """h / den as a Poly."""
    unpack = pk.unpack
    return Poly._make(ring, {unpack(m): Fraction(c, den) for m, c in h.items()})


def _reducer(h: dict, pk: _Packing, sugar: int = 0) -> tuple:
    """(lm, lc, ecart, h, raw, deg): what a reduction step reads of the
    reducer h, computed once per basis element instead of once per step.
    raw is lm's raw-exponent fields (see _Packing) and deg the degree of
    h.  The ecart slot is s - |lm| for the sugar s the completion gives h:
    the larger of sugar and deg h, which is deg h for a generator and sugar
    for a reduced S-polynomial (see _weak_normal_form)."""
    lm, top = pk.lead(h), pk.top
    # with the degree on top, the largest int has the largest degree; under
    # ELIM_FIRST the degree is the first exponent plus that of the tail
    deg = max(h) >> top if pk.degree_on_top else max((m >> top) + (m >> (top - _FIELD_BITS) & pk.fill) for m in h)
    return lm, h[lm], max(sugar, deg) - pk.degree(lm), h, lm & pk.raw, deg


def _subtract_into(
    acc: dict, lch: int, g: tuple, shift: int, pk: _Packing,
    bound: int | None = None,
) -> int:
    """acc := a*acc - b*x^shift*g in place for the reducer g (see _reducer),
    with (a, b) = (lc g, lch) / gcd(lch, lc g) and a > 0; returns a.

    For the h that acc holds, that is a*(h - (lch/lc g)*x^shift*g): the
    rational reduction step times a positive int.  When lch is h's
    coefficient at x^shift * lm(g), that term cancels and leaves acc.  One
    pass over the terms of g, after one check that no product reaches the
    packed degree limit.  With a bound (see _Packing.corner), the products
    that pack to bound or above are left out, so acc gains no such term.
    """
    pk.check_degree(pk.degree(shift) + g[5])
    lcg = g[1]
    d = math.gcd(lch, lcg)
    a, b = lcg // d, lch // d
    if a < 0:
        a, b = -a, -b
    if a != 1:
        for m, c in acc.items():
            acc[m] = a * c
    for e, c in g[3].items():
        m = e + shift
        if bound is not None and m >= bound:
            continue
        s = acc.get(m)
        if s is None:
            acc[m] = -(c * b)
        else:
            s -= c * b
            if s:
                acc[m] = s
            else:
                del acc[m]
    return a


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------


def _divide_global(h: dict, reducers: Sequence[tuple], pk: _Packing, budget: Budget) -> tuple[dict, int]:
    """Fully reduced remainder of h modulo the reducers (see _reducer) for a
    global order, and its scale.

    The remainder lives in one term dict.  Each step takes its leading
    monomial with `pk.lead`, as every other kernel loop does, and reduces
    it by the first reducer whose leading monomial divides it; an
    irreducible leading term moves to the tail.  The scan reads the whole
    dict each step.  A heap of pending monomials (Monagan-Pearce, CASC
    2007) took the same steps and saved no measurable time, since the
    remainders of tail reduction and of `normal_form`'s callers are a few
    terms long, so it was dropped.
    """
    acc = dict(h)
    guards = pk.guards
    tail: list[tuple[int, int, int]] = []
    scale = 1
    while acc:
        lm = pk.lead(acc)
        lc = acc[lm]
        over = lm | guards
        for g in reducers:
            if (over - g[4]) & guards == guards:
                budget.spend()
                scale *= _subtract_into(acc, lc, g, lm - g[0], pk)
                break
        else:
            tail.append((lm, lc, scale))
            del acc[lm]
    # each tail term was taken at the scale s; bring it to the final scale
    return {lm: lc * (scale // s) for lm, lc, s in tail}, scale


def _weak_normal_form(
    h: dict,
    reducers: Sequence[tuple],
    pk: _Packing,
    budget: Budget,
    bound: int | None,
    sugar: int,
) -> dict:
    """Weak normal form of the S-polynomial h within its sugar, for the
    completion under any order, up to a positive int factor: its leading
    term is irreducible, or its sugar leaves no room to reduce it.  h is
    consumed.

    A reducer (see _reducer) carries the ecart slot e = s - |lm g| for the
    sugar s of g.  Each step reduces the leading term of h by the first
    reducer of least ecart among those whose leading monomial divides lm(h),
    and the loop stops when that ecart exceeds the room sugar - |lm h|; the
    scan stops at the first divisor of ecart 0, since none is smaller.  The
    homogenization t^s * g(x/t) leads with t^e * lm(g) under the order that
    ranks by degree and then by the given order, so these are the steps of
    homogeneous division in degree `sugar`: every term stays of degree <=
    sugar and the leading monomial falls.  A nonzero result may lead with a
    monomial that a reducer of larger ecart divides; the completion keeps it
    as a basis element.

    With a highest corner D (m^D inside the ideal) passed as its bound (see
    _Packing.corner), h and every intermediate remainder drop their terms
    of degree >= D.
    """
    if bound is not None:
        h = {m: c for m, c in h.items() if m < bound}
    guards = pk.guards
    while h:
        lm = pk.lead(h)
        over = lm | guards
        best = None
        for g in reducers:
            if (best is None or g[2] < best[2]) and (over - g[4]) & guards == guards:
                best = g
                if not g[2]:
                    break
        if best is None or best[2] > sugar - pk.degree(lm):
            break
        budget.spend()
        _subtract_into(h, h[lm], best, lm - best[0], pk, bound)
    return h


def normal_form(p: Poly, basis: Sequence[Poly], order: MonomialOrder, cap=None) -> Poly:
    """Remainder of p on division by basis under a global order.

    No term of the result is divisible by a basis leading term, and p - result
    lies in the ideal generated by the basis.  The division runs on int
    multiples of p and of the basis; dividing by the tracked scale gives the
    exact rational remainder.  A local order raises ValueError: there the
    remainder is fixed only up to a unit.

    Each division step scans the whole remainder for its leading monomial,
    so a dividend of hundreds of terms costs tens of milliseconds: 42 ms for
    the 1771 terms of (1 + x + 2y + 3z)^20 modulo (x^3 - yz, y^4 - xz^2),
    where a heap of pending monomials took 9 ms (CPython 3.11, one core of
    a shared Xeon).  No command divides a remainder that large.
    """
    if order.is_local:
        raise ValueError("normal_form takes a global order; a local remainder is fixed only up to a unit")
    budget = as_budget(cap)
    _check_same_ring([p, *basis])
    basis = [g for g in basis if not g.is_zero]
    if not basis:
        return p
    pk = order._packing(p.ring.nvars)
    reducers = [_reducer(_integral(g, pk), pk) for g in basis]
    h, den = _packed(p, pk)
    r, scale = _divide_global(h, reducers, pk, budget)
    # the remainder's terms leave the division largest first
    return _unpacked(p.ring, r, scale * den, pk)


# ---------------------------------------------------------------------------
# standard bases
# ---------------------------------------------------------------------------


def _spoly(f: tuple, g: tuple, lcm: int, pk: _Packing) -> dict:
    """The S-polynomial of the reducers f and g, whose leading monomials have
    the lcm lcm, up to a positive int factor."""
    shift = lcm - f[0]
    pk.check_degree(pk.degree(shift) + f[5])
    acc = {m + shift: c for m, c in f[3].items()}
    _subtract_into(acc, f[1], g, lcm - g[0], pk)
    return acc


def _interreduce_global(reducers: list[tuple], pk: _Packing, budget: Budget) -> list[tuple]:
    """Tail-reduce a minimal global basis, given as its reducers, to the
    unique reduced basis.

    One pass suffices: no leading monomial of a minimal basis divides
    another, so reduction keeps every leading monomial, and a remainder with
    no term divisible by one of them stays reduced when other tails change.
    """
    for i, g in enumerate(reducers):
        r = _divide_global(g[3], reducers[:i] + reducers[i + 1 :], pk, budget)[0]
        if r != g[3]:
            if not r:
                raise GermlabError("interreduction killed a minimal basis element")
            reducers[i] = _reducer(_primitive(r, g[0]), pk)
    return reducers


class StandardBasis:
    """The monic basis standard_basis_of returns: a sequence of Poly, equal
    to the tuple of them.

    It keeps the kernel's minimal basis, packed, and builds the monic Fraction
    polynomials on first read (iteration, indexing, equality), once.  Its
    length and `leading`, the leading monomials as exponent tuples, need no
    build.  Under LOCAL it also carries `staircase_size`, the number of
    standard monomials, and `corner`, the highest corner (see _Staircase);
    both are None when the quotient is infinite and under global orders.
    A LOCAL basis that _complete built keeps its `completion`, from which a
    larger ideal's completion resumes (see _complete); it is None otherwise.
    Such a basis minimalizes its completion (see _minimalized) on the first
    read of `elements`, `leading` or its length, once, so a caller that
    reads only the staircase pays for no minimalization.
    """

    __slots__ = ("ring", "order", "_elements", "_leading", "staircase_size", "corner", "completion", "_polys")

    def __init__(
        self, ring: PolyRing | None = None, order: MonomialOrder | None = None,
        elements: Sequence[tuple[int, dict]] = (), leading: Sequence[Exponents] = (),
        staircase_size: int | None = None, corner: int | None = None,
        completion: tuple[tuple[tuple, ...], _Staircase] | None = None,
    ):
        self.ring = ring
        self.order = order
        self.staircase_size = staircase_size
        self.corner = corner
        # every reducer before minimalization, and the staircase of their
        # leading monomials; given one, elements and leading come from it
        self.completion = completion
        lazy = completion is not None
        self._elements: tuple[tuple[int, dict], ...] | None = None if lazy else tuple(elements)
        self._leading: tuple[Exponents, ...] | None = None if lazy else tuple(leading)
        self._polys: tuple[Poly, ...] | None = None

    def _minimalize(self) -> None:
        reducers, stairs = self.completion
        kept, leading = _minimalized(reducers, stairs.lead, self.order._packing(self.ring.nvars), True)
        self._elements = tuple((g[0], g[3]) for g in kept)
        self._leading = tuple(leading)

    @property
    def elements(self) -> tuple[tuple[int, dict], ...]:
        """(leading monomial, primitive int dict) per element, packed."""
        if self._elements is None:
            self._minimalize()
        return self._elements

    @property
    def leading(self) -> tuple[Exponents, ...]:
        if self._leading is None:
            self._minimalize()
        return self._leading

    def _built(self) -> tuple[Poly, ...]:
        polys = self._polys
        if polys is None:
            elements = self.elements
            pk = self.order._packing(self.ring.nvars) if elements else None
            polys = self._polys = tuple(_unpacked(self.ring, h, h[lm], pk) for lm, h in elements)
        return polys

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self._built())

    def __getitem__(self, i):
        return self._built()[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, StandardBasis):
            other = other._built()
        elif not isinstance(other, tuple):
            return NotImplemented
        return self._built() == other

    def __hash__(self) -> int:
        return hash(self._built())

    def __repr__(self) -> str:
        return repr(self._built())


def _minimalized(reducers: Sequence[tuple], lead: Sequence[Exponents], pk: _Packing, local: bool) -> tuple[list, list]:
    """The reducers of a minimal basis among the given ones, with their
    leading monomials unpacked, sorted by leading monomial: an element is
    dropped when another's leading monomial divides its own, or equals it
    at a lower index."""
    guards = pk.guards
    minimal = []
    for i, (g, lm) in enumerate(zip(reducers, lead)):
        over = g[0] | guards
        if not any(
            (over - h[4]) & guards == guards and (h[0] != g[0] or j < i) for j, h in enumerate(reducers)
        ):
            minimal.append((g, lm))
    minimal.sort(key=lambda gl: gl[0][0], reverse=local)
    return [g for g, _ in minimal], [lm for _, lm in minimal]


def _staircase_count(lead: Sequence[Exponents], nvars: int, limit: int) -> tuple[int, int]:
    """(the number of monomials no leading monomial divides, 1 + their
    largest degree); each variable must have a pure power among the leading
    monomials.  More than limit of them raises IterationLimitError.

    The exponents are fixed one variable at a time, keeping only the leading
    monomials whose exponents so far are at most the prefix's.  The exponent
    of a variable rises until that prefix, padded with zeros, is divisible;
    for the last variable the bound is the least exponent left.  The kept
    leading monomials change only where the exponent passes one of theirs,
    so the prefixes between two such exponents have the same count below
    them, at degrees one apart: each such run is walked once, and the work
    goes by the leading monomials, not by the monomials of the staircase.
    No monomial is built.  The limit is checked where a walk over every
    prefix in turn would check it, so the error names the same count.
    """
    last = nvars - 1

    def walk(k: int, lead: list[Exponents], before: int) -> tuple[int, int]:
        """(count, largest degree) over the exponents of variables k..last,
        with before monomials counted ahead of them."""
        if k == last:
            top = min(lm[k] for lm in lead)
            if before + top > limit:
                raise IterationLimitError(
                    f"reduction step cap exceeded: the staircase has at least "
                    f"{before + top} standard monomials, more than the cap of {limit}"
                )
            return top, top - 1
        size, degree = 0, -1
        # the pure power of the last variable keeps 0 among the exponents,
        # and that of variable k ends the walk before the largest
        steps = sorted({lm[k] for lm in lead})
        for a, b in zip(steps, steps[1:]):
            active = [lm for lm in lead if lm[k] <= a]
            if any(not any(lm[k + 1 :]) for lm in active):
                break
            count, top = walk(k + 1, active, before + size)
            if before + size + (b - a) * count > limit:
                # the exponent within the run at which the walk passes the limit
                walk(k + 1, active, before + size + (limit - before - size) // count * count)
            size += (b - a) * count
            degree = max(degree, top + b - 1)
        return size, degree

    size, degree = walk(0, list(lead), 0)
    return size, degree + 1


class _Staircase:
    """The number of standard monomials of a growing list `lead` of LOCAL
    leading monomials, `size`, and their highest corner D: 1 + the largest
    degree of a standard monomial.  Both are None until every variable has a
    pure power.

    Every monomial of degree >= D is then a leading monomial of the ideal,
    so m^D lies in the ideal in the local ring (Greuel-Pfister, A Singular
    Introduction to Commutative Algebra, 1.7): terms of degree >= D can be
    dropped without changing the leading ideal.  Both are counted, not
    listed (see _staircase_count), on a read of the corner once every
    variable has a pure power and again on a read after lead grew.  More
    than `limit` standard monomials raise IterationLimitError.
    """

    __slots__ = ("lead", "nvars", "limit", "missing", "seen", "size", "corner")

    def __init__(self, lead: list[Exponents], nvars: int, limit: int):
        self.lead = lead
        self.nvars = nvars
        self.limit = limit
        self.missing = set(range(nvars))
        self.seen = 0  # how many of lead the count accounts for
        self.size: int | None = None
        self.corner: int | None = None

    def copy(self, limit: int) -> "_Staircase":
        """The same staircase over a copy of lead, which appends to the copy
        leave this one without; it raises past limit."""
        twin = _Staircase(list(self.lead), self.nvars, limit)
        twin.missing = set(self.missing)
        twin.seen, twin.size, twin.corner = self.seen, self.size, self.corner
        return twin

    def add(self, lm: Exponents) -> None:
        """Account for lm, just appended to lead."""
        if self.missing:
            support = [i for i, a in enumerate(lm) if a]
            if len(support) <= 1:
                self.missing.difference_update(support or range(len(lm)))

    def read(self) -> int | None:
        """The corner of the whole of lead."""
        if self.missing or self.seen == len(self.lead):
            return self.corner
        self.size, self.corner = _staircase_count(self.lead, self.nvars, self.limit)
        self.seen = len(self.lead)
        return self.corner


def standard_basis_of(generators: Sequence[Poly], order: MonomialOrder, cap=None) -> StandardBasis:
    """Buchberger completion of the generators under the given order (under
    ELIM_FIRST, the basis of the elimination ideal): pack each as its
    primitive int multiple (see _integral), then complete."""
    budget = as_budget(cap)
    ring = _check_same_ring(generators)
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        return StandardBasis()
    pk = order._packing(ring.nvars)
    return budget.completed(ring, order, [_integral(g, pk) for g in gens])


def _stripped(packed: list[dict], pk: _Packing, budget: Budget) -> list[dict]:
    """The generators with every term that a monomial generator divides
    removed from the others, which stay primitive or, left with no term, go.
    The ideal is the same; each stripped generator spends one step."""
    units = {next(iter(h)) for h in packed if len(h) == 1}
    if not units:
        return packed
    guards, out = pk.guards, []
    for h in packed:
        by = [u & pk.raw for u in units if len(h) > 1 or u not in h]
        kept = {m: c for m, c in h.items() if not any(((m | guards) - r) & guards == guards for r in by)}
        if len(kept) < len(h):
            budget.spend()
            h = kept and _primitive(kept, pk.lead(kept))
        if h:
            out.append(h)
    return out


def _complete(
    ring: PolyRing, order: MonomialOrder, packed: list[dict], budget: Budget,
    base: StandardBasis | None = None,
) -> StandardBasis:
    """Buchberger completion of the generators, given packed under order as
    primitive int dicts with positive leading coefficients; with a LOCAL
    base that _complete returned, of the base's generators and these.  One
    loop serves every order.  Under ELIM_FIRST it returns the basis of the
    elimination ideal: the elements free of the first variable t.

    A monomial generator first strips its multiples from the others (see
    _stripped).  Each element carries a sugar: a generator its degree, an
    S-polynomial |lcm| plus the larger ecart slot of its pair (see
    _reducer), and a bitmask of the variables in its leading monomial, so
    two leading monomials are coprime when their masks share no bit.  Pairs
    wait in a heap keyed once, when the pair is formed, by sugar, then lcm
    in the order, then index, and the least pops first; basis entries never
    change after they are appended, so the key of a waiting pair stays
    valid.  Each popped S-polynomial is reduced within its sugar (see
    _weak_normal_form), and what is left joins the basis, even when a
    reducer of larger ecart divides its leading monomial.  A global
    completion minimalizes and tail-reduces before it returns, since tail
    reduction spends steps; a LOCAL one returns its completion and
    minimalizes when the basis is first read (see StandardBasis).

    Termination is Lazard's argument (EUROCAL 1983).  Homogenize an element
    g of sugar s as t^s * g(x/t), under the order that compares degree first
    and then the given one: a monomial order for LOCAL, DEGREVLEX and
    ELIM_FIRST alike, under which the homogenization leads with t^e * lm(g)
    for the ecart slot e.  The loop is Buchberger's algorithm on the
    homogenizations, so no element's homogenized leading monomial is
    divisible by an earlier one, and by Dickson's lemma the loop ends.

    Soundness under a global order: each reduction step subtracts a multiple
    of a reducer whose leading monomial is at most that of what is left, so
    below the pair's lcm, and the remainder joins the basis below it too;
    so, whichever pair the sugar selects first and wherever it stops the
    reduction, every reduced pair has a representation by the final basis
    below its lcm.  That is all Gebauer and Moeller's criteria (J. Symb.
    Comp. 6, 1988) ask of a treated pair, under any selection strategy
    (Becker-Weispfenning, Groebner Bases, 5.5), so their update runs when an
    element h is appended, and a pair it drops is never popped.  B drops a
    waiting pair (i, j) when lm(h) divides its lcm and that lcm differs from
    lcm(i, h) and lcm(j, h); M drops a new pair (i, h) when another new
    pair's lcm properly divides its own; F keeps, of new pairs with equal
    lcms, the one of highest i, and none when one of them is coprime; the
    product criterion drops a coprime one.  The reduced basis is unique, so
    the criteria change only the work.  Under ELIM_FIRST, where t
    dominates, an element with a t-free leading monomial is t-free and no
    leading monomial with t divides a t-free monomial, so the t-free
    elements alone are a basis of the elimination ideal.

    The LOCAL completion also counts the staircase of its leading monomials
    (see _Staircase).  Once a highest corner D is known, a pair whose lcm has
    degree >= D is skipped, since its S-polynomial lies in m^D, and reduction
    drops the terms of degree >= D.  The leading ideal is the same, and an
    ideal with no corner (an infinite quotient) runs untruncated.

    Soundness under LOCAL.  Call a pair (i, j) represented when its
    S-polynomial is, up to a nonzero factor, a sum of a*g over elements g of
    the final basis with lm(a*g) < lcm(lm_i, lm_j), modulo m^D for the
    final corner D (exactly when there is none).  If every pair is
    represented, the basis is a standard basis.  Take f in the ideal with
    deg lm(f) < D (the leads divide every monomial of degree >= D); a unit
    multiple of f, with the same leading monomial, is a sum of a_l*g_l over
    the basis, which generates the ideal.  Among such sums modulo m^D take
    one whose largest lm(a_l*g_l) of degree < D, delta, is least: delta >=
    lm(f), and in a degree order only finitely many monomials lie above
    lm(f), so a least one exists, though the local order has no least
    monomial.  If delta > lm(f), the terms at delta cancel, so their sum is
    a combination of multiples (delta / lcm) * S-polynomial (Cox-Little-
    O'Shea, Ideals, Varieties, and Algorithms, 2.6), and the
    representations put a sum below delta in its place; so delta = lm(f)
    is a multiple of some lm(g_l).  Every pair is represented:
    - coprime: lt(g_j)*g_i - lt(g_i)*g_j is tail(g_i)*g_j - tail(g_j)*g_i,
      whose two leads lie below the lcm (the product criterion);
    - skipped at a corner D' >= D: its S-polynomial lies in m^|lcm|,
      inside m^D, since each term of an element has at least the degree
      of its leading monomial;
    - reduced: each step of _weak_normal_form subtracts a multiple whose
      leading monomial is that of what is left, at most lm of the
      S-polynomial, which is below the lcm, and a nonzero remainder joins
      the basis with its leading monomial there too; truncation drops
      terms in m^D' only, and the corner only falls, so D' >= D;
    - chain-skipped: when (i, j) is popped and some k, popped with i and
      with j before, has lm_k dividing lcm(lm_i, lm_j), then lcm(i, k) and
      lcm(j, k) divide lcm(i, j), and the S-polynomial of (i, j) is a
      combination of those of (i, k) and (j, k) times the quotients
      (Buchberger's chain criterion, EUROSAM 1979), so the two
      representations, multiplied up, represent (i, j).  By induction over
      the pops, every popped pair is represented, reduced or skipped; the
      rule reads only pairs popped earlier, never one still waiting, whose
      representation a cycle of such skips could withhold.  Each element
      keeps an int mask of its partners in the pairs popped past the corner
      test (a pair skipped there serves no other: lcm(i, k) dividing
      lcm(i, j) puts (i, j) past the corner too), so the test is one & and a
      walk over the common bits, not a scan of the reducers.
      The homogenized form of the rule, t^e_k * lm_k dividing
      t^max(e_i, e_j) * lcm, would also ask e_k <= max(e_i, e_j); the
      descent needs no homogenization, so the rule does not.
    Every skipped pair still spends its pop step.  Lazard's argument above
    gives termination, whichever pairs are skipped.

    A base resumes its completion: its reducers, with their ecart slots and
    masks, and its staircase are copied, so the base serves again, and only
    the pairs that involve a new generator enter the heap.  Every pair among
    the base's reducers was represented by the base's elements when the
    base was completed, and they stay in the basis.  The base's corner D_B,
    where it has one, bounded its skips and truncations.  Since m^(D_B)
    lies in the base's ideal, it lies in the larger one, whose corner D is
    at most D_B, so what holds modulo m^(D_B) holds modulo m^D.  The masks
    start empty, so the chain rule reads only pairs popped in this
    completion.  Only the sweep rows of verifier.ScenarioContext resume, so
    there is no global variant.

    The completion runs fraction-free: each generator and each new basis
    element is kept as its primitive int multiple with a positive leading
    coefficient, and only the returned basis is made monic over the
    rationals.  Every intermediate polynomial is a nonzero rational multiple
    of the one rational arithmetic would build, and every decision reads only
    supports, leading monomials and (to drop duplicate generators) primitive
    forms, so the steps are the same.
    """
    pk = order._packing(ring.nvars)
    local = order.is_local
    # ascending in the order: the larger int is the larger monomial except
    # under LOCAL, where -m ascends with the monomial m
    if len(packed) > 1:  # one generator has nothing to strip or sort
        packed = sorted(_stripped(packed, pk, budget), key=pk.lead, reverse=local)
    guards, raw, fill, units = pk.guards, pk.raw, pk.fill, pk.units
    pairs: list[tuple] = []  # heap of (sugar, +-lcm as above, i, j, lcm) with i < j
    if base is None:
        # the _reducer entry per basis element, with its sugar and its mask
        reducers: list[tuple] = []
        lead: list[Exponents] = []  # their leading monomials, unpacked
        stairs = _Staircase(lead, ring.nvars, budget.cap) if local else None
    else:
        base_reducers, base_stairs = base.completion
        reducers = list(base_reducers)
        stairs = base_stairs.copy(budget.cap)
        lead = stairs.lead
    done = [0] * len(reducers)  # per element, a bit per partner popped past the corner

    def append(h: dict, sugar: int = 0) -> None:
        j = len(reducers)
        rj = _reducer(h, pk, sugar)
        lmj = pk.unpack(rj[0])
        mask = sum(1 << k for k, a in enumerate(lmj) if a)
        rj += (mask,)
        if local:
            new = [i for i, g in enumerate(reducers) if g[6] & mask]
            budget.spend(len(reducers) - len(new))  # coprime leading terms reduce to zero
        else:
            coprime = [not g[6] & mask for g in reducers]
            # Gebauer-Moeller's B on the waiting pairs, then M and F and the
            # product criterion on the new ones, all on raw lcm fields: the
            # larger in each, where the guard bit of a difference survives
            lm_raw = rj[4]
            lcms = [
                lm_raw ^ ((g[4] ^ lm_raw) & ((((g[4] | guards) - lm_raw) & guards) >> (_FIELD_BITS - 1)) * fill)
                for g in reducers
            ]
            kept = [
                p for p in pairs
                if ((p[4] | guards) - lm_raw) & guards != guards
                or lcms[p[2]] == p[4] & raw or lcms[p[3]] == p[4] & raw
            ]
            if len(kept) < len(pairs):
                pairs[:] = kept
                heapq.heapify(pairs)
            new = []
            for i, m in enumerate(lcms):
                if coprime[i]:
                    continue
                over = m | guards
                for k, mk in enumerate(lcms):
                    if (over - mk) & guards == guards and k != i and (mk != m or k > i or coprime[k]):
                        break
                else:
                    new.append(i)
        for i in new:
            top = list(map(max, lead[i], lmj))
            pk.check_degree(d := sum(top))
            m = sum(map(mul, top, units))
            heapq.heappush(pairs, (d + max(reducers[i][2], rj[2]), -m if local else m, i, j, m))
        reducers.append(rj)
        done.append(0)
        lead.append(lmj)
        if stairs is not None:
            stairs.add(lmj)

    for h in packed:
        if all(h != g[3] for g in reducers):
            append(h)  # a generator's sugar is its degree

    while pairs:
        budget.spend()
        sugar, _, i, j, lcm = heapq.heappop(pairs)
        corner = None if stairs is None else stairs.read()
        bound = None if corner is None else pk.corner(corner)
        if bound is not None and lcm >= bound:
            continue  # the S-polynomial lies in m^corner
        if local:
            # the chain criterion: some k popped with both i and j has lm_k | lcm
            common, over = done[i] & done[j], lcm | guards
            done[i] |= 1 << j
            done[j] |= 1 << i
            while common and (over - reducers[(common & -common).bit_length() - 1][4]) & guards != guards:
                common &= common - 1
            if common:
                continue
        s = _spoly(reducers[i], reducers[j], lcm, pk)
        if not s:
            continue
        r = _weak_normal_form(s, reducers, pk, budget, bound, sugar)
        if r:
            append(_primitive(r, pk.lead(r)), sugar)

    if stairs is not None:
        corner = stairs.read()
        size = None if corner is None else stairs.size
        return StandardBasis(ring, order, staircase_size=size, corner=corner, completion=(tuple(reducers), stairs))
    if order is ELIM_FIRST:
        # the elimination ideal: the elements whose leading monomial is t-free
        free = [k for k, lm in enumerate(lead) if not lm[0]]
        reducers, lead = [reducers[k] for k in free], [lead[k] for k in free]
    kept, leading = _minimalized(reducers, lead, pk, local)
    elements = [(g[0], g[3]) for g in _interreduce_global(kept, pk, budget)]
    return StandardBasis(ring, order, elements, leading)


class IdealPresentation:
    """A generator list together with cached standard bases per order.

    The cache is confined to this object and filled on first use, one basis
    per order, kept with the Budget that paid for it; distinct presentations
    never share state, and germlab starts no threads.  Two presentations of
    the same generators share a basis through that Budget, which keeps every
    basis it completed (see Budget.completed).
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
        self._bases: dict[MonomialOrder, tuple[Budget, StandardBasis]] = {}

    def standard_basis(self, order: MonomialOrder, cap=None) -> StandardBasis:
        """The basis under order.  A cached basis serves only the Budget that
        paid for it; any other cap computes it again from that cap."""
        budget = as_budget(cap)
        cached = self._bases.get(order)
        if cached is None or cached[0] is not budget:
            cached = (budget, standard_basis_of(self.generators, order, budget))
            self._bases[order] = cached
        return cached[1]

    def plus(self, extra: Iterable[Poly]) -> "IdealPresentation":
        return IdealPresentation(self.ring, list(self.generators) + list(extra))

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators)
        return f"Ideal<{gens}>"


# ---------------------------------------------------------------------------
# local quotient dimension and dimension at the origin
# ---------------------------------------------------------------------------


def quotient_dim_local(I: IdealPresentation, cap=None) -> int | None:
    """Dimension over QQ of the local ring at the origin modulo I.

    The number of standard monomials of the local standard basis, found by
    its completion (see _Staircase).  Returns None when the quotient is
    infinite-dimensional, which happens exactly when some variable has no
    pure power among the leading terms.
    """
    return I.standard_basis(LOCAL, cap).staircase_size


def dim_at_origin(I: IdealPresentation, cap=None) -> int:
    """Krull dimension at the origin of the vanishing locus of I.

    Returns -1 for the empty germ (unit ideal).  Computed from the staircase
    of the local leading-term ideal via maximal independent variable sets.
    """
    lms = I.standard_basis(LOCAL, cap).leading
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
    Q[t, x], the only part the completion returns (see _complete); on t-free
    monomials ELIM_FIRST ranks like DEGREVLEX, so that part is the reduced
    monic degrevlex basis of the saturated ideal, which the result carries
    whether or not the saturation removed anything.
    """
    _check_same_ring([f, *I.generators])
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
    basis = standard_basis_of(gens, ELIM_FIRST, budget)
    return IdealPresentation(ring, [Poly._make(ring, {e[1:]: c for e, c in g.terms.items()}) for g in basis])
