"""Exact sparse multivariate polynomials with rational coefficients.

A polynomial is an immutable map from exponent tuples to nonzero Fractions,
tagged with its ring (an ordered tuple of variable names).  All arithmetic is
exact; identical inputs produce bit-identical results.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence, Union

from .errors import RingMismatchError

Exponents = tuple[int, ...]
Scalar = Union[int, Fraction]


class _PolyRingFields(NamedTuple):
    variables: tuple[str, ...]


class PolyRing(_PolyRingFields):
    """The ring QQ[z_0, ..., z_{v-1}], identified by its variable names.

    The names are checked on construction; _replace skips that check, so
    build a changed ring with PolyRing(...)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.variables:
            raise ValueError("a polynomial ring needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variable names: {self.variables}")
        return self

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r} in ring {self.variables}") from None

    def zero(self) -> "Poly":
        return Poly._make(self, {})

    def one(self) -> "Poly":
        return self.constant(1)

    def constant(self, c: Scalar) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Poly._make(self, {(0,) * self.nvars: c})

    def variable(self, i: int) -> "Poly":
        exps = [0] * self.nvars
        exps[i] = 1
        return Poly._make(self, {tuple(exps): Fraction(1)})

    def monomial(self, exps: Sequence[int], coeff: Scalar = 1) -> "Poly":
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps} for ring {self.variables}")
        c = Fraction(coeff)
        return Poly._make(self, {exps: c} if c else {})


def _numerators(terms: Mapping[Exponents, Fraction]) -> tuple[dict[Exponents, int], int]:
    """(d*terms, d) for the least common denominator d of the coefficients:
    the same terms as int numerators over one denominator."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    if den == 1:
        return {e: c.numerator for e, c in terms.items()}, 1
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


def _muladd(x: dict, s: int, a: dict, b: dict, t: int, pk) -> dict:
    """s*x + t*a*b for int dicts on monomials packed by pk (an
    orders._Packing), with no zero coefficient, under an order that packs
    the degree on top, so the largest int has the top degree."""
    pk.check_degree(pk.degree(max(a, default=0)) + pk.degree(max(b, default=0)))
    acc = {m: s * c for m, c in x.items()} if s else {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            c = acc.get(m, 0) + t * ca * cb
            if c:
                acc[m] = c
            else:
                acc.pop(m, None)
    return acc


def _accumulate(acc: dict, terms: Mapping) -> None:
    """acc += terms, in place, never storing a zero coefficient.  A monomial
    new to acc keeps the coefficient of terms; only a shared one builds a sum."""
    for exps, c in terms.items():
        a = acc.get(exps)
        if a is None:
            acc[exps] = c
            continue
        s = a + c
        if s:
            acc[exps] = s
        else:
            del acc[exps]


class Poly:
    """Immutable sparse polynomial over the rationals.

    Use the PolyRing factories or parsing.parse_poly to build values; the raw
    constructor is internal and assumes a clean term map.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self):  # pragma: no cover - guard against direct construction
        raise TypeError("use PolyRing factories to build Poly values")

    @classmethod
    def _make(cls, ring: PolyRing, terms: dict[Exponents, Fraction]) -> "Poly":
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, name, value):  # enforce immutability
        raise AttributeError("Poly values are immutable")

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_linear_form(self) -> bool:
        """Homogeneous of degree one (and nonzero)."""
        return bool(self.terms) and all(sum(e) == 1 for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.ring.nvars, Fraction(0))

    def min_degree(self) -> int:
        """Minimal term degree (the multiplicity of the germ); -1 for zero."""
        if not self.terms:
            return -1
        return min(sum(e) for e in self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise RingMismatchError(
                    f"rings differ: {self.ring.variables} vs {other.ring.variables}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self.terms)
        _accumulate(acc, other.terms)
        return Poly._make(self.ring, acc)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._make(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return self.ring.zero()
            return Poly._make(self.ring, {e: k * c for e, k in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # the products and sums run on int numerators, and each output term
        # becomes one Fraction over the product of the two denominators
        na, da = _numerators(self.terms)
        nb, db = _numerators(other.terms)
        add = operator.add
        acc: dict[Exponents, int] = {}
        for ea, ca in na.items():
            for eb, cb in nb.items():
                e = tuple(map(add, ea, eb))
                s = acc.get(e, 0) + ca * cb
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
        den = da * db
        if den == 1:
            return Poly._make(self.ring, {e: Fraction(n) for e, n in acc.items()})
        return Poly._make(self.ring, {e: Fraction(n, den) for e, n in acc.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and substitution -------------------------------------------

    def diff(self, i: int) -> "Poly":
        """Partial derivative with respect to variable i."""
        acc: dict[Exponents, Fraction] = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            lowered = list(exps)
            lowered[i] = e - 1
            acc[tuple(lowered)] = c * e
        return Poly._make(self.ring, acc)

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        if len(point) != self.ring.nvars:
            raise ValueError("point has wrong length")
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for exps, c in self.terms.items():
            val = c
            for x, e in zip(pt, exps):
                if e:
                    val *= x**e
            total += val
        return total

    def substitute(self, target: PolyRing, images: Sequence["Poly"]) -> "Poly":
        """Evaluate at a vector of polynomials living in the target ring.

        Source terms that multiply a zero image are skipped.  The arithmetic
        runs on int numerators over monomials packed under DEGREVLEX (see
        orders._Packing), with every kept term brought to one common
        denominator; each output term becomes one Fraction.
        """
        if len(images) != self.ring.nvars:
            raise ValueError("need one image per variable")
        for im in images:
            if im.ring != target:
                raise RingMismatchError("substitution images must live in the target ring")
        from .orders import DEGREVLEX  # orders imports this module

        pk = DEGREVLEX._packing(target.nvars)
        zero = [im.is_zero for im in images]
        nums, den = _numerators(self.terms)
        kept = [(exps, c) for exps, c in nums.items() if not any(e and z for e, z in zip(exps, zero))]
        packed = [({pk.pack(e): c for e, c in t.items()}, d) for t, d in (_numerators(im.terms) for im in images)]
        tops = [max((exps[i] for exps, _ in kept), default=0) for i in range(len(images))]
        den *= math.prod(d**top for (_, d), top in zip(packed, tops))
        powers = [[{0: 1}] for _ in images]  # {0: 1} is the packed 1
        acc: dict[int, int] = {}
        for exps, c in kept:
            term = {0: c * math.prod(d ** (top - e) for (_, d), top, e in zip(packed, tops, exps))}
            for i, e in enumerate(exps):
                if e:
                    cached = powers[i]
                    while len(cached) <= e:
                        cached.append(_muladd({}, 0, cached[-1], packed[i][0], 1, pk))
                    term = _muladd({}, 0, term, cached[e], 1, pk)
            _accumulate(acc, term)
        unpack = pk.unpack
        return Poly._make(target, {unpack(m): Fraction(n, den) for m, n in acc.items()})

    # -- equality, hashing, printing ------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ring, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending graded reverse-lexicographic order."""
        def key(item):
            exps, _ = item
            return (sum(exps), tuple(-e for e in reversed(exps)))

        return sorted(self.terms.items(), key=key, reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.ring.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def jacobian(g: Poly) -> list[Poly]:
    """All partial derivatives of g, in variable order."""
    return [g.diff(i) for i in range(g.ring.nvars)]
