"""Exact sparse multivariate polynomials with rational coefficients.

A polynomial is an immutable map from exponent tuples to nonzero Fractions,
tagged with its ring (an ordered tuple of variable names).  All arithmetic is
exact; identical inputs produce bit-identical results.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import RingMismatchError

Exponents = tuple[int, ...]
Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class PolyRing:
    """The ring QQ[z_0, ..., z_{v-1}], identified by its variable names."""

    variables: tuple[str, ...]

    def __post_init__(self):
        if not self.variables:
            raise ValueError("a polynomial ring needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variable names: {self.variables}")

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

    def from_terms(self, terms: Mapping[Exponents, Scalar]) -> "Poly":
        acc: dict[Exponents, Fraction] = {}
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for ring {self.variables}")
            c = acc.get(exps, Fraction(0)) + Fraction(c)
            if c:
                acc[exps] = c
            else:
                acc.pop(exps, None)
        return Poly._make(self, acc)


def mono_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(operator.add, a, b))


def mono_divides(a: Exponents, b: Exponents) -> bool:
    """True when the monomial with exponents a divides the one with b."""
    return all(map(operator.le, a, b))


def mono_div(a: Exponents, b: Exponents) -> Exponents:
    """Exponent vector of a/b; caller guarantees divisibility."""
    return tuple(map(operator.sub, a, b))


def mono_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


class Poly:
    """Immutable sparse polynomial over the rationals.

    Use the PolyRing factories or parsing.parse_poly to build values; the raw
    constructor is internal and assumes a clean term map.  The _lead slot holds
    leading monomials per monomial order, filled lazily by
    orders.leading_monomial; it is sound because the terms never change.
    """

    __slots__ = ("ring", "terms", "_hash", "_lead")

    def __init__(self):  # pragma: no cover - guard against direct construction
        raise TypeError("use PolyRing factories to build Poly values")

    @classmethod
    def _make(cls, ring: PolyRing, terms: dict[Exponents, Fraction]) -> "Poly":
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_lead", None)
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

    def total_degree(self) -> int:
        """Maximal term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

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
        for exps, c in other.terms.items():
            s = acc.get(exps, Fraction(0)) + c
            if s:
                acc[exps] = s
            else:
                acc.pop(exps, None)
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
        acc: dict[Exponents, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = mono_mul(ea, eb)
                s = acc.get(e, Fraction(0)) + ca * cb
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
        return Poly._make(self.ring, acc)

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
        """Evaluate at a vector of polynomials living in the target ring."""
        if len(images) != self.ring.nvars:
            raise ValueError("need one image per variable")
        for im in images:
            if im.ring != target:
                raise RingMismatchError("substitution images must live in the target ring")
        pow_cache: dict[tuple[int, int], Poly] = {}

        def power(i: int, e: int) -> Poly:
            key = (i, e)
            got = pow_cache.get(key)
            if got is None:
                got = images[i] ** e
                pow_cache[key] = got
            return got

        total = target.zero()
        for exps, c in self.terms.items():
            term = target.constant(c)
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            total = total + term
        return total

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
