"""Monomial orderings: global degrevlex, local negdegrevlex, and an internal
elimination order used by intersection and saturation, which eliminate one
tag variable.

Keys compare so that larger key means larger monomial.  The local order ranks
the constant monomial above every variable, which realizes computations in the
local ring at the origin.
"""

from __future__ import annotations

from fractions import Fraction
from operator import neg
from typing import Callable

from .rings import Exponents, Poly


def _degrevlex_key(e: Exponents):
    return (sum(e), tuple(map(neg, reversed(e))))


def _negdegrevlex_key(e: Exponents):
    return (-sum(e), tuple(map(neg, reversed(e))))


def _elim_first_key(e: Exponents):
    # the first exponent dominates, degrevlex on the tail
    tail = e[1:]
    return (e[0], sum(tail), tuple(map(neg, reversed(tail))))


class MonomialOrder:
    """One of the three fixed orders DEGREVLEX, LOCAL and ELIM_FIRST.

    kind "degrevlex" is the global graded reverse-lexicographic order;
    "negdegrevlex" is its local counterpart (total degree negated first);
    "elim-first" eliminates the first ring variable and is internal.  Orders
    compare and hash by identity.
    """

    __slots__ = ("kind", "key")

    def __init__(self, kind: str, key: Callable[[Exponents], tuple]):
        self.kind = kind
        self.key = key

    @property
    def is_global(self) -> bool:
        return self.kind != "negdegrevlex"

    @property
    def is_local(self) -> bool:
        return self.kind == "negdegrevlex"

    def __repr__(self) -> str:
        return f"MonomialOrder({self.kind!r})"


DEGREVLEX = MonomialOrder("degrevlex", _degrevlex_key)
LOCAL = MonomialOrder("negdegrevlex", _negdegrevlex_key)
ELIM_FIRST = MonomialOrder("elim-first", _elim_first_key)


def leading_monomial(p: Poly, order: MonomialOrder) -> Exponents:
    """Exponent vector of the leading term; p must be nonzero.

    The result is cached on p per order: Poly values are immutable, so the
    leading monomial under a given order never changes.  Threads that race to
    fill the cache store the same value, so a lost update costs one rescan.
    """
    cache = p._lead
    if cache is None:
        if not p.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        cache = {}
        object.__setattr__(p, "_lead", cache)
    else:
        lm = cache.get(order)
        if lm is not None:
            return lm
    lm = cache[order] = max(p.terms, key=order.key)
    return lm


def leading_term(p: Poly, order: MonomialOrder) -> tuple[Exponents, Fraction]:
    lm = leading_monomial(p, order)
    return lm, p.terms[lm]


def ecart(p: Poly, order: MonomialOrder) -> int:
    """Total degree of p minus the degree of its leading term."""
    lm = leading_monomial(p, order)
    return p.total_degree() - sum(lm)
