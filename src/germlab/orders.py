"""Monomial orderings: global degrevlex, local negdegrevlex, and an internal
elimination order used by intersection and saturation, which eliminate one
tag variable.

Keys compare so that larger key means larger monomial; ranks compare the
other way round, so a heap pops the largest monomial first.  The local order
puts the constant monomial above every variable, which realizes computations
in the local ring at the origin.
"""

from __future__ import annotations

from fractions import Fraction
from operator import neg
from typing import Callable

from .rings import Exponents, Poly


def _degrevlex_key(e: Exponents):
    return (sum(e), tuple(map(neg, reversed(e))))


def _degrevlex_rank(e: Exponents):
    return (-sum(e), tuple(reversed(e)))


def _negdegrevlex_key(e: Exponents):
    return (-sum(e), tuple(map(neg, reversed(e))))


def _negdegrevlex_rank(e: Exponents):
    return (sum(e), tuple(reversed(e)))


def _elim_first_key(e: Exponents):
    # the first exponent dominates, degrevlex on the tail
    tail = e[1:]
    return (e[0], sum(tail), tuple(map(neg, reversed(tail))))


def _elim_first_rank(e: Exponents):
    tail = e[1:]
    return (-e[0], -sum(tail), tuple(reversed(tail)))


class MonomialOrder:
    """One of the three fixed orders DEGREVLEX, LOCAL and ELIM_FIRST.

    kind "degrevlex" is the global graded reverse-lexicographic order;
    "negdegrevlex" is its local counterpart (total degree negated first);
    "elim-first" eliminates the first ring variable and is internal.  Orders
    compare and hash by identity.  `key` grows with the monomial and `rank`
    shrinks: rank(a) < rank(b) exactly when key(a) > key(b).
    """

    __slots__ = ("kind", "key", "rank")

    def __init__(self, kind: str, key: Callable[[Exponents], tuple], rank: Callable[[Exponents], tuple]):
        self.kind = kind
        self.key = key
        self.rank = rank

    @property
    def is_global(self) -> bool:
        return self.kind != "negdegrevlex"

    @property
    def is_local(self) -> bool:
        return self.kind == "negdegrevlex"

    def __repr__(self) -> str:
        return f"MonomialOrder({self.kind!r})"


DEGREVLEX = MonomialOrder("degrevlex", _degrevlex_key, _degrevlex_rank)
LOCAL = MonomialOrder("negdegrevlex", _negdegrevlex_key, _negdegrevlex_rank)
ELIM_FIRST = MonomialOrder("elim-first", _elim_first_key, _elim_first_rank)


def leading_monomial(p: Poly, order: MonomialOrder) -> Exponents:
    """Exponent vector of the leading term; p must be nonzero.

    The result is cached on p per order: Poly values are immutable, so the
    leading monomial under a given order never changes.  The first query
    under an order scans every term once; later ones read the cache.
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
