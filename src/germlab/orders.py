"""Monomial orderings: global degrevlex, local negdegrevlex, and an internal
elimination order used by intersection and saturation, which eliminate one
tag variable.

Keys compare so that larger key means larger monomial.  The local order ranks
the constant monomial above every variable, which realizes computations in the
local ring at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import neg

from .rings import Exponents, Poly

_KINDS = ("degrevlex", "negdegrevlex", "elim-first")


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial ordering, optionally acting through a variable permutation.

    kind "degrevlex" is the global graded reverse-lexicographic order;
    "negdegrevlex" is its local counterpart (total degree negated first);
    "elim-first" eliminates the first ring variable and is internal.
    """

    kind: str
    permutation: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.permutation is not None:
            perm = tuple(self.permutation)
            if sorted(perm) != list(range(len(perm))):
                raise ValueError(f"not a permutation: {perm}")
            object.__setattr__(self, "permutation", perm)

    @property
    def is_global(self) -> bool:
        return self.kind in ("degrevlex", "elim-first")

    @property
    def is_local(self) -> bool:
        return self.kind == "negdegrevlex"

    def key(self, exps: Exponents):
        e = exps
        if self.permutation is not None:
            e = tuple(map(exps.__getitem__, self.permutation))
        if self.kind == "degrevlex":
            return (sum(e), tuple(map(neg, reversed(e))))
        if self.kind == "negdegrevlex":
            return (-sum(e), tuple(map(neg, reversed(e))))
        # elim-first: first exponent dominates, degrevlex on the tail
        tail = e[1:]
        return (e[0], sum(tail), tuple(map(neg, reversed(tail))))


DEGREVLEX = MonomialOrder("degrevlex")
LOCAL = MonomialOrder("negdegrevlex")
ELIM_FIRST = MonomialOrder("elim-first")


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
