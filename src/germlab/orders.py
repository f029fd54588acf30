"""Monomial orderings: global degrevlex, local negdegrevlex, and an internal
elimination order used by intersection and saturation, which eliminate one
tag variable.

Keys compare so that larger key means larger monomial.  The local order
puts the constant monomial above every variable, which realizes computations
in the local ring at the origin.  The standard-basis kernel packs monomials
into ints that compare in the order (see _Packing).
"""

from __future__ import annotations

import functools
import struct
from itertools import accumulate
from operator import mul, neg
from typing import Callable

from .errors import GermlabError
from .rings import Exponents

_FIELD_BITS = 32
_DEGREE_LIMIT = 1 << (_FIELD_BITS - 1)  # the fields' guard bits stay clear below it


def _degrevlex_key(e: Exponents):
    return (sum(e), tuple(map(neg, reversed(e))))


def _degrevlex_fields(e: Exponents):
    # [deg | s_{n-1} | ... | s_1] with s_k = e_1 + ... + e_k: a larger
    # partial sum means a smaller last exponent, so larger reads larger
    return tuple(accumulate(e))[::-1]


def _negdegrevlex_key(e: Exponents):
    return (-sum(e), tuple(map(neg, reversed(e))))


def _negdegrevlex_fields(e: Exponents):
    # [deg | e_n | ... | e_2]: every field is negated in the key, so the
    # smaller int is the larger local monomial
    return (sum(e), *e[:0:-1])


def _elim_first_key(e: Exponents):
    # the first exponent dominates, degrevlex on the tail
    tail = e[1:]
    return (e[0], sum(tail), tuple(map(neg, reversed(tail))))


def _elim_first_fields(e: Exponents):
    return (e[0], *_degrevlex_fields(e[1:]))


class _Packing:
    """Monomials in nvars variables under one order, each packed into one int.

    The int holds 2*nvars fields of _FIELD_BITS bits.  The high nvars fields
    are the order's: nonnegative linear forms of the exponents that the
    order compares lexicographically.  The low nvars are the raw exponents.
    Every field is at most the monomial's degree, so below _DEGREE_LIMIT the
    top bit of each field, its guard bit, is clear.  Then the packing is
    additive (a product is `+`, a quotient `-`), int comparison is the order
    (the larger int is the larger monomial under a global order and the
    smaller one under LOCAL), and a | b is one subtraction of raw fields
    whose guard bits survive exactly when no exponent of b is below a's.
    Being additive, a monomial packs as the sum of its exponents times the
    packed variables, `units`.
    """

    __slots__ = ("nvars", "words", "units", "guards", "raw", "fill", "top", "degree_on_top", "lead")

    def __init__(self, order: "MonomialOrder", nvars: int):
        self.nvars = nvars
        self.words = struct.Struct(f">{2 * nvars}I")
        eye = [tuple(int(i == k) for i in range(nvars)) for k in range(nvars)]
        self.units = [int.from_bytes(self.words.pack(*order._fields(u), *u), "big") for u in eye]
        ones = sum(1 << (_FIELD_BITS * k) for k in range(nvars))
        self.guards = ones << (_FIELD_BITS - 1)
        self.fill = (1 << _FIELD_BITS) - 1
        self.raw = ones * self.fill
        self.top = _FIELD_BITS * (2 * nvars - 1)
        # ELIM_FIRST tops with the first exponent, the degree only in one variable
        self.degree_on_top = order.kind != "elim-first" or nvars == 1
        self.lead = min if order.is_local else max  # of a packed term dict

    def pack(self, e: Exponents) -> int:
        self.check_degree(sum(e))
        return sum(map(mul, e, self.units))

    def unpack(self, m: int) -> Exponents:
        return self.words.unpack(m.to_bytes(self.words.size, "big"))[self.nvars :]

    def degree(self, m: int) -> int:
        d = m >> self.top
        if self.degree_on_top:
            return d
        # ELIM_FIRST: the first exponent, then the degree of the tail
        return d + ((m >> (self.top - _FIELD_BITS)) & ((1 << _FIELD_BITS) - 1))

    def corner(self, d: int) -> int:
        """The int below which exactly the monomials of degree < d pack, for
        an order with the degree on top (DEGREVLEX and LOCAL)."""
        return d << self.top

    @staticmethod
    def check_degree(d: int) -> None:
        """Refuse a monomial degree that the fields cannot hold."""
        if d >= _DEGREE_LIMIT:
            raise GermlabError(f"monomial degree {d} reaches the limit {_DEGREE_LIMIT} of the packed exponent fields")


class MonomialOrder:
    """One of the three fixed orders DEGREVLEX, LOCAL and ELIM_FIRST.

    kind "degrevlex" is the global graded reverse-lexicographic order;
    "negdegrevlex" is its local counterpart (total degree negated first);
    "elim-first" eliminates the first ring variable and is internal.  Orders
    compare and hash by identity.  `key` grows with the monomial; the
    kernel's packed ints (see _Packing) come from the order's fields.
    """

    __slots__ = ("kind", "key", "_fields")

    def __init__(self, kind: str, key: Callable[[Exponents], tuple], fields: Callable[[Exponents], tuple]):
        self.kind = kind
        self.key = key
        self._fields = fields

    @property
    def is_local(self) -> bool:
        return self.kind == "negdegrevlex"

    @functools.cache
    def _packing(self, nvars: int) -> _Packing:
        return _Packing(self, nvars)

    def __repr__(self) -> str:
        return f"MonomialOrder({self.kind!r})"


DEGREVLEX = MonomialOrder("degrevlex", _degrevlex_key, _degrevlex_fields)
LOCAL = MonomialOrder("negdegrevlex", _negdegrevlex_key, _negdegrevlex_fields)
ELIM_FIRST = MonomialOrder("elim-first", _elim_first_key, _elim_first_fields)

