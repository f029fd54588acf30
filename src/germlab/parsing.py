"""Polynomial expression parser; str(Poly) is its canonical printer.

Grammar (see docs/poly-grammar.ebnf):

    expr     = term { ("+" | "-") term }
    term     = factor { "*" factor }
    factor   = base [ "^" natural ]
    base     = rational | identifier | "(" expr ")" | ("+" | "-") base
    rational = natural [ "/" natural ]

Implicit multiplication is not part of the grammar; every identifier must be a
declared ring variable.  Exponents are capped at 255, a number at 640 digits
(the least limit CPython's int conversion can be set to) and the nesting of
parentheses and unary signs at 100 levels, well inside the interpreter's
recursion limit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import ParseError
from .rings import Poly, PolyRing

EXPONENT_CAP = 255
DIGIT_CAP = 640
NESTING_CAP = 100


class _Token(NamedTuple):
    kind: str  # "int", "name", "op", "end"
    value: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdigit():
            start = i
            start_col = col
            while i < n and text[i].isdigit():
                i += 1
                col += 1
            if i - start > DIGIT_CAP:
                raise ParseError(f"a number of {i - start} digits exceeds the cap of {DIGIT_CAP}", line, start_col)
            tokens.append(_Token("int", text[start:i], line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(_Token("name", text[start:i], line, start_col))
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], ring: PolyRing):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.depth = 0  # parentheses and unary signs open around the current base

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def parse(self) -> Poly:
        p = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.error(f"unexpected {tok.value!r}; expected an operator or end of input", tok)
        return p

    def expr(self) -> Poly:
        p = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in "+-":
                self.advance()
                q = self.term()
                p = p + q if tok.value == "+" else p - q
            else:
                return p

    def term(self) -> Poly:
        p = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value == "*":
                self.advance()
                p = p * self.factor()
            else:
                return p

    def factor(self) -> Poly:
        base = self.base()
        tok = self.peek()
        if tok.kind == "op" and tok.value == "^":
            self.advance()
            exp_tok = self.peek()
            if exp_tok.kind == "op" and exp_tok.value == "-":
                self.error("negative exponent", exp_tok)
            if exp_tok.kind != "int":
                self.error("expected a non-negative integer exponent", exp_tok)
            self.advance()
            e = int(exp_tok.value)
            if e > EXPONENT_CAP:
                self.error(f"exponent {e} exceeds the cap of {EXPONENT_CAP}", exp_tok)
            return base**e
        return base

    def base(self) -> Poly:
        tok = self.peek()
        if tok.kind == "op" and tok.value in "+-(":
            self.advance()
            self.depth += 1
            if self.depth > NESTING_CAP:
                self.error(f"parentheses and signs nested deeper than the cap of {NESTING_CAP}", tok)
            if tok.value == "(":
                inner = self.expr()
                closing = self.peek()
                if not (closing.kind == "op" and closing.value == ")"):
                    self.error("expected ')'", closing)
                self.advance()
            else:
                # unary sign binds looser than '^': -z^2 means -(z^2)
                inner = self.factor()
                if tok.value == "-":
                    inner = -inner
            self.depth -= 1
            return inner
        if tok.kind == "int":
            self.advance()
            numerator = int(tok.value)
            nxt = self.peek()
            if nxt.kind == "op" and nxt.value == "/":
                self.advance()
                den_tok = self.peek()
                if den_tok.kind != "int":
                    self.error("expected an integer denominator", den_tok)
                self.advance()
                if int(den_tok.value) == 0:
                    self.error("zero denominator", den_tok)
                return self.ring.constant(Fraction(numerator, int(den_tok.value)))
            return self.ring.constant(numerator)
        if tok.kind == "name":
            self.advance()
            try:
                idx = self.ring.index(tok.value)
            except KeyError:
                self.error(f"unknown identifier {tok.value!r}", tok)
            return self.ring.variable(idx)
        self.error(f"unexpected {tok.value or 'end of input'!r}", tok)
        raise AssertionError("unreachable")


def parse_poly(text: str, ring: PolyRing) -> Poly:
    """Parse an expression over the ring's variables into a canonical Poly;
    str(p) prints it back in the same grammar."""
    return _Parser(_tokenize(text), ring).parse()
