"""Exception hierarchy for the germ workbench."""

from __future__ import annotations


class GermlabError(Exception):
    """Base class for all domain errors raised by this package."""


class RingMismatchError(GermlabError):
    """Operands live in different polynomial rings."""


class IterationLimitError(GermlabError):
    """A reduction loop exceeded its configured iteration cap."""


class ParseError(GermlabError):
    """Lexical or syntactic error in a polynomial expression."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class SchemaError(GermlabError):
    """A scenario document violates the schema; carries the offending path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class NonisolatedError(GermlabError):
    """The Jacobian ideal has positive local dimension."""


class ImproperIntersectionError(GermlabError):
    """An intersection expected to be zero-dimensional is not."""


class DegenerateBranchError(GermlabError):
    """A function vanishes identically (or to excessive order) on a branch."""


class InstabilityError(GermlabError):
    """A slice invariant kept changing along the shrinking parameter ladder."""


class UndefinedLeError(GermlabError):
    """No admissible coordinate choice makes the Le-number intersections proper:
    one pivot decides for all, since at each the remaining partials span one
    ideal R, the first partial moves by an element of R, and w_0 = form."""


class ExponentRangeError(GermlabError):
    """A requested deformation-exponent range leaves the allowed bounds."""


class GenericityError(GermlabError):
    """The deterministic generic-linear-form ladder was exhausted."""


class HypothesisError(GermlabError):
    """A deformation-case hypothesis fails; carries the violated check."""

    def __init__(self, check: str, message: str):
        super().__init__(f"{check}: {message}")
        self.check = check


class MissingSliceError(GermlabError):
    """A stratified dataset lacks a required Euler-characteristic slice entry."""

    def __init__(self, stratum: str, kind: str):
        super().__init__(f"stratum {stratum!r} has no chi entry for slice kind {kind!r}")
        self.stratum = stratum
        self.kind = kind


class ComponentMismatchError(GermlabError):
    """Component-wise intersection orders do not add up to the scheme total."""
