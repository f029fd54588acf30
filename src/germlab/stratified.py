"""Brasselet numbers, Euler obstructions, and deformation identities over
user-supplied stratified data.

All topological inputs (Euler characteristics of slices, Euler obstructions
of strata) are data; nothing is computed from equations of a singular space.
Identities whose inputs are incomplete are reported SKIPPED, never guessed.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .errors import ComponentMismatchError, MissingSliceError, SchemaError

KNOWN_SCALARS = (
    "d",
    "N",
    "eu_X_0",
    "B_g_X_0",
    "B_gtilde_X_0",
    "B_g_Xf_0",
    "B_gtilde_Xf_0",
    "B_f_Xg_0",
    "B_f_Xgtilde_0",
    "eu_Xg_0",
    "eu_Xgtilde_0",
    "m",
    "m_tilde",
    "n_reg",
)

EMPTY_MAPPING: Mapping = MappingProxyType({})  # the shared, read-only default mapping

BRANCH_FIELDS = (
    "m_f",
    "eu_X_b",
    "eu_Xg_b",
    "B_g_f_fibre",
    "eu_g_f_fibre",
    "eu_f_gtilde_fibre",
    "B_f_gtilde_fibre",
)


class StratumRecord(NamedTuple):
    """One stratum: name, complex dimension, Euler obstruction of the ambient
    space along it, and Euler characteristics of its slices by the fibres of
    the named functions."""

    name: str
    dim: int
    eu: int
    chi: Mapping[str, int] = EMPTY_MAPPING
    in_zero_locus_of: frozenset[str] = frozenset()
    branches: tuple[str, ...] = ()


class BranchTableRow(NamedTuple):
    """Constant-along-the-branch invariants used by the deformation identities.

    Every field except the name is optional; absent data turns the identities
    that need it into SKIPPED verdicts.
    """

    name: str
    m_f: int | None = None
    eu_X_b: int | None = None
    eu_Xg_b: int | None = None
    B_g_f_fibre: int | None = None
    eu_g_f_fibre: int | None = None
    eu_f_gtilde_fibre: int | None = None
    B_f_gtilde_fibre: int | None = None


class StratifiedDataset(NamedTuple):
    """Stratified inputs: strata records, an optional branch table (None when
    the document supplied none, an empty tuple for an explicitly empty one),
    and known scalar invariants."""

    strata: tuple[StratumRecord, ...] = ()
    branch_table: tuple[BranchTableRow, ...] | None = None
    known: Mapping[str, int] = EMPTY_MAPPING
    f_is_linear: bool = False

    def slice_kinds(self) -> tuple[str, ...]:
        """The slice kinds brasselet_number accepts: each positive-dimensional
        stratum carries the kind or lies in the kind's zero locus."""
        positive = [s for s in self.strata if s.dim != 0]
        named = {k for s in positive for k in (*s.chi, *s.in_zero_locus_of)}
        return tuple(
            sorted(k for k in named if all(k in s.chi or k in s.in_zero_locus_of for s in positive))
        )

    def validate(self) -> None:
        names = [s.name for s in self.strata]
        if len(set(names)) != len(names):
            raise SchemaError("strata", "stratum names must be unique")
        dims = [s.dim for s in self.strata]
        if any(b < a for a, b in zip(dims, dims[1:])):
            raise SchemaError("strata", "strata must be listed in nondecreasing dimension")
        positive = [s for s in self.strata if s.dim > 0]
        if positive:
            top = max(s.dim for s in positive)
            tops = [s for s in positive if s.dim == top]
            if any(s.eu != 1 for s in tops):
                raise SchemaError("strata", "top-dimensional strata must have Euler obstruction 1")
        rows = [r.name for r in self.branch_table or ()]
        if len(set(rows)) != len(rows):
            raise SchemaError("branch_table", "branch names must be distinct")
        for row in self.branch_table or ():
            if (
                row.eu_g_f_fibre is not None
                and row.eu_X_b is not None
                and row.B_g_f_fibre is not None
                and row.eu_g_f_fibre != row.eu_X_b - row.B_g_f_fibre
            ):
                raise SchemaError(
                    f"branch_table[{row.name}]",
                    "eu_g_f_fibre must equal eu_X_b - B_g_f_fibre",
                )


class IdentityVerdict(NamedTuple):
    name: str
    status: str  # "PASS" | "FAIL" | "SKIPPED"
    left: int | str | None = None
    right: int | str | None = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.status == "PASS"


def compared(name: str, left, right, note: str = "") -> IdentityVerdict:
    """PASS when the two evaluated sides agree, FAIL otherwise."""
    return IdentityVerdict(name, "PASS" if left == right else "FAIL", left=left, right=right, note=note)


def parity_sign(k: int) -> int:
    """(-1)^k."""
    return -1 if k % 2 else 1


def brasselet_number(dataset: StratifiedDataset, kind: str) -> int:
    """Euler-obstruction-weighted Euler characteristic of the generalized
    Milnor fibre named by the slice kind.

    Strata declared inside the zero locus of the sliced function, and the
    origin stratum, are excluded; every other stratum must carry the slice.
    """
    total = 0
    for stratum in dataset.strata:
        if stratum.dim == 0 or kind in stratum.in_zero_locus_of:
            continue
        if kind not in stratum.chi:
            raise MissingSliceError(stratum.name, kind)
        total += stratum.chi[kind] * stratum.eu
    return total


def bls_euler_obstruction(dataset: StratifiedDataset) -> int:
    """Euler obstruction of the germ at the origin via generic hyperplane
    slices: the weighted sum of chi of the l-slices of the nonzero strata."""
    return brasselet_number(dataset, "l")


def euler_obstruction_of_function(dataset: StratifiedDataset, kind: str = "f") -> int:
    """Euler obstruction of the named function: the defect between the Euler
    obstruction of the space and the weighted chi of the function's fibre.

    When the dataset supplies a stratified Morse count n_reg together with d,
    the result is cross-checked against (-1)^d * n_reg and a disagreement is
    a loud error.
    """
    eu0 = dataset.known.get("eu_X_0")
    if eu0 is None:
        eu0 = bls_euler_obstruction(dataset)
    value = eu0 - brasselet_number(dataset, kind)
    n_reg = dataset.known.get("n_reg")
    d = dataset.known.get("d")
    if n_reg is not None and d is not None:
        expected = parity_sign(d) * n_reg
        if value != expected:
            raise ComponentMismatchError(
                f"Euler obstruction of the function is {value} but the supplied "
                f"Morse count demands {expected}"
            )
    return value


def _branch_sum(rows: Sequence[BranchTableRow] | None, *fields: str) -> int | None:
    """Sum over rows of m_f times the difference (or value) of named fields;
    None when the table or any needed entry is missing.  An explicitly empty
    table sums to zero (the isolated case)."""
    if rows is None:
        return None
    total = 0
    for row in rows:
        if row.m_f is None:
            return None
        values = []
        for f_name in fields:
            v = getattr(row, f_name)
            if v is None:
                return None
            values.append(v)
        term = values[0] if len(values) == 1 else values[0] - values[1]
        total += row.m_f * term
    return total


def verify_stratified_identities(dataset: StratifiedDataset) -> list[IdentityVerdict]:
    """Evaluate every deformation identity whose inputs the dataset supplies.

    Each verdict carries both evaluated sides; parity inequalities are
    oriented by the parity of d.  SKIPPED marks missing inputs and is not an
    error.
    """
    known = dataset.known
    rows = dataset.branch_table
    verdicts: list[IdentityVerdict] = []

    def get(*keys):
        vals = [known.get(k) for k in keys]
        return vals if all(v is not None for v in vals) else None

    # equal Brasselet numbers of the restriction to {f = 0} and the swap
    vals = get("B_g_Xf_0", "B_gtilde_Xf_0", "B_f_Xgtilde_0")
    if vals is None:
        verdicts.append(IdentityVerdict("fibre_equalities", "SKIPPED", note="needs B_g_Xf_0, B_gtilde_Xf_0, B_f_Xgtilde_0"))
    else:
        a, b, c = vals
        ok = a == b == c
        verdicts.append(
            IdentityVerdict(
                "fibre_equalities",
                "PASS" if ok else "FAIL",
                left=a,
                right=c,
                note=f"B_g_Xf={a}, B_gtilde_Xf={b}, B_f_Xgtilde={c}",
            )
        )

    # parity inequality between the Euler obstructions of X^g and X^gtilde
    vals = get("d", "eu_Xg_0", "eu_Xgtilde_0")
    if vals is None:
        verdicts.append(IdentityVerdict("parity", "SKIPPED", note="needs d, eu_Xg_0, eu_Xgtilde_0"))
    else:
        d, eu_g, eu_gt = vals
        if d % 2 == 0:
            ok = eu_gt >= eu_g
            relation = ">="
        else:
            ok = eu_gt <= eu_g
            relation = "<="
        verdicts.append(
            IdentityVerdict(
                "parity",
                "PASS" if ok else "FAIL",
                left=eu_gt,
                right=eu_g,
                note=f"d={d} requires eu_Xgtilde {relation} eu_Xg",
            )
        )

    # difference of Brasselet numbers of f over the two hypersurfaces
    vals = get("B_f_Xg_0", "B_f_Xgtilde_0")
    rhs = _branch_sum(rows, "eu_Xg_b", "B_g_f_fibre")
    if vals is None or rhs is None:
        verdicts.append(IdentityVerdict("branch_difference", "SKIPPED", note="needs B_f_Xg_0, B_f_Xgtilde_0 and branch data"))
    else:
        verdicts.append(compared("branch_difference", vals[0] - vals[1], rhs))

    # transfer of Morse point counts between g and its deformation
    vals = get("d", "m", "m_tilde")
    rhs = _branch_sum(rows, "eu_g_f_fibre")
    if vals is None or rhs is None:
        verdicts.append(IdentityVerdict("morse_transfer", "SKIPPED", note="needs d, m, m_tilde and branch data"))
    else:
        d, m, m_tilde = vals
        verdicts.append(compared("morse_transfer", m_tilde, m + parity_sign(d - 1) * rhs))

    # drop of the Euler obstruction from X^g to X^gtilde (linear f only)
    vals = get("eu_Xg_0", "eu_Xgtilde_0")
    rhs = _branch_sum(rows, "eu_Xg_b", "B_g_f_fibre") if dataset.f_is_linear else None
    if vals is None or rhs is None:
        verdicts.append(
            IdentityVerdict(
                "eu_difference",
                "SKIPPED",
                note="needs eu_Xg_0, eu_Xgtilde_0, branch data, and a generic linear f",
            )
        )
    else:
        verdicts.append(compared("eu_difference", vals[0] - vals[1], rhs))

    # per-branch transfer of Brasselet numbers across the deformation
    checkable = [
        r for r in rows or () if r.B_g_f_fibre is not None and r.B_f_gtilde_fibre is not None
    ]
    if rows is None or (rows and not checkable):
        verdicts.append(IdentityVerdict("branch_transfer", "SKIPPED", note="needs per-branch B values on both fibres"))
    else:
        bad = [r for r in checkable if r.B_g_f_fibre != r.B_f_gtilde_fibre]
        if bad:
            r = bad[0]
            verdicts.append(
                IdentityVerdict(
                    "branch_transfer",
                    "FAIL",
                    left=r.B_g_f_fibre,
                    right=r.B_f_gtilde_fibre,
                    note=f"branch {r.name!r}",
                )
            )
        else:
            verdicts.append(
                IdentityVerdict(
                    "branch_transfer",
                    "PASS",
                    left=len(checkable),
                    right=len(checkable),
                    note="all per-branch values agree",
                )
            )

    # the deformation formula for the Brasselet number at the origin
    vals = get("N", "B_g_X_0", "B_gtilde_X_0")
    rhs = _branch_sum(rows, "eu_f_gtilde_fibre")
    if vals is None or rhs is None:
        verdicts.append(IdentityVerdict("main", "SKIPPED", note="needs N, B_g_X_0, B_gtilde_X_0 and branch data"))
    else:
        n, b_g, b_gt = vals
        verdicts.append(compared("main", b_gt, b_g + n * rhs))

    return verdicts
