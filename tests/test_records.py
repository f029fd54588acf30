"""The value types are immutable NamedTuple records: frozen fields, equality
and hashing by value, the same repr the package has always printed, and
_replace; the validated ones still reject bad fields on construction."""

from __future__ import annotations

from fractions import Fraction

import pytest

from germlab import IdealPresentation, PolyRing
from germlab.invariants import (
    T_RING,
    BranchParam,
    BranchTerm,
    BranchValidation,
    CriticalLocusReport,
)
from germlab.le import LeData
from germlab.parsing import _Token
from germlab.polar import GapRatio, GapReport, PolarCurve
from germlab.scenario import Limits, Scenario
from germlab.stratified import BranchTableRow, IdentityVerdict, StratifiedDataset, StratumRecord
from germlab.verifier import DeformationCase, SweepRow, VerdictTable

RING = PolyRing(("x", "y"))
X, Y = RING.variable(0), RING.variable(1)
T, O = T_RING.variable(0), T_RING.zero()
IDEAL = IdealPresentation(RING, [X, Y])  # compares by identity, so shared
LE = LeData(1, 2, ("x", "y"), ("isolated",), ())
VERDICT = IdentityVerdict("le_numbers", "PASS", 1, 1)
ROW = SweepRow(3, True, 2, -1, (VERDICT,), None, None)
STRATUM = StratumRecord("regular", 2, 1, {"g": -1}, frozenset({"f"}))

# name: (build a fresh record, its repr, one _replace, whether it hashes)
RECORDS = {
    "PolyRing": (lambda: PolyRing(("x", "y")), "PolyRing(variables=('x', 'y'))", {"variables": ("z",)}, True),
    "_Token": (
        lambda: _Token("name", "x", 1, 2),
        "_Token(kind='name', value='x', line=1, column=2)",
        {"column": 5},
        True,
    ),
    "BranchParam": (
        lambda: BranchParam("axis", (O, T)),
        "BranchParam(name='axis', components=(Poly(0), Poly(t)), trunc=16, host='sigma', multiplicity=1)",
        {"trunc": 8},
        True,
    ),
    "BranchValidation": (
        lambda: BranchValidation(False, ("x", 1)),
        "BranchValidation(ok=False, violation=('x', 1))",
        {"ok": True},
        True,
    ),
    "CriticalLocusReport": (
        lambda: CriticalLocusReport(IDEAL, 0, 1),
        "CriticalLocusReport(ideal=Ideal<x, y>, dim=0, f_slice_dim=1)",
        {"dim": 1},
        True,
    ),
    "BranchTerm": (
        lambda: BranchTerm("axis", 1, 2, 1),
        "BranchTerm(name='axis', multiplicity=1, local_degree=2, slice_milnor=1)",
        {"slice_milnor": 3},
        True,
    ),
    "LeData": (
        lambda: LeData(1, 2, ("x", "y"), ("isolated",), ()),
        "LeData(lambda0=1, lambda1=2, coords=('x', 'y'), route_log=('isolated',), terms=())",
        {"terms": None},
        True,
    ),
    "PolarCurve": (
        lambda: PolarCurve(IDEAL, 1),
        "PolarCurve(ideal=Ideal<x, y>, dim=1, components=())",
        {"dim": -1},
        True,
    ),
    "GapRatio": (
        lambda: GapRatio("axis", 3, 1, Fraction(3)),
        "GapRatio(name='axis', ord_g=3, ord_f=1, ratio=Fraction(3, 1))",
        {"ord_f": 2},
        True,
    ),
    "GapReport": (
        lambda: GapReport((GapRatio("axis", 3, 1, Fraction(3)),), 3, Fraction(3), ((X, Y),)),
        "GapReport(ratios=(GapRatio(name='axis', ord_g=3, ord_f=1, ratio=Fraction(3, 1)),), "
        "g_intersection=3, exact_max=Fraction(3, 1))",
        {"exact_max": None},
        True,
    ),
    "Limits": (lambda: Limits(), "Limits(reduction_cap=1000000, trunc=16)", {"trunc": 8}, True),
    "Scenario": (
        lambda: Scenario("s", RING, X**2 + Y**2, X, (2, 4)),
        "Scenario(name='s', ring=PolyRing(variables=('x', 'y')), g=Poly(x^2 + y^2), f=Poly(x), "
        "n_range=(2, 4), branches=(), dataset=None, limits=Limits(reduction_cap=1000000, trunc=16), "
        "expected=None)",
        {"n_range": (3, 5)},
        True,
    ),
    "StratumRecord": (
        lambda: StratumRecord("regular", 2, 1, {"g": -1}, frozenset({"f"})),
        "StratumRecord(name='regular', dim=2, eu=1, chi={'g': -1}, in_zero_locus_of=frozenset({'f'}))",
        {"eu": 2},
        False,
    ),
    "BranchTableRow": (
        lambda: BranchTableRow("b", m_f=1),
        "BranchTableRow(name='b', m_f=1, eu_X_b=None, eu_Xg_b=None, B_g_f_fibre=None, eu_g_f_fibre=None, "
        "eu_f_gtilde_fibre=None, B_f_gtilde_fibre=None)",
        {"eu_X_b": 1},
        True,
    ),
    "StratifiedDataset": (
        lambda: StratifiedDataset((STRATUM,), None, {"N": 3}),
        "StratifiedDataset(strata=(StratumRecord(name='regular', dim=2, eu=1, chi={'g': -1}, "
        "in_zero_locus_of=frozenset({'f'})),), branch_table=None, known={'N': 3}, "
        "f_is_linear=False)",
        {"f_is_linear": True},
        False,
    ),
    "IdentityVerdict": (
        lambda: IdentityVerdict("le_numbers", "PASS", 1, 1),
        "IdentityVerdict(name='le_numbers', status='PASS', left=1, right=1, note='')",
        {"status": "FAIL"},
        True,
    ),
    "DeformationCase": (
        lambda: DeformationCase(X**2, Y, 3, 2),
        "DeformationCase(g=Poly(x^2), f=Poly(y), n=3, certificate=2)",
        {"certificate": None},
        False,
    ),
    "SweepRow": (
        lambda: SweepRow(3, True, 2, -1, (VERDICT,), None, None),
        "SweepRow(n=3, in_range=True, certificate=2, chi_gtilde=-1, verdicts=(IdentityVerdict("
        "name='le_numbers', status='PASS', left=1, right=1, note=''),), morse_defect=None, "
        "morse_expansion=None)",
        {"in_range": False},
        True,
    ),
    "VerdictTable": (
        lambda: VerdictTable("s", ("x", "y"), "x^2 + y^2", "x", 2, LE, -1, None, [ROW], {"N": [2, 4]}),
        "VerdictTable(scenario='s', variables=('x', 'y'), g='x^2 + y^2', f='x', threshold=2, "
        "le=LeData(lambda0=1, lambda1=2, coords=('x', 'y'), route_log=('isolated',), terms=()), "
        "chi_g=-1, terms=None, rows=[SweepRow(n=3, in_range=True, certificate=2, chi_gtilde=-1, "
        "verdicts=(IdentityVerdict(name='le_numbers', status='PASS', left=1, right=1, note=''),), "
        "morse_defect=None, morse_expansion=None)], defaults={'N': [2, 4]})",
        {"threshold": 3},
        False,
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name][0]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_give_equal_records(name):
    build, _, _, hashes = RECORDS[name]
    a, b = build(), build()
    assert a is not b and a == b
    if hashes:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_the_field_listing(name):
    build, text, _, _ = RECORDS[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", RECORDS)
def test_replace_changes_one_field(name):
    build, _, change, _ = RECORDS[name]
    record = build()
    changed = record._replace(**change)
    assert type(changed) is type(record) and changed != record
    assert changed._asdict() == {**record._asdict(), **change}


def test_validated_records_reject_bad_fields():
    with pytest.raises(ValueError, match="at least one variable"):
        PolyRing(())
    with pytest.raises(ValueError, match="duplicate variable names"):
        PolyRing(("x", "x"))
    with pytest.raises(ValueError, match="truncation order"):
        BranchParam("axis", (O, T), trunc=0)
    with pytest.raises(ValueError, match="unknown branch host"):
        BranchParam("axis", (O, T), host="nowhere")
    with pytest.raises(ValueError, match="exceeds the sound bound"):
        GapReport((), 3, Fraction(5))


def test_default_mappings_are_empty_and_read_only():
    for mapping in (StratumRecord("s", 0, 1).chi, StratifiedDataset().known):
        assert mapping == {}
        with pytest.raises(TypeError):
            mapping["d"] = 1
