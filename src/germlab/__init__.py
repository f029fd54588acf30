"""germlab: an exact-arithmetic workbench for singularity invariants of
polynomial function-germs.

The package computes Milnor numbers, Le numbers, relative polar curves and
gap ratios over the rationals, verifies the deformation identities for
g + f^N across exponent sweeps, and evaluates Brasselet-number bookkeeping
over user-supplied stratified data.  Everything is exact and deterministic.
"""

from .errors import (
    ComponentMismatchError,
    DegenerateBranchError,
    ExponentRangeError,
    GenericityError,
    GermlabError,
    HypothesisError,
    ImproperIntersectionError,
    InstabilityError,
    IterationLimitError,
    MissingSliceError,
    NonisolatedError,
    ParseError,
    RingMismatchError,
    SchemaError,
    UndefinedLeError,
)
from .ideals import (
    IdealPresentation,
    dim_at_origin,
    quotient_dim_local,
    standard_basis_of,
)
from .invariants import (
    BranchParam,
    branch_slice_milnor,
    critical_locus,
    local_degree,
    milnor_number,
    validate_branch,
)
from .le import LeData, euler_char_fibre, le_numbers
from .orders import DEGREVLEX, LOCAL, MonomialOrder
from .parsing import parse_poly
from .polar import (
    GapReport,
    PolarCurve,
    deformed_polar_ideal,
    gap_ratios,
    intersection_number,
    iomdin_threshold,
    relative_polar_ideal,
)
from .rings import Poly, PolyRing
from .scenario import Scenario, load_scenario, save_scenario
from .stratified import (
    BranchTableRow,
    StratifiedDataset,
    StratumRecord,
    bls_euler_obstruction,
    brasselet_number,
    euler_obstruction_of_function,
    verify_stratified_identities,
)
from .verifier import (
    VerdictTable,
    export_dataset,
    verify_scenario,
)
from .fixtures_lib import list_fixtures, load_fixture

__version__ = "0.1.0"
