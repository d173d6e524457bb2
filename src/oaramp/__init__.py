"""Orthogonal arrays, augmented orthogonal arrays, and ideal ramp secret sharing.

Everything is exact and deterministic: fields are GF(p^j) with canonical
element encodings, arrays keep canonical row order, verification is
exhaustive within hard size caps, and nonexistence claims are certified by
bound arithmetic.
"""

from .designs import (
    THM48,
    THM410,
    AugmentedOA,
    BoundVerdict,
    ColumnDependency,
    NonexistenceReport,
    OrthogonalArray,
    SplitResult,
    VerifyResult,
    Witness,
    aoa_merge,
    aoa_split,
    bush_bound,
    demo_aoa_1333,
    dual_aoa,
    dump_array,
    linear_aoa,
    load_array,
    mds_max,
    nonexistence_witness,
    oa_from_generator,
    rs_generator,
    shamir_matrix,
    verify_aoa,
    verify_mds,
    verify_oa,
)
from .errors import CapExceeded, ConstructionError, SchemeError
from .gf import GF, field_for_order
from .linalg import Matrix, columns_independent, rank, row_space
from .ramp import (
    AuditReport,
    IdealBoundVerdict,
    RampScheme,
    ReconstructionResult,
    Rule,
    ShareBundle,
    aoa_from_scheme,
    audit_security,
    deal,
    format_bundle,
    ideal_bound_check,
    parse_bundle,
    reconstruct,
    scheme_from_aoa,
    scheme_shamir,
    strongness,
)

__all__ = [
    "GF", "field_for_order",
    "Matrix", "rank", "columns_independent", "row_space",
    "OrthogonalArray", "AugmentedOA", "VerifyResult", "Witness",
    "verify_oa", "verify_mds", "verify_aoa",
    "rs_generator", "oa_from_generator", "linear_aoa", "shamir_matrix",
    "dual_aoa", "aoa_merge", "aoa_split", "SplitResult", "ColumnDependency",
    "bush_bound", "mds_max", "BoundVerdict",
    "nonexistence_witness", "NonexistenceReport", "THM48", "THM410", "demo_aoa_1333",
    "dump_array", "load_array",
    "RampScheme", "Rule", "ShareBundle", "scheme_from_aoa", "aoa_from_scheme",
    "scheme_shamir", "deal", "reconstruct", "ReconstructionResult",
    "audit_security", "AuditReport", "ideal_bound_check", "IdealBoundVerdict",
    "strongness", "format_bundle", "parse_bundle",
    "CapExceeded", "ConstructionError", "SchemeError",
]

__version__ = "0.1.0"
