"""Exact solvers and verifiers for Tverberg-type partitions.

Classical, rainbow (colored), and plus-minus partitions of rational point
configurations, solved and certified in exact arithmetic: a strictly
separating hyperplane for the marked face, a projective lift onto a unit
product hyperplane, an exhaustive convex-position search there, and a pull
back that turns convex weights into signed affine coefficients.  A brute
force oracle re-derives everything without the lift.
"""

from .errors import (
    DegenerateLift,
    InternalError,
    MuTooLarge,
    ParseError,
    SeparationInfeasible,
    TvpmError,
)
from .linalg import Point, Scalar, dot, format_scalar, parse_scalar
from .lp import Constraint, LinearProgram, LpResult, lp_solve, satisfies
from .model import (
    CLASSICAL,
    COLORED,
    Configuration,
    Hyperplane,
    PlusMinusCertificate,
    TverbergPartition,
    is_prime,
    parse_certificate,
    parse_configuration,
    serialize_certificate,
    serialize_configuration,
    tverberg_point_count,
    validate_certificate_structure,
    validate_configuration,
)
from .pipeline import (
    corollary_coloring,
    plus_minus_partition,
    pull_back_coefficients,
    run_corollary,
)
from .separation import (
    LiftedConfiguration,
    lift_configuration,
    separating_hyperplane,
    trivial_hyperplane,
)
from .solver import (
    enumerate_partitions,
    hulls_intersect,
    tverberg_partition,
    validate_partition,
)
from .verifier import (
    VerifyResult,
    oracle_enumerate,
    signed_presentation,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "CLASSICAL",
    "COLORED",
    "Configuration",
    "Constraint",
    "DegenerateLift",
    "Hyperplane",
    "InternalError",
    "LiftedConfiguration",
    "LinearProgram",
    "LpResult",
    "MuTooLarge",
    "ParseError",
    "PlusMinusCertificate",
    "Point",
    "Scalar",
    "SeparationInfeasible",
    "TvpmError",
    "TverbergPartition",
    "VerifyResult",
    "corollary_coloring",
    "dot",
    "enumerate_partitions",
    "format_scalar",
    "hulls_intersect",
    "is_prime",
    "lift_configuration",
    "lp_solve",
    "oracle_enumerate",
    "parse_certificate",
    "parse_configuration",
    "parse_scalar",
    "plus_minus_partition",
    "pull_back_coefficients",
    "run_corollary",
    "satisfies",
    "separating_hyperplane",
    "serialize_certificate",
    "serialize_configuration",
    "signed_presentation",
    "trivial_hyperplane",
    "tverberg_partition",
    "tverberg_point_count",
    "validate_certificate_structure",
    "validate_configuration",
    "validate_partition",
    "verify_certificate",
]
