"""The package's public names, pinned: adding or removing one is a
deliberate edit of this list."""

from __future__ import annotations

import tvpm

PUBLIC_NAMES = [
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


def test_all_is_the_pinned_list():
    assert tvpm.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    missing = [name for name in tvpm.__all__ if not hasattr(tvpm, name)]
    assert missing == []
