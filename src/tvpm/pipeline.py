"""End-to-end plus-minus solve: separate, lift, search, pull back.

The pulled-back coefficients divide each lifted convex weight by the shared
normalizer beta times the vertex's lift factor, so marked vertices (negative
factors) come back nonpositive and unmarked ones nonnegative, while each
block still presents the same point b affinely.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .errors import InternalError, MuTooLarge, ParseError
from .model import (
    COLORED,
    Configuration,
    PlusMinusCertificate,
    TverbergPartition,
    is_prime,
    validate_configuration,
)
from .separation import (
    LiftedConfiguration,
    lift_configuration,
    separating_hyperplane,
    trivial_hyperplane,
)
from .solver import tverberg_partition
from .verifier import verify_certificate


def pull_back_coefficients(
    partition: TverbergPartition, lifted: LiftedConfiguration
) -> tuple[Fraction, dict[int, Fraction], tuple[Fraction, ...]]:
    """Signed coefficients and target point from a partition of the lift.

    Returns (beta, coefficients, b).  Every lifted point ends in 1/s, its
    lift factor's inverse, so the witness's last coordinate is the common
    value sum(lambda_i / s_i) of every block: that is beta, and the other
    coordinates divided by beta are b.  beta is positive because at least
    one block avoids the marked face; the guard protects the division.
    """
    beta = partition.witness[-1]
    if beta <= 0:
        raise InternalError(f"normalizer must be positive, got {beta}")
    coefficients = {
        i: partition.coefficients[i] / (beta * lifted.sign_factors[i])
        for block in partition.blocks
        for i in block
    }
    b = tuple(c / beta for c in partition.witness[:-1])
    return beta, coefficients, b


def plus_minus_partition(config: Configuration) -> PlusMinusCertificate:
    """Solve the configuration and certify the result.

    Raises MuTooLarge when the marked face has more than r - 1 vertices and
    SeparationInfeasible when its hull meets the complementary hull.  An
    empty marked face degenerates to the classical (or rainbow) search with
    every coefficient nonnegative.  The one post-condition is
    verify_certificate on ``config``: a certificate it rejects raises
    InternalError naming the reason.
    """
    validate_configuration(config)
    if len(config.mu) > config.r - 1:
        raise MuTooLarge(
            f"marked face has {len(config.mu)} vertices; "
            f"at most r-1 = {config.r - 1} allowed"
        )
    if config.mu:
        hyperplane = separating_hyperplane(config)
    else:
        hyperplane = trivial_hyperplane(config)
    lifted = lift_configuration(config, hyperplane)
    partition = tverberg_partition(lifted.points, config.r, config.coloring)
    beta, coefficients, b = pull_back_coefficients(partition, lifted)
    cert = PlusMinusCertificate(
        blocks=partition.blocks,
        coefficients=coefficients,
        point_b=b,
        beta=beta,
        hyperplane=hyperplane,
        rainbow=config.mode == COLORED,
    )
    verdict = verify_certificate(config, cert)
    if not verdict.accepted:
        raise InternalError(
            f"produced a certificate the verifier rejects: {verdict.reason}"
        )
    return cert


def corollary_coloring(config: Configuration) -> tuple[tuple[int, ...], ...]:
    """The canonical coloring induced by the marked face ``config.mu``.

    Class 0 is the face itself; the remaining vertices are chunked in index
    order into classes of exactly r - 1 vertices, the last one possibly
    smaller.  Requires a nonempty face of at most r - 1 vertices and prime r.
    """
    face = tuple(sorted(config.mu))
    if not face:
        raise ParseError("the induced coloring needs a nonempty marked face")
    if not is_prime(config.r):
        raise ParseError(f"the induced coloring requires prime r, got {config.r}")
    if len(face) > config.r - 1:
        raise MuTooLarge(
            f"marked face has {len(face)} vertices; "
            f"at most r-1 = {config.r - 1} allowed"
        )
    members = set(face)
    rest = [i for i in range(len(config.points)) if i not in members]
    size = config.r - 1
    classes = [face]
    for k in range(0, len(rest), size):
        classes.append(tuple(rest[k : k + size]))
    return tuple(classes)


def run_corollary(config: Configuration) -> PlusMinusCertificate:
    """Solve with the face-induced coloring: rainbow blocks meet the marked
    face at most once, so each block carries at most one nonpositive slot.
    The face is class 0 of that coloring, so the post-condition's rainbow
    check holds every block to it."""
    validate_configuration(config)
    coloring = corollary_coloring(config)
    colored = replace(config, mode=COLORED, coloring=coloring)
    return plus_minus_partition(colored)
