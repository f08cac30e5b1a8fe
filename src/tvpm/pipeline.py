"""End-to-end plus-minus solve: separate (``separating_hyperplane``, or
``trivial_hyperplane`` for an empty marked face), lift
(``lift_configuration``), search, pull back.  Each stage takes the
configuration and scales the points it needs itself.

The lift is kept in homogeneous integer coordinates (``separation``): point
``i`` is the vector ``H_i = sign(S_i) * K * (P_i, q)`` with weight ``N_i =
|S_i|``.  The search runs on them directly (``solver._first_hit``).  Each
of its columns ``(N_t, H_t)`` is a positive multiple of the column the
rational lift ``(p, 1) / s`` would give, so the LP kernel, which divides
every column to a primitive one, starts from the same dictionary: the same
Bland pivots, the same Farkas multipliers and the same point, up to those
column scales.  The pull-back (``separation.pull_back_coefficients``)
reads the certificate off the search's hit; the solve calls it through
this module's name, which the benchmark's tracer wraps.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import InternalError, MuTooLarge, ParseError
from .model import (
    COLORED,
    Configuration,
    PlusMinusCertificate,
    is_prime,
    validate_configuration,
)
from .separation import (
    lift_configuration,
    pull_back_coefficients,
    separating_hyperplane,
    trivial_hyperplane,
)
from .solver import _first_hit
from .verifier import verify_certificate


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
    hit = _first_hit(lifted, config.r, config.coloring)
    beta, coefficients, b = pull_back_coefficients(hit, lifted)
    cert = PlusMinusCertificate(
        blocks=hit[0],
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
