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
column scales.

The pull-back reads the certificate off the LP's point ``u`` (one value per
point, on the hit's blocks).  The sum row gives ``sum(|s_t| u_t : t in
B_0) = 1``, so ``|s_t| u_t`` are block 0's convex weights on the lifted
points, and

    beta = sum(sign_t * u_t : t in B_0),  c_i = sign_i * u_i / beta,
    b = sum(c_t * p_t : t in B_0),

with ``sign_t`` the sign of ``s_t``: marked vertices (negative factors)
come back nonpositive and unmarked ones nonnegative, while each block
still presents the same point b affinely.  No lifted point, witness or
common denominator over the lift is built.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Sequence

from .errors import InternalError, MuTooLarge, ParseError
from .linalg import common_denominator, scaled
from .model import (
    COLORED,
    Configuration,
    PlusMinusCertificate,
    is_prime,
    validate_configuration,
)
from .separation import (
    LiftedConfiguration,
    lift_configuration,
    separating_hyperplane,
    trivial_hyperplane,
)
from .solver import Blocks, _first_hit
from .verifier import verify_certificate


def pull_back_coefficients(
    hit: tuple[Blocks, Sequence[Fraction]], lifted: LiftedConfiguration
) -> tuple[Fraction, dict[int, Fraction], tuple[Fraction, ...]]:
    """Signed coefficients and target point from a search hit on the lift.

    ``hit`` is the blocks and the LP's point ``u``, one value per point in
    block order, of the search's program on ``lifted``.  Returns (beta,
    coefficients, b) as in the module docstring, read off the homogeneous
    vector ``sum(u_t * H_t : t in B_0)``: ``H_t = sign_t * scale * (p_t,
    1)``, so that vector is ``scale * (beta * b, beta)``.  beta is positive
    because at least one block avoids the marked face; the guard protects
    the division.
    """
    blocks, point = hit
    values = dict(zip((i for block in blocks for i in block), point))
    vectors = lifted.vectors
    # x = den * sum(u_t * H_t : t in B_0) in integers, which is den * scale
    # times (beta * b, beta).
    den = common_denominator(values[t] for t in blocks[0])
    den_u = scaled([values[t] for t in blocks[0]], den)
    x = [
        sum(a * vectors[t][m] for a, t in zip(den_u, blocks[0]) if a)
        for m in range(len(vectors[0]))
    ]
    beta = Fraction(x[-1], den * lifted.scale)
    if beta <= 0:
        raise InternalError(f"normalizer must be positive, got {beta}")
    coefficients = {
        i: (v if vectors[i][-1] > 0 else -v) / beta for i, v in values.items()
    }
    b = tuple(Fraction(v, x[-1]) for v in x[:-1])
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
    hit = _first_hit(
        lifted.vectors, lifted.weights, lifted.scale, config.r, config.coloring
    )
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
