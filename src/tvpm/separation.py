"""Strict separation of the marked face and the projective lift.

The separating hyperplane is found by a feasibility program over (w, alpha)
with a margin of 1 on both sides, which turns the strict inequalities into
weak ones without losing exactness: any feasible point separates strictly,
and scaling shows a strict separator yields a margin-1 point.

Lifting divides (p, 1) by the signed distance factor <p, w> - alpha, moving
every point onto the hyperplane of vectors whose product with (w, -alpha)
is 1.  Marked points have negative factors, unmarked ones positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DegenerateLift, InternalError, SeparationInfeasible
from .linalg import ONE, dot
from .lp import FEASIBLE, LinearProgram, constraint, integer_points, lp_solve
from .model import Configuration, Hyperplane


@dataclass(frozen=True)
class LiftedConfiguration:
    """Images of the configuration points, all satisfying
    <point, w_prime> = 1, together with the per-vertex factors."""

    points: tuple[tuple[Fraction, ...], ...]
    w_prime: tuple[Fraction, ...]
    sign_factors: tuple[Fraction, ...]


def separating_hyperplane(
    config: Configuration, mu: Sequence[int]
) -> Hyperplane:
    """A hyperplane with the mu-points strictly below and the rest strictly
    above, or SeparationInfeasible when the two hulls intersect."""
    face = tuple(mu)
    if not face:
        raise ValueError("separating hyperplane needs a nonempty marked face")
    members = set(face)
    if len(members) >= len(config.points):
        raise ValueError("the complementary face must be nonempty")
    d = config.d
    q, points = integer_points(config.points)
    cons = []
    for i, p in enumerate(points):
        coeffs = p + [-q]
        if i in members:
            cons.append(constraint(coeffs, "<=", -q))
        else:
            cons.append(constraint(coeffs, ">=", q))
    result = lp_solve(LinearProgram(d + 1, tuple(cons)))
    if result.status != FEASIBLE:
        raise SeparationInfeasible(
            "the marked face's hull meets the complementary hull"
        )
    w = result.point[:d]
    alpha = result.point[d]
    for i, p in enumerate(config.points):
        s = dot(p, w) - alpha
        if (i in members) != (s < 0) or s == 0:
            raise InternalError("separation margin lost in re-substitution")
    return Hyperplane(w, alpha)


def trivial_hyperplane(config: Configuration) -> Hyperplane:
    """A hyperplane strictly below every point, for the empty marked face."""
    w = (ONE,) + (Fraction(0),) * (config.d - 1)
    alpha = min(p[0] for p in config.points) - 1
    return Hyperplane(w, alpha)


def lift_configuration(
    config: Configuration, hyperplane: Hyperplane
) -> LiftedConfiguration:
    """Divide (p, 1) by <p, w> - alpha for every configuration point."""
    w, alpha = hyperplane.w, hyperplane.alpha
    factors = []
    lifted = []
    for p in config.points:
        s = dot(p, w) - alpha
        if s == 0:
            raise DegenerateLift(f"point {p} lies on the separating hyperplane")
        inv = ONE / s
        factors.append(s)
        lifted.append(tuple(c * inv for c in p) + (inv,))
    w_prime = tuple(w) + (-alpha,)
    return LiftedConfiguration(tuple(lifted), w_prime, tuple(factors))
