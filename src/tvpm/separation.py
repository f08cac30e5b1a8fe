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

from .errors import DegenerateLift, SeparationInfeasible
from .linalg import ONE, dot
from .lp import FEASIBLE, Constraint, LinearProgram, integer_points, lp_solve
from .model import Configuration, Hyperplane


@dataclass(frozen=True)
class LiftedConfiguration:
    """Images of the configuration points, all satisfying
    <point, (w, -alpha)> = 1, together with the per-vertex factors."""

    points: tuple[tuple[Fraction, ...], ...]
    sign_factors: tuple[Fraction, ...]


def separating_hyperplane(config: Configuration) -> Hyperplane:
    """A hyperplane with the marked points (``config.mu``) strictly below
    and the rest strictly above, or SeparationInfeasible when the two hulls
    intersect.

    The program is posed on integer points ``P = q * p`` in the kernel's
    form, every variable ``>= 0``: the free ``w_m`` and ``alpha`` are the
    differences ``w_m+ - w_m-`` and ``alpha+ - alpha-``, in the columns
    ``w_1+, w_1-, ..., w_d+, w_d-, alpha+, alpha-``, followed by one slack
    ``t_i`` per point.  Row ``i`` is ``P_i . w - q * alpha + t_i = -q`` for a
    marked point and ``P_i . w - q * alpha - t_i = q`` for the others: the
    margin rows ``s <= -1`` and ``s >= 1`` for ``s = <p, w> - alpha``, times
    ``q``, which ``lp_solve`` checks exactly before it returns the point.
    """
    if not config.mu:
        raise ValueError("separating hyperplane needs a nonempty marked face")
    members = set(config.mu)
    n = len(config.points)
    if len(members) >= n:
        raise ValueError("the complementary face must be nonempty")
    d = config.d
    q, points = integer_points(config.points)
    width = 2 * (d + 1)
    cons = []
    for i, p in enumerate(points):
        coeffs = [v for a in (*p, -q) for v in (a, -a)] + [0] * n
        if i in members:
            coeffs[width + i] = 1
            cons.append(Constraint(tuple(coeffs), -q))
        else:
            coeffs[width + i] = -1
            cons.append(Constraint(tuple(coeffs), q))
    result = lp_solve(LinearProgram(width + n, tuple(cons)))
    if result.status != FEASIBLE:
        raise SeparationInfeasible(
            "the marked face's hull meets the complementary hull"
        )
    x = result.point
    w = tuple(x[2 * m] - x[2 * m + 1] for m in range(d))
    return Hyperplane(w, x[2 * d] - x[2 * d + 1])


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
    for i, p in enumerate(config.points):
        s = dot(p, w) - alpha
        if s == 0:
            raise DegenerateLift(f"point {i} lies on the separating hyperplane")
        inv = ONE / s
        factors.append(s)
        lifted.append(tuple(c * inv for c in p) + (inv,))
    return LiftedConfiguration(tuple(lifted), tuple(factors))
