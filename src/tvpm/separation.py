"""Strict separation of the marked face and the projective lift.

The separating hyperplane is found by a feasibility program over (w, alpha)
with a margin of 1 on both sides, which turns the strict inequalities into
weak ones without losing exactness: any feasible point separates strictly,
and scaling shows a strict separator yields a margin-1 point.

The lift is the projective map ``p -> (p, 1) / s(p)``, ``s(p) = <p, w> -
alpha``, which moves every point onto the hyperplane of vectors whose
product with ``(w, -alpha)`` is 1.  Marked points have negative factors,
unmarked ones positive.  In homogeneous coordinates the map only flips a
sign: point ``i`` goes to the ray of ``sign(s_i) * (p_i, 1)``.  So the lift
is kept as integer vectors on those rays, with no ``Fraction`` and no
common denominator over the lifted points.  With ``P_i = q * p_i`` (the
points' ``integer_points``), ``W = K * w`` and ``A = K * alpha`` (``K``
the hyperplane's common denominator), ``S_i = <P_i, W> - q * A = q * K *
s_i``, and point ``i`` becomes

    H_i = sign(S_i) * K * (P_i, q)    with weight    N_i = |S_i|,

so that ``H_i / N_i`` is the lifted point exactly and ``N_i / (q * K)`` is
``|s_i|``.  The search poses its programs on ``H`` and ``N``
(``solver._first_hit``), and the pull-back needs only ``sign(S_i)``, the
sign of ``H_i``'s last entry.  ``separating_hyperplane`` and
``lift_configuration`` each take the configuration and scale its points.
The classical search is the same lift with every factor ``s = 1``: ``H_i =
(P_i, q)``, ``N_i = q`` and ``scale = q`` (``lift_configuration`` for ``w =
0`` and ``alpha = -1``), which ``solver.tverberg_partition`` and
``solver.hulls_intersect`` search.

The pull-back (``pull_back_coefficients``) reads the certificate off the
LP's point ``u`` of a search hit (one value per point, on the hit's
blocks).  The sum row gives ``sum(|s_t| u_t : t in B_0) = 1``, so ``|s_t|
u_t`` are block 0's convex weights on the lifted points, and

    beta = sum(sign_t * u_t : t in B_0),  c_i = sign_i * u_i / beta,
    b = sum(c_t * p_t : t in B_0),

with ``sign_t`` the sign of ``s_t``: marked vertices (negative factors)
come back nonpositive and unmarked ones nonnegative, while each block
still presents the same point b affinely.  No lifted point, witness or
common denominator over the lift is built.  On the lift with every factor
1, beta is 1, the coefficients are the convex weights and b is the common
point of the blocks' hulls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DegenerateLift, InternalError, SeparationInfeasible
from .linalg import ONE, common_denominator, scaled
from .lp import FEASIBLE, Constraint, LinearProgram, integer_points, lp_solve
from .model import Configuration, Hyperplane


@dataclass(frozen=True)
class LiftedConfiguration:
    """The lift in homogeneous integer coordinates: per configuration
    point, the vector ``H_i = sign(S_i) * K * (P_i, q)`` and the weight
    ``N_i = |S_i| > 0``, and ``scale = q * K`` (see the module docstring).

    ``points`` and ``sign_factors`` give the rational lift, each lifted
    point ``H_i / N_i`` on ``<point, (w, -alpha)> = 1`` and its factor
    ``s_i = sign(S_i) * N_i / scale``; the solve itself never builds them.
    """

    vectors: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]
    scale: int

    @property
    def points(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(
            tuple(Fraction(h, n) for h in vector)
            for vector, n in zip(self.vectors, self.weights)
        )

    @property
    def sign_factors(self) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(n if vector[-1] > 0 else -n, self.scale)
            for vector, n in zip(self.vectors, self.weights)
        )


def pull_back_coefficients(
    hit: tuple[Sequence[Sequence[int]], Sequence[Fraction]],
    lifted: LiftedConfiguration,
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
    q, points = integer_points(config.points)
    n = len(points)
    if len(members) >= n:
        raise ValueError("the complementary face must be nonempty")
    d = len(points[0])
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
    """The lift of every configuration point, ``(p, 1) / (<p, w> - alpha)``,
    as the integer vectors and weights of the module docstring."""
    q, points = integer_points(config.points)
    coefficients = (*hyperplane.w, hyperplane.alpha)
    k = common_denominator(coefficients)
    *w, alpha = scaled(coefficients, k)
    vectors = []
    weights = []
    for i, p in enumerate(points):
        s = sum(a * c for a, c in zip(p, w) if a and c) - q * alpha
        if s == 0:
            raise DegenerateLift(f"point {i} lies on the separating hyperplane")
        sign = k if s > 0 else -k
        vectors.append(tuple(sign * c for c in p) + (sign * q,))
        weights.append(abs(s))
    return LiftedConfiguration(tuple(vectors), tuple(weights), q * k)
