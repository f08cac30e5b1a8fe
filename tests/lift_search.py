"""The plus-minus pipeline's own search on a lift, read as a partition of
the lifted points.

``search_lift(lift, r, coloring)`` runs ``solver._first_hit`` on the lift's
vectors, weights and scale, as ``plus_minus_partition`` does, and returns a
``TverbergPartition`` of ``lift.points``: the hit's blocks, the convex
weights ``N_t * u_t / scale`` of the search's point ``u``, and the witness
they give on block 0.  Block 0's sum row makes its weights sum to 1, and
every other block's sum row is implied, so ``validate_partition`` accepts
the result.  Tests that searched the lifted points as a point set search
the lift's own columns through this.
"""

from __future__ import annotations

from fractions import Fraction

from tvpm import solver
from tvpm.model import TverbergPartition


def search_lift(lift, r: int, coloring=None) -> TverbergPartition:
    blocks, point = solver._first_hit(
        lift.vectors, lift.weights, lift.scale, r, coloring
    )
    order = [t for block in blocks for t in block]
    coefficients = {
        t: lift.weights[t] * u / lift.scale for t, u in zip(order, point)
    }
    points = lift.points
    witness = tuple(
        sum((coefficients[t] * points[t][m] for t in blocks[0]), Fraction(0))
        for m in range(len(points[0]))
    )
    return TverbergPartition(blocks, coefficients, witness)
