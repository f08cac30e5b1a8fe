"""Test-only reference: the rational lift and its pull-back.

These are ``separation.lift_configuration`` and
``pipeline.pull_back_coefficients`` as they were while the search still ran
on the lift in ``Fraction``s: every point divided by its factor ``s = <p,
w> - alpha``, the classical search run on those points, and the
certificate read off the search's convex weights and witness.  The package
now keeps the lift as integer vectors and weights and pulls back from the
LP's point directly; comparing the two checks that the integer form is the
same lift and gives the same ``(beta, coefficients, b)``.
"""

from __future__ import annotations

from fractions import Fraction

from tvpm.linalg import ONE, dot
from tvpm.model import Configuration, Hyperplane, TverbergPartition


def lift(
    config: Configuration, hyperplane: Hyperplane
) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[Fraction, ...]]:
    """The lifted points ``(p, 1) / s`` and the factors ``s``."""
    points = []
    factors = []
    for p in config.points:
        s = dot(p, hyperplane.w) - hyperplane.alpha
        inv = ONE / s
        factors.append(s)
        points.append(tuple(c * inv for c in p) + (inv,))
    return tuple(points), tuple(factors)


def pull_back(
    partition: TverbergPartition, factors: tuple[Fraction, ...]
) -> tuple[Fraction, dict[int, Fraction], tuple[Fraction, ...]]:
    """``(beta, coefficients, b)`` from a partition of the lifted points:
    the witness ends in ``beta = sum(lambda_i / s_i)``, its other
    coordinates over ``beta`` are ``b``, and ``c_i = lambda_i / (beta *
    s_i)``."""
    beta = partition.witness[-1]
    coefficients = {
        i: partition.coefficients[i] / (beta * factors[i])
        for block in partition.blocks
        for i in block
    }
    b = tuple(c / beta for c in partition.witness[:-1])
    return beta, coefficients, b
