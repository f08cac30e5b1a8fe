"""Seeded random instance generators shared by the test modules.

Every generator derives its randomness from a string seed, so the whole
suite is reproducible run to run and machine to machine.  Marked faces are
made separable by construction: the marked points are translated along a
random direction until a strict margin opens up, which keeps the existence
theorem's hypothesis satisfied on every generated instance.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from tvpm import Configuration, tverberg_point_count
from bareiss import solve_linear_system
from tvpm.linalg import Point
from tvpm.model import CLASSICAL, COLORED

NUMERATOR_RANGE = 40
DENOMINATORS = (1, 2, 3, 4, 5, 6)


def random_point(rng: random.Random, d: int) -> Point:
    return tuple(
        Fraction(
            rng.randint(-NUMERATOR_RANGE, NUMERATOR_RANGE),
            rng.choice(DENOMINATORS),
        )
        for _ in range(d)
    )


def _random_direction(rng: random.Random, d: int) -> tuple[int, ...]:
    while True:
        w = tuple(rng.randint(-3, 3) for _ in range(d))
        if any(c != 0 for c in w):
            return w


def _separate(
    points: list[Point], mu: tuple[int, ...], rng: random.Random
) -> list[Point]:
    """Translate the marked points along a random direction until the two
    groups sit strictly on opposite sides of some hyperplane."""
    if not mu or len(mu) == len(points):
        return points
    d = len(points[0])
    w = _random_direction(rng, d)
    norm2 = sum(c * c for c in w)
    marked = set(mu)
    values = [sum(p[k] * w[k] for k in range(d)) for p in points]
    top = max(values[i] for i in marked)
    bottom = min(values[i] for i in range(len(points)) if i not in marked)
    # k * norm2 > top - bottom forces every marked value below every
    # unmarked one after the shift.
    k = (top - bottom) // norm2 + 1
    shifted = list(points)
    for i in marked:
        shifted[i] = tuple(points[i][j] - k * w[j] for j in range(d))
    return shifted


def _random_coloring(
    rng: random.Random, n: int, r: int
) -> tuple[tuple[int, ...], ...]:
    indices = list(range(n))
    rng.shuffle(indices)
    classes = []
    pos = 0
    while pos < n:
        size = rng.randint(1, r - 1)
        classes.append(tuple(sorted(indices[pos : pos + size])))
        pos += size
    classes.sort()
    return tuple(classes)


def separable_configuration(
    seed: int | str,
    d: int,
    r: int,
    mu_size: int = 1,
    colored: bool = False,
) -> Configuration:
    rng = random.Random(f"{seed}-{d}-{r}-{mu_size}-{int(colored)}")
    n = tverberg_point_count(d, r)
    points = [random_point(rng, d) for _ in range(n)]
    mu = tuple(sorted(rng.sample(range(n), mu_size))) if mu_size else ()
    points = _separate(points, mu, rng)
    coloring = _random_coloring(rng, n, r) if colored else None
    return Configuration(
        d=d,
        r=r,
        points=tuple(points),
        mode=COLORED if colored else CLASSICAL,
        coloring=coloring,
        mu=mu,
    )


def discrete_coloring(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple((i,) for i in range(n))


def _dependence_space(points: tuple[Point, ...]) -> list[tuple[Fraction, ...]]:
    d = len(points[0])
    n = len(points)
    matrix = [[points[i][k] for i in range(n)] for k in range(d)]
    matrix.append([Fraction(1)] * n)
    zero = [Fraction(0)] * (d + 1)
    return list(solve_linear_system(matrix, zero).nullspace)


def generic_radon_points(seed: int | str, d: int) -> tuple[Point, ...]:
    """d+2 points whose affine dependencies form a line with no zero
    coordinate, so the two-block split is unique and has full support."""
    for attempt in itertools.count():
        rng = random.Random(f"radon-{seed}-{d}-{attempt}")
        points = tuple(random_point(rng, d) for _ in range(d + 2))
        space = _dependence_space(points)
        if len(space) == 1 and all(c != 0 for c in space[0]):
            return points
    raise AssertionError("unreachable")
