"""The search's square program, and its outputs pinned by digest.

Every search input is homogeneous: its weights are ``N = <H, v>`` for one
``v``, so every point ``H / N`` lies on the hyperplane ``<x, v> = 1`` and
every block's sum row but block 0's is implied.  The lift is homogeneous
with ``v = (W, -A) / K``; ``tverberg_partition`` searches the columns
``(P, q)`` of its integer points with ``N = q``, homogeneous with ``v =
e_last``.  Every program then has ``1 + (r-1)(d+1) = n`` rows for its ``n``
variables.  The digests were recorded while every search program still
had one sum row per block and ``tverberg_partition`` searched the points
``P`` themselves: the outputs of full-count searches, uncolored and
rainbow, must not move, nor the verdicts of ``hulls_intersect``, nor the
blocks of small integer plus-minus solves.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import accumulate
from math import lcm

import gen
from lift_search import search_lift
from tvpm import plus_minus_partition, solver
from tvpm.errors import DegenerateLift, SeparationInfeasible
from tvpm.lp import (
    FEASIBLE,
    INFEASIBLE,
    Constraint,
    LinearProgram,
    integer_points,
    lp_solve,
    satisfies,
)
from tvpm.model import CLASSICAL, COLORED, Configuration, tverberg_point_count
from tvpm.separation import lift_configuration, separating_hyperplane
from tvpm.solver import enumerate_partitions, hulls_intersect, tverberg_partition
from tvpm.verifier import verify_certificate

F = Fraction

# SHA-256 of one line per full-count search: blocks, weights, witness.
FULL_COUNT_DIGEST = "70cca3cb54364966af42f06a80c7311f7ed2852f9ef47b9127db672e7a1930c1"
# The same for rainbow full-count searches.
COLORED_FULL_COUNT_DIGEST = (
    "270d695021b48e648191943c5749cd1f21ea3af6a6122e111715a14d07dc09c1"
)
# SHA-256 of one line per ``hulls_intersect`` call.  Case 13, three 1-D
# blocks whose hulls meet in an interval, moved when the program went to
# the columns ``(P, q)``: its witness is 9/4 where it was 28/5.
HULLS_DIGEST = "89084cc88e141a9b7c5975e4f3e4e8dd20bf88c5044dc1ceee47bd972690958a"
# (cases whose hulls meet, SHA-256 of the verdicts as one string of 0 and 1).
HULLS_VERDICTS = (
    28,
    "e1e2869a4a809b93499e7ee3d73ddfd9a8135969dc2d6d36e5652a38db48d523",
)
# (configurations, certificates, SHA-256 of one line per solve: the error's
# class name or the certificate's blocks).
SMALL_INTEGER_BLOCKS = (
    300,
    200,
    "da22f1b1800780611c0f3364ac426858e8bb63f8c00bda088cf9483b172918be",
)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def small_point(rng: random.Random, dim: int) -> tuple[Fraction, ...]:
    return tuple(F(rng.randint(-2, 2)) for _ in range(dim))


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


class TestHomogeneity:
    def test_lifted_points_are_homogeneous(self):
        # N_t = <H_t, (W, -A)> / K, with K the least common denominator of
        # (w, alpha) and (W, A) = K * (w, alpha).
        for d, r, mu_size, colored in ((2, 3, 2, False), (4, 2, 1, False),
                                       (1, 5, 2, False), (1, 5, 3, True)):
            for seed in range(3):
                config = gen.separable_configuration(seed, d, r, mu_size, colored)
                hyperplane = separating_hyperplane(config)
                coefficients = (*hyperplane.w, hyperplane.alpha)
                k = lcm(*(c.denominator for c in coefficients))
                *w, a = (int(c * k) for c in coefficients)
                lift = lift_configuration(config, hyperplane)
                for h, n in zip(lift.vectors, lift.weights):
                    assert dot(h, (*w, -a)) == k * n

    def test_full_count_columns_are_homogeneous(self, monkeypatch):
        # tverberg_partition searches (P_t, q) with N_t = q = <H_t, e_last>.
        searched = []

        def recording(lift, r, coloring=None):
            searched.append((lift.vectors, lift.weights, lift.scale))
            return first_hit(lift, r, coloring)

        first_hit = solver._first_hit
        monkeypatch.setattr(solver, "_first_hit", recording)
        for points, r in full_count_searches():
            tverberg_partition(points, r)
            vectors, weights, total = searched.pop()
            q, ints = integer_points(points)
            assert vectors == tuple((*p, q) for p in ints)
            assert total == q and list(weights) == [q] * len(points)
            e_last = (0,) * len(points[0]) + (1,)
            assert [dot(h, e_last) for h in vectors] == list(weights)


class TestSearchProgram:
    def row_counts(self, monkeypatch, search, *args) -> set:
        """The row counts of the programs ``search(*args)`` poses, whether it
        solves them (the walk) or checks its point against one (the
        two-block Radon hit)."""
        rows = set()
        original = solver._hulls_program

        def recording(*parts):
            lp = original(*parts)
            rows.add(len(lp.constraints))
            return lp

        monkeypatch.setattr(solver, "_hulls_program", recording)
        search(*args)
        monkeypatch.undo()
        return rows

    def test_lifted_programs_keep_one_sum_row(self, monkeypatch):
        # 1 + (r - 1)(d + 1) rows on the lift of d-dimensional points.
        for (d, r, mu_size, colored), rows in (
            ((2, 3, 2, False), 7),
            ((4, 2, 1, False), 6),
            ((1, 5, 2, False), 9),
            ((1, 5, 3, True), 9),
        ):
            config = gen.separable_configuration(0, d, r, mu_size, colored)
            lift = lift_configuration(config, separating_hyperplane(config))
            counts = self.row_counts(
                monkeypatch, search_lift, lift, r, config.coloring
            )
            assert counts == {rows}

    def test_full_count_programs_keep_every_sum_row(self, monkeypatch):
        # r + (r - 1) * dim rows, as many as the program with one sum row
        # per block: on the columns (P, q) block 0's sum row and the
        # coupling rows on q imply every other block's.
        rng = random.Random("full-count-rows")
        for dim, r in ((1, 3), (2, 3), (3, 2)):
            points = [
                gen.random_point(rng, dim)
                for _ in range(tverberg_point_count(dim, r))
            ]
            counts = self.row_counts(monkeypatch, tverberg_partition, points, r)
            assert counts == {r + (r - 1) * dim}


def full_program(total, vectors, weights, blocks) -> LinearProgram:
    """The reference program with one sum row per block: one variable per
    point in block order, the rows ``sum(N_t x_t : t in B_j) = total`` for
    every block ``j``, then for each block ``j >= 1`` and axis ``m`` the
    coupling row ``sum(H_t[m] x_t : t in B_0) - sum(H_t[m] x_t : t in B_j)
    = 0``."""
    starts = [0, *accumulate(len(b) for b in blocks)]
    nvar = starts[-1]
    rows = []
    for j, block in enumerate(blocks):
        coeffs = [0] * nvar
        for t, i in enumerate(block, starts[j]):
            coeffs[t] = weights[i]
        rows.append(Constraint(tuple(coeffs), total))
    for j in range(1, len(blocks)):
        for m in range(len(vectors[0])):
            coeffs = [0] * nvar
            for t, i in enumerate(blocks[0]):
                coeffs[t] = vectors[i][m]
            for t, i in enumerate(blocks[j], starts[j]):
                coeffs[t] = -vectors[i][m]
            rows.append(Constraint(tuple(coeffs), 0))
    return LinearProgram(nvar, tuple(rows))


def test_dropped_sum_rows_are_implied_and_take_multiplier_zero():
    """On the lift's vectors and weights the program without block ``j``'s
    sum rows has the same verdict as the full one.  A feasible point
    satisfies the full program, and an infeasible verdict's multipliers
    with 0 for each dropped row are a Farkas certificate of the full
    program."""
    verdicts = set()
    for d, r, mu_size in ((2, 3, 2), (1, 4, 2)):
        config = gen.separable_configuration(0, d, r, mu_size)
        lift = lift_configuration(config, separating_hyperplane(config))
        columns = (lift.scale, lift.vectors, lift.weights)
        for blocks in enumerate_partitions(len(lift.vectors), r):
            full = full_program(*columns, blocks)
            reduced = solver._hulls_program(lift, blocks)
            assert reduced.constraints == full.constraints[:1] + full.constraints[r:]
            result = lp_solve(reduced)
            verdicts.add(result.status)
            if result.status == FEASIBLE:
                assert satisfies(full, result.point)
                continue
            assert lp_solve(full).status == INFEASIBLE
            y = (result.multipliers[0],) + (0,) * (r - 1) + result.multipliers[1:]
            rows = full.constraints
            assert sum(a * c.rhs for a, c in zip(y, rows)) > 0
            for t in range(full.num_vars):
                assert sum(a * c.coeffs[t] for a, c in zip(y, rows)) <= 0
    assert verdicts == {FEASIBLE, INFEASIBLE}


def partition_line(partition) -> str:
    weights = " ".join(f"{i}:{c}" for i, c in sorted(partition.coefficients.items()))
    return f"{partition.blocks} | {weights} | {' '.join(map(str, partition.witness))}"


def full_count_searches():
    """Generic points, then points with coordinates in -2..2, repeated and
    collinear ones among them, all of the full count for their (dim, r)."""
    rng = random.Random("full-count-searches")
    for dim, r in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (1, 4)):
        for _ in range(5):
            n = tverberg_point_count(dim, r)
            yield [gen.random_point(rng, dim) for _ in range(n)], r
    for _ in range(60):
        dim, r = rng.randint(1, 2), rng.randint(2, 3)
        n = tverberg_point_count(dim, r)
        yield [small_point(rng, dim) for _ in range(n)], r


def test_full_count_searches_are_pinned():
    lines = [partition_line(tverberg_partition(p, r)) for p, r in full_count_searches()]
    assert digest(lines) == FULL_COUNT_DIGEST


def colored_full_count_searches():
    """Rainbow searches of the full count: prime r, color classes of at
    most r - 1 vertices; generic points, then points with coordinates in
    -2..2."""
    rng = random.Random("colored-full-count-searches")
    for dim, r in ((1, 2), (1, 3), (2, 3), (3, 3), (1, 5)):
        for _ in range(5):
            n = tverberg_point_count(dim, r)
            points = [gen.random_point(rng, dim) for _ in range(n)]
            yield points, r, gen._random_coloring(rng, n, r)
    for _ in range(60):
        dim, r = rng.randint(1, 2), rng.choice((2, 3))
        n = tverberg_point_count(dim, r)
        points = [small_point(rng, dim) for _ in range(n)]
        yield points, r, gen._random_coloring(rng, n, r)


def test_colored_full_count_searches_are_pinned():
    lines = [
        partition_line(tverberg_partition(p, r, coloring))
        for p, r, coloring in colored_full_count_searches()
    ]
    assert len(lines) == 85
    assert digest(lines) == COLORED_FULL_COUNT_DIGEST


def hulls_cases():
    rng = random.Random("hulls-intersect-cases")
    for _ in range(150):
        dim = rng.randint(1, 3)
        point = small_point if rng.random() < 0.5 else gen.random_point
        yield [
            [point(rng, dim) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(2, 3))
        ]


def test_hulls_intersect_outputs_are_pinned():
    lines = []
    verdicts = ""
    for blocks in hulls_cases():
        hit = hulls_intersect(blocks)
        lines.append(repr(hit))
        verdicts += "0" if hit is None else "1"
        if hit is None:
            continue
        # Every block's weights are convex and give the witness exactly.
        witness, per_block = hit
        for block, weights in zip(blocks, per_block):
            assert len(weights) == len(block)
            assert all(c >= 0 for c in weights) and sum(weights) == 1
            for m, value in enumerate(witness):
                assert sum(c * p[m] for c, p in zip(weights, block)) == value
    assert (verdicts.count("1"), digest([verdicts])) == HULLS_VERDICTS
    assert digest(lines) == HULLS_DIGEST


def small_integer_configurations():
    """Plus-minus inputs with coordinates in -2..2, d in 1..2, r in 2..3, a
    random marked face of at most r - 1 points, one in four colored."""
    rng = random.Random("small-integer-plus-minus")
    for _ in range(SMALL_INTEGER_BLOCKS[0]):
        d, r = rng.randint(1, 2), rng.randint(2, 3)
        n = tverberg_point_count(d, r)
        points = tuple(small_point(rng, d) for _ in range(n))
        mu = tuple(sorted(rng.sample(range(n), rng.randint(0, r - 1))))
        coloring = None
        if rng.random() < 0.25:
            order = rng.sample(range(n), n)
            coloring = tuple(
                sorted(tuple(sorted(order[k : k + r - 1])) for k in range(0, n, r - 1))
            )
        yield Configuration(d, r, points, COLORED if coloring else CLASSICAL, coloring, mu)


def test_small_integer_blocks_are_pinned_and_certificates_verify():
    lines = []
    for config in small_integer_configurations():
        try:
            cert = plus_minus_partition(config)
        except (SeparationInfeasible, DegenerateLift) as exc:
            lines.append(type(exc).__name__)
            continue
        assert verify_certificate(config, cert).accepted
        lines.append(repr(cert.blocks))
    certificates = sum(line.startswith("(") for line in lines)
    assert (len(lines), certificates, digest(lines)) == SMALL_INTEGER_BLOCKS
