"""The search's homogeneous program, and its outputs pinned by digest.

Points that all lie on one hyperplane missing the origin, ``<P, v> = 1``,
make every block's sum row but the first redundant, so the search drops
them; in the search's weighted form, vectors ``H`` whose weights are ``N =
<H, v>``.  The lift's points always lie on such a hyperplane; full-count
points seldom do.  The digests were recorded while every search program
still had one sum row per block: the outputs of full-count searches and of
``hulls_intersect``, which keeps the full program, must not move, and the
blocks of small integer plus-minus solves must not move either.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import gen
from bareiss import solve_linear_system
from tvpm import plus_minus_partition, solver
from tvpm.errors import DegenerateLift, SeparationInfeasible
from tvpm.lp import FEASIBLE, INFEASIBLE, integer_points, lp_solve, satisfies
from tvpm.model import CLASSICAL, COLORED, Configuration, tverberg_point_count
from tvpm.separation import lift_configuration, separating_hyperplane
from tvpm.solver import enumerate_partitions, hulls_intersect, tverberg_partition
from tvpm.verifier import verify_certificate

F = Fraction

# SHA-256 of one line per full-count search: blocks, weights, witness.
FULL_COUNT_DIGEST = "70cca3cb54364966af42f06a80c7311f7ed2852f9ef47b9127db672e7a1930c1"
# SHA-256 of one line per ``hulls_intersect`` call.
HULLS_DIGEST = "ed2705b1ce322ed48840afb17d3dc7581a313f5a9df52985bb7faffe93c27c00"
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


def solves_to_one(points) -> bool:
    """The reference decision: ``P v = 1`` has a solution."""
    result = solve_linear_system([list(p) for p in points], [1] * len(points))
    return result.status != "inconsistent"


class TestHomogeneity:
    def check(self, points) -> bool:
        q, ints = integer_points(points)
        decided, _ = solver._dependences(ints, [q] * len(ints), 3)
        assert decided == solves_to_one(points), points
        return decided

    def test_random_points(self):
        rng = random.Random("homogeneous-random")
        verdicts = set()
        for _ in range(300):
            dim = rng.randint(1, 4)
            n = rng.randint(1, 8)
            if rng.random() < 0.5:
                points = [small_point(rng, dim) for _ in range(n)]
            else:
                points = [gen.random_point(rng, dim) for _ in range(n)]
            verdicts.add(self.check(points))
        assert verdicts == {False, True}

    def test_lifted_points_are_homogeneous(self):
        for d, r, mu_size, colored in ((2, 3, 2, False), (4, 2, 1, False),
                                       (1, 5, 2, False), (1, 5, 3, True)):
            for seed in range(3):
                config = gen.separable_configuration(seed, d, r, mu_size, colored)
                lift = lift_configuration(config, separating_hyperplane(config))
                assert self.check(lift.points)
                # The search's own columns: N = <H, (W, -A)> / K.
                assert solver._dependences(lift.vectors, lift.weights, r)[0]

    def test_points_on_an_affine_hyperplane_with_duplicates(self):
        rng = random.Random("homogeneous-duplicates")
        for _ in range(50):
            dim = rng.randint(1, 3)
            v = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)]
            if not any(v):
                continue
            # Points with <p, v> = 1, each listed twice.
            points = []
            for _ in range(rng.randint(1, 4)):
                p = [F(rng.randint(-4, 4)) for _ in range(dim)]
                k = next(m for m in range(dim) if v[m])
                p[k] = 0
                p[k] = (1 - sum(a * b for a, b in zip(p, v))) / v[k]
                points += [tuple(p), tuple(p)]
            assert self.check(points)

    def test_points_through_the_origin_are_not(self):
        for points in (
            ((1, 1), (2, 2), (3, 3)),
            ((0, 0), (1, 2)),
            ((0,), (0,), (0,)),
            ((1, 0, 2), (-1, 0, -2), (2, 0, 4)),
        ):
            assert not self.check([tuple(map(F, p)) for p in points])


class TestSearchProgram:
    def test_collinear_points_through_the_origin_keep_their_partition(self):
        # Flat point count, yet not homogeneous: the search keeps every
        # sum row and solves them.
        partition = tverberg_partition(((1, 1), (2, 2), (3, 3)), 2)
        assert partition.blocks == ((0, 2), (1,))
        assert partition.witness == (2, 2)

    def row_counts(self, monkeypatch, points, r, coloring=None) -> set:
        """The row counts of the programs the search poses, whether it
        solves them (the walk) or checks its point against one (the
        two-block Radon hit)."""
        rows = set()
        original = solver._hulls_program

        def recording(*args, **kwargs):
            lp = original(*args, **kwargs)
            rows.add(len(lp.constraints))
            return lp

        monkeypatch.setattr(solver, "_hulls_program", recording)
        tverberg_partition(points, r, coloring)
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
            assert self.row_counts(monkeypatch, lift.points, r, config.coloring) == {
                rows
            }

    def test_full_count_programs_keep_every_sum_row(self, monkeypatch):
        # r + (r - 1) * dim rows on points spanning their space.
        rng = random.Random("full-count-rows")
        for dim, r in ((1, 3), (2, 3), (3, 2)):
            points = [
                gen.random_point(rng, dim)
                for _ in range(tverberg_point_count(dim, r))
            ]
            assert self.row_counts(monkeypatch, points, r) == {r + (r - 1) * dim}


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
            full = solver._hulls_program(*columns, blocks)
            reduced = solver._hulls_program(*columns, blocks, homogeneous=True)
            assert len(full.constraints) - len(reduced.constraints) == r - 1
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
    for blocks in hulls_cases():
        hit = hulls_intersect(blocks)
        lines.append(repr(hit))
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
