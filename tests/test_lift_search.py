"""The plus-minus search on the lift's integer vectors, and the two-block
Radon dependence that names its hit without a walk or an LP.

The lift is kept as vectors ``H_i`` and weights ``N_i`` with ``H_i / N_i``
the lifted point; ``tests/fraction_lift.py`` keeps the rational lift and
pull-back it replaced, as the reference.  With two blocks the columns
``(H_t, N_t)`` of points that affinely span their space have one linear
dependence, whose signs decide every partition exactly as the LP does
(``_admits`` here is that decision): the search's hit must be the first
partition they admit, and its point the LP's.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import fraction_lift
import gen
from lift_search import search_lift
from search_counts import counting
from test_certificate_digests import DIGESTS
from tvpm import lp, pipeline, plus_minus_partition, solver
from tvpm.errors import DegenerateLift, InternalError, SeparationInfeasible
from tvpm.lp import integer_points, lp_solve
from tvpm.model import CLASSICAL, COLORED, Configuration, tverberg_point_count
from tvpm.separation import (
    LiftedConfiguration,
    lift_configuration,
    separating_hyperplane,
    trivial_hyperplane,
)
from tvpm.solver import enumerate_partitions, hulls_intersect, tverberg_partition
from tvpm.verifier import verify_certificate

F = Fraction


def small_integer_configurations():
    """60 plus-minus inputs with coordinates in -2..2, d in 1..3, r in
    2..3, a random marked face of at most r - 1 points, one in four
    colored; some are not separable."""
    rng = random.Random("integer-lift")
    for _ in range(60):
        d, r = rng.randint(1, 3), rng.randint(2, 3)
        n = tverberg_point_count(d, r)
        points = tuple(tuple(F(rng.randint(-2, 2)) for _ in range(d)) for _ in range(n))
        mu = tuple(sorted(rng.sample(range(n), rng.randint(0, r - 1))))
        coloring = None
        if rng.random() < 0.25:
            order = rng.sample(range(n), n)
            coloring = tuple(
                sorted(tuple(sorted(order[k : k + r - 1])) for k in range(0, n, r - 1))
            )
        mode = COLORED if coloring else CLASSICAL
        yield Configuration(d, r, points, mode, coloring, mu)


def configurations():
    """The twenty certificate-digest instances, then the small integer
    ones."""
    for d, r, mu_size, colored, seed in sorted(DIGESTS):
        yield gen.separable_configuration(seed, d, r, mu_size, colored)
    yield from small_integer_configurations()


def hyperplane_of(config):
    if config.mu:
        return separating_hyperplane(config)
    return trivial_hyperplane(config)


class TestIntegerLift:
    def test_vectors_over_weights_are_the_rational_lift(self):
        lifts = 0
        for config in configurations():
            try:
                hyperplane = hyperplane_of(config)
            except SeparationInfeasible:
                continue
            lifted = lift_configuration(config, hyperplane)
            points, factors = fraction_lift.lift(config, hyperplane)
            for vector, weight, point, factor in zip(
                lifted.vectors, lifted.weights, points, factors
            ):
                assert all(type(h) is int for h in vector) and type(weight) is int
                assert weight > 0
                assert tuple(F(h, weight) for h in vector) == point
                # sign(S_i) is the sign of H_i's last entry, K * q * sign(S_i).
                assert (vector[-1] > 0) == (factor > 0)
            assert lifted.points == points
            assert lifted.sign_factors == factors
            lifts += 1
        assert lifts >= 50, lifts

    def test_pull_back_matches_the_rational_pull_back(self, monkeypatch):
        """Every solve's (beta, c, b) from the LP's point on the integer lift
        equals the rational pull-back of the classical search on the
        rational lift."""
        seen = []
        original = pipeline.pull_back_coefficients

        def recording(hit, lifted):
            result = original(hit, lifted)
            seen.append((hit, result))
            return result

        monkeypatch.setattr(pipeline, "pull_back_coefficients", recording)
        solves = 0
        for config in configurations():
            try:
                cert = plus_minus_partition(config)
            except (SeparationInfeasible, DegenerateLift):
                continue
            (blocks, _), result = seen[-1]
            _, factors = fraction_lift.lift(config, cert.hyperplane)
            lifted = lift_configuration(config, cert.hyperplane)
            partition = search_lift(lifted, config.r, config.coloring)
            assert partition.blocks == blocks == cert.blocks
            assert fraction_lift.pull_back(partition, factors) == result
            assert result == (cert.beta, cert.coefficients, cert.point_b)
            solves += 1
        assert solves >= 50, solves


def _admits(signs, blocks) -> bool:
    """The reference decision of the two-block program on ``blocks`` from
    the signs of the one linear dependence ``lambda`` of the columns ``(H_t,
    N_t)``: ``lambda`` is nonzero on block 0 and ``eps_t * lambda_t`` has
    one sign, ``eps`` being +1 on block 0 and -1 on block 1 (see the solver
    module's docstring)."""
    first, second = blocks
    on_first = {signs[i] for i in first}
    on_both = on_first | {-signs[i] for i in second}
    on_both.discard(0)
    return len(on_both) == 1 and on_first != {0}


def signs_of(vectors) -> list:
    dependence = solver._dependence(vectors)
    assert dependence is not None
    return [(v > 0) - (v < 0) for v in dependence]


def check_the_hit(lift, points) -> tuple:
    """Assert the search's hit on the lift's columns is the first partition, in
    canonical order, that both the reference decision and
    ``hulls_intersect`` on ``points`` accept, and that its point is the
    LP's on that partition; return the hit."""
    signs = signs_of(lift.vectors)
    expected = next(
        blocks
        for blocks in enumerate_partitions(len(points), 2)
        if _admits(signs, blocks)
        and hulls_intersect([[points[i] for i in b] for b in blocks]) is not None
    )
    blocks, point = solver._first_hit(lift, 2)
    assert blocks == expected
    program = solver._hulls_program(lift, blocks)
    assert lp_solve(program).point == point
    return blocks, point


def agree_on_every_partition(config) -> set:
    """Assert the reference decision agrees with the LP on every partition
    of ``config``'s lift, on the lift's own columns and on the rational
    lift's integer points, and that the search's hit is the first partition
    both accept; return the verdicts seen."""
    hyperplane = hyperplane_of(config)
    lifted = lift_configuration(config, hyperplane)
    # The columns are homogeneous: N_t = <H_t, (w, -alpha)>.
    normal = (*hyperplane.w, -hyperplane.alpha)
    for vector, weight in zip(lifted.vectors, lifted.weights):
        assert sum(h * c for h, c in zip(vector, normal)) == weight
    signs = signs_of(lifted.vectors)
    points = lifted.points
    q, ints = integer_points(points)
    rational_signs = signs_of(ints)
    verdicts = set()
    for blocks in enumerate_partitions(len(points), 2):
        meets = hulls_intersect([[points[i] for i in b] for b in blocks]) is not None
        assert _admits(signs, blocks) == meets, blocks
        assert _admits(rational_signs, blocks) == meets, blocks
        verdicts.add(meets)
    check_the_hit(lifted, points)
    check_the_hit(LiftedConfiguration(tuple(ints), (q,) * len(ints), q), points)
    return verdicts


class TestTwoBlockDependence:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_signs_agree_with_the_lp_on_every_partition(self, d):
        verdicts = set()
        for seed in range(5):
            config = gen.separable_configuration(seed, d, 2, 1)
            verdicts |= agree_on_every_partition(config)
        assert verdicts == {False, True}

    def test_a_dependence_with_zeros(self):
        # Three collinear points and one off their line: the dependence is
        # one-dimensional and 0 at the point off the line.
        points = ((F(0), F(1)), (F(0), F(0)), (F(1), F(0)), (F(2), F(0)))
        config = Configuration(2, 2, points, CLASSICAL, mu=(0,))
        lifted = lift_configuration(config, hyperplane_of(config))
        signs = signs_of(lifted.vectors)
        assert signs[0] == 0 and all(signs[1:])
        assert agree_on_every_partition(config) == {False, True}

    def test_raw_points_with_small_coordinates(self):
        """Full-count points with coordinates in -2..2: where the dependence
        is one-dimensional the hit is the reference's first, and the
        public search returns it."""
        rng = random.Random("radon-hit")
        hits = leading_zeros = trailing_zeros = 0
        for _ in range(400):
            d = rng.randint(1, 4)
            points = [
                tuple(F(rng.randint(-2, 2)) for _ in range(d))
                for _ in range(tverberg_point_count(d, 2))
            ]
            q, ints = integer_points(points)
            columns = [(*p, q) for p in ints]
            dependence = solver._dependence(columns)
            if dependence is None:
                continue
            lift = LiftedConfiguration(tuple(columns), (q,) * len(ints), q)
            blocks, _ = check_the_hit(lift, points)
            assert tverberg_partition(points, 2).blocks == blocks
            hits += 1
            leading_zeros += dependence[0] == 0
            trailing_zeros += any(not dependence[t] for t in blocks[1])
        assert hits >= 300 and leading_zeros >= 30 and trailing_zeros >= 50, (
            hits,
            leading_zeros,
            trailing_zeros,
        )

    def test_the_dependence_must_be_nonzero_on_block_0(self):
        # eps * lambda has one sign, yet block 0 takes none of lambda: its
        # weighted sum cannot be positive.
        assert not _admits([0, 1, 1], ((0,), (1, 2)))
        assert not _admits([0, 0, 1, 1], ((0, 1), (2, 3)))
        assert _admits([1, -1, 0], ((0, 2), (1,)))
        assert _admits([-1, 1, 0], ((0,), (1, 2)))
        assert not _admits([1, 1, -1], ((0,), (1, 2)))

    @pytest.mark.parametrize(
        "points, mu",
        [
            # Repeated points: two pairs and a fifth point, coplanar in d = 3.
            (((0, 0, 0), (0, 0, 0), (1, 0, 0), (1, 0, 0), (0, 1, 0)), (4,)),
            # Four coincident points in d = 2.
            (((1, 1), (1, 1), (1, 1), (1, 1)), ()),
            # Collinear points in d = 2.
            (((0, 0), (1, 1), (2, 2), (3, 3)), (0,)),
        ],
        ids=["repeated", "coincident", "collinear"],
    )
    def test_rank_deficient_inputs_keep_one_lp_per_partition(
        self, points, mu
    ):
        points = tuple(tuple(map(F, p)) for p in points)
        config = Configuration(len(points[0]), 2, points, CLASSICAL, mu=mu)
        lifted = lift_configuration(config, hyperplane_of(config))
        assert solver._dependence(lifted.vectors) is None
        with counting(solver, lp) as counts:
            cert = plus_minus_partition(config)
        assert verify_certificate(config, cert).accepted
        assert counts["searches"] == 1
        # Each program is singular, so the simplex decides it.
        assert counts["lps"] == counts["programs"] == counts["partitions"] >= 1

    def test_no_walk_and_no_search_lp_per_solve(self):
        with counting(solver, lp) as counts:
            for seed in range(5):
                plus_minus_partition(gen.separable_configuration(seed, 4, 2, 1))
        assert (
            counts["searches"],
            counts["partitions"],
            counts["programs"],
            counts["lps"],
        ) == (0, 0, 0, 0)

    def test_a_corrupted_dependence_is_an_internal_error(self, monkeypatch):
        original = solver._dependence

        def corrupted(vectors):
            dependence = original(vectors)
            return [2 * dependence[0], *dependence[1:]]

        monkeypatch.setattr(solver, "_dependence", corrupted)
        with pytest.raises(InternalError, match="Radon"):
            plus_minus_partition(gen.separable_configuration(0, 4, 2, 1))

    @pytest.mark.parametrize(
        "coloring",
        [((0,), (1,)), ((0,), (1,), (1,)), ((0,), (1,), (3,))],
        ids=["missing", "repeated", "out-of-range"],
    )
    def test_a_malformed_coloring_is_a_value_error(self, coloring):
        points = ((F(0),), (F(1),), (F(2),))
        with pytest.raises(ValueError, match="color"):
            tverberg_partition(points, 2, coloring)

    def test_points_of_unequal_lengths_are_a_value_error(self):
        points = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1),))
        with pytest.raises(ValueError, match="unequal lengths"):
            tverberg_partition(points, 2)
