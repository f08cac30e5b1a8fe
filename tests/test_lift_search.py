"""The plus-minus search on the lift's integer vectors, and the two-block
Radon dependence that settles its partitions without LPs.

The lift is kept as vectors ``H_i`` and weights ``N_i`` with ``H_i / N_i``
the lifted point; ``tests/fraction_lift.py`` keeps the rational lift and
pull-back it replaced, as the reference.  With two blocks the columns
``(H_t, N_t)`` of points that affinely span their space have one linear
dependence, whose signs must decide every partition exactly as the LP
does.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import fraction_lift
import gen
from test_certificate_digests import DIGESTS
from tvpm import pipeline, plus_minus_partition, solver
from tvpm.errors import DegenerateLift, InternalError, SeparationInfeasible
from tvpm.lp import INFEASIBLE, LpResult, integer_points
from tvpm.model import CLASSICAL, COLORED, Configuration, tverberg_point_count
from tvpm.separation import (
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
            points, factors = fraction_lift.lift(config, cert.hyperplane)
            partition = tverberg_partition(points, config.r, config.coloring)
            assert partition.blocks == blocks == cert.blocks
            assert fraction_lift.pull_back(partition, factors) == result
            assert result == (cert.beta, cert.coefficients, cert.point_b)
            solves += 1
        assert solves >= 50, solves


def counted(monkeypatch) -> dict:
    """Searches, listed partitions and LPs made through ``tvpm.solver``'s
    globals from this call on."""
    counts = {"searches": 0, "partitions": 0, "lps": 0}
    enumerate_original = solver.enumerate_partitions
    lp_original = solver.lp_solve

    def counting_enumerate(*args, **kwargs):
        counts["searches"] += 1
        for blocks in enumerate_original(*args, **kwargs):
            counts["partitions"] += 1
            yield blocks

    def counting_lp(lp):
        counts["lps"] += 1
        return lp_original(lp)

    monkeypatch.setattr(solver, "enumerate_partitions", counting_enumerate)
    monkeypatch.setattr(solver, "lp_solve", counting_lp)
    return counts


def agree_on_every_partition(config) -> set:
    """Assert the dependence test agrees with the LP on every partition of
    ``config``'s lift, on the lift's own columns and on the rational lift's
    integer points; return the verdicts seen."""
    lifted = lift_configuration(config, hyperplane_of(config))
    homogeneous, signs = solver._dependences(lifted.vectors, lifted.weights, 2)
    assert homogeneous and signs is not None
    points = lifted.points
    q, ints = integer_points(points)
    _, rational_signs = solver._dependences(ints, [q] * len(ints), 2)
    verdicts = set()
    for blocks in enumerate_partitions(len(points), 2):
        meets = hulls_intersect([[points[i] for i in b] for b in blocks]) is not None
        assert solver._admits(signs, blocks) == meets, blocks
        assert solver._admits(rational_signs, blocks) == meets, blocks
        verdicts.add(meets)
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
        _, signs = solver._dependences(lifted.vectors, lifted.weights, 2)
        assert signs[0] == 0 and all(signs[1:])
        assert agree_on_every_partition(config) == {False, True}

    def test_the_dependence_must_be_nonzero_on_block_0(self):
        # eps * lambda has one sign, yet block 0 takes none of lambda: its
        # weighted sum cannot be positive.
        assert not solver._admits([0, 1, 1], ((0,), (1, 2)))
        assert not solver._admits([0, 0, 1, 1], ((0, 1), (2, 3)))
        assert solver._admits([1, -1, 0], ((0, 2), (1,)))
        assert solver._admits([-1, 1, 0], ((0,), (1, 2)))
        assert not solver._admits([1, 1, -1], ((0,), (1, 2)))

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
        self, monkeypatch, points, mu
    ):
        points = tuple(tuple(map(F, p)) for p in points)
        config = Configuration(len(points[0]), 2, points, CLASSICAL, mu=mu)
        lifted = lift_configuration(config, hyperplane_of(config))
        _, signs = solver._dependences(lifted.vectors, lifted.weights, 2)
        assert signs is None
        counts = counted(monkeypatch)
        cert = plus_minus_partition(config)
        assert verify_certificate(config, cert).accepted
        assert counts["searches"] == 1
        assert counts["lps"] == counts["partitions"] >= 1

    def test_one_search_lp_per_solve(self, monkeypatch):
        counts = counted(monkeypatch)
        for seed in range(5):
            plus_minus_partition(gen.separable_configuration(seed, 4, 2, 1))
        assert counts["searches"] == counts["lps"] == 5
        assert counts["partitions"] > 5

    def test_an_admitted_partition_without_a_point_is_an_internal_error(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            solver, "lp_solve", lambda lp: LpResult(INFEASIBLE, multipliers=())
        )
        with pytest.raises(InternalError, match="dependence"):
            plus_minus_partition(gen.separable_configuration(0, 4, 2, 1))
