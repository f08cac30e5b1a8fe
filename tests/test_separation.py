"""Strict separation and the unit-product lift."""

from __future__ import annotations

from fractions import Fraction

import pytest

import gen
from tvpm import Configuration, Hyperplane
from tvpm.errors import DegenerateLift, SeparationInfeasible
from tvpm.linalg import dot
from tvpm.model import CLASSICAL
from tvpm.separation import (
    lift_configuration,
    separating_hyperplane,
    trivial_hyperplane,
)
from tvpm.solver import hulls_intersect

F = Fraction


def line3(mu=(2,)):
    return Configuration(
        d=1,
        r=2,
        points=((F(0),), (F(1),), (F(3),)),
        mode=CLASSICAL,
        mu=mu,
    )


def margins(config, hyperplane):
    return [dot(p, hyperplane.w) - hyperplane.alpha for p in config.points]


class TestSeparatingHyperplane:
    def test_worked_instance_is_deterministic(self):
        config = line3()
        assert separating_hyperplane(config) == Hyperplane((F(-1),), F(-2))

    def test_margins_have_unit_magnitude_floor(self):
        config = line3()
        h = separating_hyperplane(config)
        for i, m in enumerate(margins(config, h)):
            if i == 2:
                assert m <= -1
            else:
                assert m >= 1

    def test_marked_singleton_below_unmarked_pair(self):
        config = Configuration(
            d=1,
            r=2,
            points=((F(0),), (F(2),), (F(3),)),
            mode=CLASSICAL,
            mu=(0,),
        )
        m = margins(config, separating_hyperplane(config))
        assert m[0] <= -1
        assert m[1] >= 1 and m[2] >= 1

    def test_interior_point_is_not_separable(self):
        with pytest.raises(SeparationInfeasible):
            separating_hyperplane(line3(mu=(1,)))

    def test_empty_face_rejected(self):
        with pytest.raises(ValueError):
            separating_hyperplane(line3(mu=()))

    def test_full_face_rejected(self):
        with pytest.raises(ValueError):
            separating_hyperplane(line3(mu=(0, 1, 2)))

    def test_agrees_with_hull_intersection_oracle(self):
        # Separability of mu from its complement is exactly disjointness
        # of the two convex hulls; hulls_intersect is an independent route.
        # Odd rounds plant the marked point at the centroid of the rest to
        # force an overlap, even rounds keep the generated strict margin.
        for i in range(30):
            config = gen.separable_configuration(f"sep{i}", d=2, r=2, mu_size=1)
            mu = config.mu
            points = list(config.points)
            if i % 2:
                rest = [points[j] for j in range(len(points)) if j not in mu]
                centroid = tuple(sum(c) / len(rest) for c in zip(*rest))
                points[mu[0]] = centroid
                config = Configuration(
                    d=config.d, r=config.r, points=tuple(points),
                    mode=config.mode, mu=mu,
                )
            marked = [points[j] for j in mu]
            rest = [points[j] for j in range(len(points)) if j not in mu]
            overlap = hulls_intersect([marked, rest]) is not None
            assert overlap == bool(i % 2)
            if overlap:
                with pytest.raises(SeparationInfeasible):
                    separating_hyperplane(config)
            else:
                h = separating_hyperplane(config)
                for j, m in enumerate(margins(config, h)):
                    assert (m <= -1) if j in mu else (m >= 1)


class TestTrivialHyperplane:
    def test_lies_strictly_below_all_points(self):
        config = line3(mu=())
        h = trivial_hyperplane(config)
        assert h == Hyperplane((F(1),), F(-1))
        assert all(m >= 1 for m in margins(config, h))

    def test_planar(self):
        config = gen.separable_configuration("trivial", d=2, r=2, mu_size=0)
        h = trivial_hyperplane(config)
        assert h.w == (F(1), F(0))
        assert all(m >= 1 for m in margins(config, h))


class TestLift:
    def test_worked_instance_values(self):
        config = line3()
        lifted = lift_configuration(config, Hyperplane((F(-1),), F(-2)))
        assert lifted.points == (
            (F(0), F(1, 2)),
            (F(1), F(1)),
            (F(-3), F(-1)),
        )
        assert lifted.sign_factors == (F(2), F(1), F(-1))

    def test_single_point_values(self):
        # With w=1, alpha=0: the factor equals the coordinate itself, so 2
        # lifts to (1, 1/2) and -1 lifts to (1, -1).
        config = Configuration(
            d=1,
            r=2,
            points=((F(2),), (F(-1),)),
            mode=CLASSICAL,
        )
        lifted = lift_configuration(config, Hyperplane((F(1),), F(0)))
        assert lifted.points == ((F(1), F(1, 2)), (F(1), F(-1)))
        assert lifted.sign_factors == (F(2), F(-1))

    def test_unit_product_and_sign_pattern(self):
        for i in range(10):
            config = gen.separable_configuration(f"lift{i}", d=2, r=3, mu_size=2)
            h = separating_hyperplane(config)
            lifted = lift_configuration(config, h)
            marked = set(config.mu)
            for j, q in enumerate(lifted.points):
                assert dot(q, h.w + (-h.alpha,)) == 1
                assert (lifted.sign_factors[j] < 0) == (j in marked)

    def test_point_on_hyperplane_degenerates(self):
        with pytest.raises(DegenerateLift):
            lift_configuration(line3(), Hyperplane((F(1),), F(1)))

    def test_degenerate_lift_names_the_point_not_its_coordinates(self):
        # The message must not grow with the point's coordinates.
        big = F(10**3999 + 7, 3)
        config = Configuration(
            d=2, r=2, points=((F(0), F(1)), (big, F(2))), mode=CLASSICAL
        )
        with pytest.raises(DegenerateLift) as info:
            lift_configuration(config, Hyperplane((F(1), F(0)), big))
        message = str(info.value)
        assert message == "point 1 lies on the separating hyperplane"
        assert "\n" not in message and len(message.encode()) < 200

    def test_last_coordinate_is_inverse_factor(self):
        config = line3()
        lifted = lift_configuration(config, Hyperplane((F(-1),), F(-2)))
        for q, s in zip(lifted.points, lifted.sign_factors):
            assert q[-1] == 1 / s
