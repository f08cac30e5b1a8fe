"""Exact rational parsing, linear solving, and affine dependencies."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bareiss import affine_dependence, solve_linear_system
from tvpm.linalg import dot, format_scalar, parse_scalar

F = Fraction


class TestParseScalar:
    def test_integer(self):
        assert parse_scalar("3") == F(3)
        assert parse_scalar("-12") == F(-12)
        assert parse_scalar("+7") == F(7)
        assert parse_scalar("0") == F(0)

    def test_fraction(self):
        assert parse_scalar("-7/2") == F(-7, 2)
        assert parse_scalar("4/6") == F(2, 3)

    @pytest.mark.parametrize(
        "token",
        ["1.5", "2.0", "3 / 4", " 3", "3 ", "", "abc", "0x2", "--3",
         "1/-2", "1/", "/2", "1e3", "½", "1_000",
         "\u0661", "\u0663/\u0664", "\uff13", "1/\u0662"],
    )
    def test_rejects_non_rational_literals(self, token):
        with pytest.raises(ValueError):
            parse_scalar(token)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            parse_scalar("1/0")

    @pytest.mark.parametrize("token", ["1" * 5000, "-1/" + "3" * 5000])
    def test_over_long_literal_names_the_limit(self, token):
        with pytest.raises(ValueError, match="digit limit") as info:
            parse_scalar(token)
        assert len(str(info.value)) < 100

    def test_round_trip_is_canonical(self):
        for text in ["0", "5", "-5", "3/7", "-3/7"]:
            assert format_scalar(parse_scalar(text)) == text
        # Non-canonical input normalizes on the way out.
        assert format_scalar(parse_scalar("4/6")) == "2/3"
        assert format_scalar(parse_scalar("+3")) == "3"

    @given(st.fractions())
    def test_format_parse_identity(self, value):
        assert parse_scalar(format_scalar(value)) == value


class TestDot:
    def test_dot(self):
        assert dot((F(1), F(2)), (F(3), F(4))) == F(11)
        assert dot((), ()) == F(0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dot((F(1),), (F(1), F(2)))


class TestSolveLinearSystem:
    def test_single_equation(self):
        result = solve_linear_system([[F(1)]], [F(3)])
        assert result.status == "unique"
        assert result.solution == (F(3),)

    def test_two_by_two(self):
        result = solve_linear_system(
            [[F(1), F(1)], [F(1), F(-1)]], [F(2), F(0)]
        )
        assert result.status == "unique"
        assert result.solution == (F(1), F(1))

    def test_fractional_entries(self):
        result = solve_linear_system(
            [[F(1, 2), F(1, 3)], [F(1, 5), F(1)]], [F(1), F(2)]
        )
        assert result.status == "unique"
        x = result.solution
        assert x[0] / 2 + x[1] / 3 == F(1)
        assert x[0] / 5 + x[1] == F(2)

    def test_underdetermined(self):
        result = solve_linear_system([[F(1), F(1), F(1)]], [F(6)])
        assert result.status == "underdetermined"
        assert sum(result.solution) == F(6)
        assert len(result.nullspace) == 2
        for vec in result.nullspace:
            assert sum(vec) == F(0)
            assert any(c != 0 for c in vec)

    def test_inconsistent(self):
        result = solve_linear_system([[F(1)], [F(1)]], [F(0), F(1)])
        assert result.status == "inconsistent"
        assert result.solution is None

    def test_zero_matrix_zero_rhs(self):
        result = solve_linear_system([[F(0), F(0)]], [F(0)])
        assert result.status == "underdetermined"
        assert len(result.nullspace) == 2

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError):
            solve_linear_system([[F(1), F(2)], [F(1)]], [F(0), F(0)])

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_linear_system([[F(1)]], [F(0), F(1)])

    def test_random_square_systems_solve_exactly(self):
        rng = random.Random("square-systems")
        solved = 0
        while solved < 10:
            n = rng.randint(2, 5)
            matrix = [
                [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)
            ]
            rhs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            result = solve_linear_system(matrix, rhs)
            if result.status != "unique":
                continue
            for row, b in zip(matrix, rhs):
                assert dot(row, result.solution) == b
            solved += 1

    def test_nullspace_vectors_are_actual_solutions(self):
        rng = random.Random("nullspace")
        for _ in range(10):
            rows = rng.randint(1, 3)
            cols = rows + rng.randint(1, 3)
            matrix = [
                [F(rng.randint(-5, 5)) for _ in range(cols)]
                for _ in range(rows)
            ]
            rhs = [F(rng.randint(-5, 5)) for _ in range(rows)]
            result = solve_linear_system(matrix, rhs)
            if result.status == "inconsistent":
                continue
            for row, b in zip(matrix, rhs):
                assert dot(row, result.solution) == b
            for vec in result.nullspace:
                for row in matrix:
                    assert dot(row, vec) == F(0)


SMALL = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)


class TestSolveProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_any_outcome_is_justified(self, n, data):
        matrix = data.draw(
            st.lists(
                st.lists(SMALL, min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
        rhs = data.draw(st.lists(SMALL, min_size=n, max_size=n))
        result = solve_linear_system(matrix, rhs)
        if result.status == "inconsistent":
            assert result.solution is None
            return
        for row, b in zip(matrix, rhs):
            assert dot(row, result.solution) == b
        if result.status == "unique":
            assert result.nullspace == ()
        else:
            assert result.nullspace


class TestAffineDependence:
    def test_three_collinear_points(self):
        points = ((F(0),), (F(1),), (F(2),))
        assert affine_dependence(points) == (F(1), F(-2), F(1))

    def test_duplicate_point(self):
        p = (F(2), F(5))
        assert affine_dependence((p, p)) == (F(1), F(-1))

    def test_independent_points_have_none(self):
        triangle = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))
        assert affine_dependence(triangle) is None
        assert affine_dependence(((F(3),),)) is None

    def test_dependence_identities(self):
        rng = random.Random("dependence")
        for _ in range(15):
            d = rng.randint(1, 3)
            n = d + 2 + rng.randint(0, 1)
            points = tuple(
                tuple(F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(d))
                for _ in range(n)
            )
            dep = affine_dependence(points)
            assert dep is not None
            assert sum(dep) == F(0)
            for k in range(d):
                assert sum(c * p[k] for c, p in zip(dep, points)) == F(0)
            nonzero = [c for c in dep if c != 0]
            assert nonzero and nonzero[0] == F(1)
