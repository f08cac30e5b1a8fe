"""Exact simplex: solved examples, planted instances, and an independent
Fourier-Motzkin feasibility oracle for cross-checking."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tvpm.lp import (
    FEASIBLE,
    INFEASIBLE,
    Constraint,
    LinearProgram,
    lp_solve,
    satisfies,
)

F = Fraction


def fme_feasible(rows: list[tuple[list[Fraction], Fraction]]) -> bool:
    """Decide feasibility of {x : coeffs . x <= rhs for every row} by
    Fourier-Motzkin elimination.  Exponential, fine for tiny systems."""
    if not rows:
        return True
    width = len(rows[0][0])
    for var in range(width):
        lower, upper, rest = [], [], []
        for coeffs, rhs in rows:
            c = coeffs[var]
            if c > 0:
                upper.append((coeffs, rhs))
            elif c < 0:
                lower.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        for lc, lb in lower:
            for uc, ub in upper:
                scale_l, scale_u = uc[var], -lc[var]
                combined = [
                    scale_l * lc[k] + scale_u * uc[k] for k in range(width)
                ]
                rest.append((combined, scale_l * lb + scale_u * ub))
        rows = rest
    return all(rhs >= 0 for _, rhs in rows)


def lp_as_fme_rows(lp: LinearProgram) -> list[tuple[list[Fraction], Fraction]]:
    """The rows ``a . x <= b`` and ``-a . x <= -b`` of every constraint,
    and ``-x_j <= 0`` for every variable."""
    rows = []
    for con in lp.constraints:
        coeffs = list(con.coeffs)
        rows.append((coeffs, con.rhs))
        rows.append(([-c for c in coeffs], -con.rhs))
    for j in range(lp.num_vars):
        rows.append(([-F(int(k == j)) for k in range(lp.num_vars)], F(0)))
    return rows


def number(rng: random.Random):
    """A small ``int`` or ``Fraction``, negative as often as positive."""
    if rng.random() < 0.5:
        return rng.randint(-4, 4)
    return F(rng.randint(-4, 4), rng.choice((1, 2, 3)))


class TestBasicSolves:
    def test_equality_constraint(self):
        lp = LinearProgram(num_vars=2, constraints=(Constraint((1, 1), 1),))
        result = lp_solve(lp)
        assert result.status == FEASIBLE
        assert result.point == (F(1), F(0))

    def test_fractional_optimum(self):
        # The optimum (1/5, 3/5) of max x + y subject to 2x + y <= 1,
        # x + 3y <= 2, x, y >= 0 is the only point with x + y >= 4/5; the
        # last three variables are the rows' slacks.
        lp = LinearProgram(
            num_vars=5,
            constraints=(
                Constraint((2, 1, 1, 0, 0), 1),
                Constraint((1, 3, 0, 1, 0), 2),
                Constraint((1, 1, 0, 0, -1), F(4, 5)),
            ),
        )
        result = lp_solve(lp)
        assert result.status == FEASIBLE
        assert result.point == (F(1, 5), F(3, 5), F(0), F(0), F(0))

    def test_free_variables_negative_solution(self):
        # A free x is the difference x+ - x- of two nonnegative variables.
        lp = LinearProgram(num_vars=2, constraints=(Constraint((1, -1), -7),))
        result = lp_solve(lp)
        assert result.status == FEASIBLE
        assert result.point == (F(0), F(7))

    def test_infeasible_constraints(self):
        # x + s = -1 has no nonnegative solution.
        lp = LinearProgram(num_vars=2, constraints=(Constraint((1, 1), -1),))
        assert lp_solve(lp).status == INFEASIBLE

    def test_feasibility_only_no_objective(self):
        lp = LinearProgram(
            num_vars=3,
            constraints=(
                Constraint((1, 1, 0), 1),
                Constraint((1, -1, -1), 0),
            ),
        )
        result = lp_solve(lp)
        assert result.status == FEASIBLE
        assert satisfies(lp, result.point)


class TestValidate:
    # Under the one form an old program cannot be silently re-read: its
    # relation and its bounds have no field to go to.
    def test_unknown_relation_is_refused(self):
        with pytest.raises(TypeError):
            Constraint((1,), "<", 5)
        with pytest.raises(TypeError):
            Constraint((1,), "=", 5)

    @pytest.mark.parametrize(
        "bound", [(1, None), (None, F(-1, 2)), (0, 3), (F(2), F(1))], ids=str
    )
    def test_unsupported_bound_is_refused(self, bound):
        with pytest.raises(TypeError, match="bounds"):
            LinearProgram(1, (Constraint((1,), 5),), bounds=(bound,))
        with pytest.raises(TypeError):
            LinearProgram(1, (Constraint((1,), 5),), (bound,))

    def test_arity_is_checked(self):
        with pytest.raises(ValueError, match="arity"):
            lp_solve(LinearProgram(2, (Constraint((1,), 5),)))
        with pytest.raises(ValueError, match="negative"):
            lp_solve(LinearProgram(-1, ()))


class TestSatisfies:
    def test_accepts_and_rejects_exactly(self):
        lp = LinearProgram(num_vars=2, constraints=(Constraint((1, 1), F(1, 3)),))
        assert satisfies(lp, (F(1, 3), F(0)))
        assert not satisfies(lp, (F(1, 3) + F(1, 10**12), F(0)))
        assert not satisfies(lp, (F(-1, 10**12), F(1, 3) + F(1, 10**12)))


class TestPlantedAndCrossChecked:
    def test_planted_feasible_points_are_found(self):
        rng = random.Random("planted")
        for _ in range(20):
            n = rng.randint(1, 5)
            target = tuple(F(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(n))
            cons = []
            for _ in range(rng.randint(1, 4)):
                coeffs = tuple(number(rng) for _ in range(n))
                value = sum(c * t for c, t in zip(coeffs, target))
                cons.append(Constraint(coeffs, value))
            lp = LinearProgram(num_vars=n, constraints=tuple(cons))
            result = lp_solve(lp)
            assert result.status == FEASIBLE
            assert satisfies(lp, result.point)

    def test_agreement_with_fourier_motzkin(self):
        rng = random.Random("fme-cross")
        feasible_seen = infeasible_seen = negative_rhs = 0
        for _ in range(60):
            n = rng.randint(1, 4)
            cons = tuple(
                Constraint(tuple(number(rng) for _ in range(n)), number(rng))
                for _ in range(rng.randint(1, 3))
            )
            negative_rhs += any(con.rhs < 0 for con in cons)
            lp = LinearProgram(num_vars=n, constraints=cons)
            result = lp_solve(lp)
            expected = fme_feasible(lp_as_fme_rows(lp))
            assert (result.status == FEASIBLE) == expected
            if result.status == FEASIBLE:
                assert satisfies(lp, result.point)
                feasible_seen += 1
            else:
                assert result.status == INFEASIBLE
                infeasible_seen += 1
        # The seed must exercise both outcomes, and rows the kernel negates,
        # for the cross-check to mean anything.
        assert feasible_seen >= 10 and infeasible_seen >= 10
        assert negative_rhs >= 10

    def test_deterministic_resolution(self):
        lp = LinearProgram(num_vars=3, constraints=(Constraint((1, 1, 1), 1),))
        first = lp_solve(lp)
        second = lp_solve(lp)
        assert first == second
        # Lowest-index tie-breaking puts all weight on the first variable.
        assert first.point == (F(1), F(0), F(0))
