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
    rows = []
    for con in lp.constraints:
        coeffs = list(con.coeffs)
        if con.relation in ("<=", "="):
            rows.append((coeffs, con.rhs))
        if con.relation in (">=", "="):
            rows.append(([-c for c in coeffs], -con.rhs))
    return rows


class TestBasicSolves:
    def test_equality_constraint(self):
        lp = LinearProgram(
            num_vars=2,
            constraints=(Constraint((1, 1), "=", 1),),
            bounds=((F(0), None), (F(0), None)),
        )
        result = lp_solve(lp)
        assert result.status == FEASIBLE
        assert result.point == (F(1), F(0))

    def test_fractional_optimum(self):
        # The optimum (1/5, 3/5) of max x + y subject to 2x + y <= 1,
        # x + 3y <= 2, x, y >= 0 is the only point with x + y >= 4/5.
        lp = LinearProgram(
            num_vars=2,
            constraints=(
                Constraint((2, 1), "<=", 1),
                Constraint((1, 3), "<=", 2),
                Constraint((1, 1), ">=", F(4, 5)),
            ),
            bounds=((F(0), None), (F(0), None)),
        )
        result = lp_solve(lp)
        assert result.status == FEASIBLE
        assert result.point == (F(1, 5), F(3, 5))

    def test_free_variables_negative_solution(self):
        lp = LinearProgram(
            num_vars=1,
            constraints=(Constraint((1,), "=", -7),),
        )
        result = lp_solve(lp)
        assert result.status == FEASIBLE
        assert result.point == (F(-7),)

    def test_infeasible_constraints(self):
        lp = LinearProgram(
            num_vars=1,
            constraints=(Constraint((1,), "<=", -1),),
            bounds=((F(0), None),),
        )
        assert lp_solve(lp).status == INFEASIBLE

    def test_feasibility_only_no_objective(self):
        lp = LinearProgram(
            num_vars=2,
            constraints=(
                Constraint((1, 1), "=", 1),
                Constraint((1, -1), ">=", 0),
            ),
            bounds=((F(0), None), (F(0), None)),
        )
        result = lp_solve(lp)
        assert result.status == FEASIBLE
        assert satisfies(lp, result.point)


class TestValidate:
    def test_unknown_relation_is_refused(self):
        # Read as "=" until the relation was validated: the point (5,).
        lp = LinearProgram(1, (Constraint((1,), "<", 5),), bounds=((0, None),))
        with pytest.raises(ValueError, match="unknown relation"):
            lp_solve(lp)

    @pytest.mark.parametrize(
        "bound", [(1, None), (None, F(-1, 2)), (0, 3), (F(2), F(1))], ids=str
    )
    def test_unsupported_bound_is_refused(self, bound):
        lp = LinearProgram(1, (Constraint((1,), ">=", -5),), bounds=(bound,))
        with pytest.raises(ValueError, match="unsupported bound"):
            lp_solve(lp)


class TestSatisfies:
    def test_accepts_and_rejects_exactly(self):
        lp = LinearProgram(
            num_vars=1,
            constraints=(Constraint((1,), "<=", F(1, 3)),),
            bounds=((F(0), None),),
        )
        assert satisfies(lp, (F(1, 3),))
        assert not satisfies(lp, (F(1, 3) + F(1, 10**12),))
        assert not satisfies(lp, (F(-1, 10**12),))


class TestPlantedAndCrossChecked:
    def test_planted_feasible_points_are_found(self):
        rng = random.Random("planted")
        for _ in range(20):
            n = rng.randint(1, 4)
            target = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
            cons = []
            for _ in range(rng.randint(1, 5)):
                coeffs = [F(rng.randint(-4, 4)) for _ in range(n)]
                value = sum(c * t for c, t in zip(coeffs, target))
                slack = F(rng.randint(0, 3))
                cons.append(Constraint(tuple(coeffs), "<=", value + slack))
            lp = LinearProgram(num_vars=n, constraints=tuple(cons))
            result = lp_solve(lp)
            assert result.status == FEASIBLE
            assert satisfies(lp, result.point)

    def test_agreement_with_fourier_motzkin(self):
        rng = random.Random("fme-cross")
        feasible_seen = infeasible_seen = 0
        for _ in range(60):
            n = rng.randint(1, 3)
            cons = []
            for _ in range(rng.randint(1, 4)):
                coeffs = tuple(F(rng.randint(-3, 3)) for _ in range(n))
                relation = rng.choice(["<=", ">=", "="])
                cons.append(Constraint(coeffs, relation, F(rng.randint(-4, 4))))
            # Bounds on a free variable, as rows: lp_solve takes no others.
            for j in range(n):
                kind = rng.randrange(4)
                unit = tuple(F(int(k == j)) for k in range(n))
                if kind in (1, 3):
                    cons.append(Constraint(unit, ">=", F(rng.randint(-3, 0))))
                if kind in (2, 3):
                    cons.append(Constraint(unit, "<=", F(rng.randint(0, 3))))
            lp = LinearProgram(num_vars=n, constraints=tuple(cons))
            result = lp_solve(lp)
            expected = fme_feasible(lp_as_fme_rows(lp))
            assert (result.status == FEASIBLE) == expected
            if result.status == FEASIBLE:
                assert satisfies(lp, result.point)
                feasible_seen += 1
            else:
                assert result.status == INFEASIBLE
                infeasible_seen += 1
        # The seed must exercise both outcomes for the cross-check to
        # mean anything.
        assert feasible_seen >= 10 and infeasible_seen >= 10

    def test_deterministic_resolution(self):
        lp = LinearProgram(
            num_vars=2,
            constraints=(Constraint((1, 1), "<=", 1),),
            bounds=((F(0), None), (F(0), None)),
        )
        first = lp_solve(lp)
        second = lp_solve(lp)
        assert first == second
        # Lowest-index tie-breaking puts all weight on the first variable.
        assert first.point == (F(1), F(0))
