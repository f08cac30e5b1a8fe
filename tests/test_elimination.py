"""The search's square programs decided by fraction-free elimination.

``solver._decide`` must give ``lp_solve``'s verdict and point on every
program, and an exact Farkas certificate on every infeasible one.  Every
search program is square; a nonsingular one has one solution, found
without a pivot, and a singular one goes to the simplex.  The separation
step and the oracle keep the simplex whatever the search does.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest

import gen
from bareiss import solve_linear_system
from fraction_simplex import reference_lp_solve
from tvpm import separation, solver, verifier
from tvpm.lp import FEASIBLE, INFEASIBLE, Constraint, LinearProgram
from tvpm.pipeline import plus_minus_partition
from tvpm.verifier import oracle_enumerate

F = Fraction


def determinant(matrix) -> Fraction:
    """``det`` by Gaussian elimination over ``Fraction``, sharing no code
    with the package."""
    rows = [[F(v) for v in row] for row in matrix]
    n = len(rows)
    det = F(1)
    for c in range(n):
        k = next((i for i in range(c, n) if rows[i][c]), None)
        if k is None:
            return F(0)
        if k != c:
            rows[c], rows[k] = rows[k], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def square_program(rng: random.Random) -> tuple[LinearProgram, str]:
    """A random square ``int`` program with ``n`` from 1 to 8, and its kind:
    ``generic``, ``deficient`` (one row a combination of two others, or a
    zero column), ``zero-lead`` (``A[0][0] = 0``) or ``flipped`` (two rows
    swapped, which negates the determinant of the matrix drawn).

    The right-hand side is ``A x`` for a planted ``x``, nonnegative half
    the time, times the common denominator of ``x``; a deficient program
    gets a random right-hand side half the time instead."""
    n = rng.randint(1, 8)
    kind = rng.choice(("generic", "deficient", "zero-lead", "flipped"))
    matrix = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    if kind == "deficient":
        if n >= 3 and rng.random() < 0.5:
            i, j, k = rng.sample(range(n), 3)
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            matrix[k] = [a * x + b * y for x, y in zip(matrix[i], matrix[j])]
        else:
            column = rng.randrange(n)
            for row in matrix:
                row[column] = 0
    elif kind == "zero-lead":
        matrix[0][0] = 0
    elif kind == "flipped" and n >= 2:
        i, k = rng.sample(range(n), 2)
        matrix[i], matrix[k] = matrix[k], matrix[i]
    low = 0 if rng.random() < 0.5 else -3
    x = [F(rng.randint(low, 5), rng.randint(1, 4)) for _ in range(n)]
    q = lcm(*(v.denominator for v in x))
    rhs = [int(sum(a * v for a, v in zip(row, x)) * q) for row in matrix]
    if kind == "deficient" and rng.random() < 0.5:
        rhs = [rng.randint(-6, 6) for _ in range(n)]
    cons = tuple(Constraint(tuple(row), b) for row, b in zip(matrix, rhs))
    return LinearProgram(n, cons), kind


def test_square_programs_match_the_simplex_and_the_linear_solve(monkeypatch):
    rng = random.Random("square-elimination")
    fallbacks = []
    original = solver.lp_solve

    def counting(lp):
        fallbacks.append(lp)
        return original(lp)

    monkeypatch.setattr(solver, "lp_solve", counting)
    seen = {key: 0 for key in (
        "singular", "zero-lead", "negative-det", FEASIBLE, INFEASIBLE,
        "several-negative",
    )}
    for _ in range(1500):
        lp, kind = square_program(rng)
        matrix = [list(c.coeffs) for c in lp.constraints]
        rhs = [c.rhs for c in lp.constraints]
        det = determinant(matrix)
        fallbacks.clear()
        result = solver._decide(lp)
        assert result == reference_lp_solve(lp), (lp, kind)
        if not det:
            # Singular: the simplex decides.
            assert fallbacks == [lp]
            seen["singular"] += 1
            continue
        assert fallbacks == []
        seen["zero-lead"] += matrix[0][0] == 0
        seen["negative-det"] += det < 0
        seen[result.status] += 1
        linear = solve_linear_system(matrix, rhs)
        assert linear.status == "unique"
        x = linear.solution
        if result.status == FEASIBLE:
            assert result.point == x
            continue
        # The certificate: tight at the first negative entry of the one
        # solution, zero on every other column, positive against b.
        negative = [t for t, v in enumerate(x) if v < 0]
        seen["several-negative"] += len(negative) > 1
        y = result.multipliers
        assert all(type(v) is int for v in y)
        products = [sum(a * c for a, c in zip(y, col)) for col in zip(*matrix)]
        assert all(p <= 0 for p in products)
        assert sum(a * b for a, b in zip(y, rhs)) > 0
        assert [t for t, p in enumerate(products) if p] == negative[:1]
    # Each case the elimination must get right occurs often enough to count.
    assert min(seen.values()) >= 40, seen


def test_a_point_that_fails_its_program_is_an_internal_error(monkeypatch):
    lp = LinearProgram(2, (Constraint((1, 0), 1), Constraint((0, 1), 2)))
    assert solver._decide(lp).point == (1, 2)
    monkeypatch.setattr(solver, "satisfies", lambda lp, point: False)
    with pytest.raises(solver.InternalError, match="elimination"):
        solver._decide(lp)


def test_the_separation_and_the_oracle_keep_the_simplex(monkeypatch):
    calls = {separation: 0, verifier: 0}

    def recording(module):
        original = module.lp_solve

        def record(lp):
            calls[module] += 1
            return original(lp)

        return record

    for module in calls:
        monkeypatch.setattr(module, "lp_solve", recording(module))
    config = gen.separable_configuration(0, 2, 3, 2)
    plus_minus_partition(config)
    assert calls[separation] and not calls[verifier]
    oracle_enumerate(config)
    assert calls[verifier]
