"""Test-only exact linear algebra: a Bareiss solver and affine dependences.

The solver clears denominators row by row and then runs fraction-free
(Bareiss) elimination on integer rows with a first-nonzero pivot rule, which
makes the returned solution and nullspace basis deterministic functions of
the input.  The generators use it to plant configurations, and the tests use
``affine_dependence`` as a route to Radon partitions that shares no code with
the package's search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from tvpm.linalg import ONE, ZERO, Point


@dataclass(frozen=True)
class LinearSolution:
    """Outcome of an exact linear solve.

    ``status`` is ``"unique"``, ``"underdetermined"`` or ``"inconsistent"``.
    For consistent systems ``solution`` is one exact solution (free variables
    pinned to zero) and ``nullspace`` is a basis of the homogeneous solution
    space, one vector per free column in ascending column order.
    """

    status: str
    solution: Optional[tuple[Fraction, ...]] = None
    nullspace: tuple[tuple[Fraction, ...], ...] = ()


def solve_linear_system(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> LinearSolution:
    """Solve ``matrix @ x = rhs`` exactly over the rationals."""
    m = len(matrix)
    if m != len(rhs):
        raise ValueError("matrix and right-hand side row counts differ")
    n = len(matrix[0]) if m else 0
    rows: list[list[int]] = []
    for row, b in zip(matrix, rhs):
        if len(row) != n:
            raise ValueError("ragged matrix")
        fracs = [Fraction(v) for v in row] + [Fraction(b)]
        mult = lcm(*(f.denominator for f in fracs)) if fracs else 1
        rows.append([int(f * mult) for f in fracs])

    pivots = _bareiss_echelon(rows, n)
    for i in range(len(pivots), m):
        if rows[i][n] != 0:
            return LinearSolution("inconsistent")

    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(n) if c not in pivot_cols]
    solution = tuple(_back_solve(rows, pivots, n, use_rhs=True))
    basis = tuple(
        tuple(_back_solve(rows, pivots, n, use_rhs=False, unit_col=f))
        for f in free_cols
    )
    status = "underdetermined" if free_cols else "unique"
    return LinearSolution(status, solution, basis)


def _bareiss_echelon(rows: list[list[int]], ncols: int) -> list[tuple[int, int]]:
    """In-place fraction-free echelon form; pivot columns are the first
    ``ncols`` columns, pivot rows are chosen by the first nonzero entry."""
    m = len(rows)
    if m == 0:
        return []
    width = len(rows[0])
    pivots: list[tuple[int, int]] = []
    prev = 1
    pr = 0
    for pc in range(ncols):
        sel = next((i for i in range(pr, m) if rows[i][pc] != 0), None)
        if sel is None:
            continue
        if sel != pr:
            rows[pr], rows[sel] = rows[sel], rows[pr]
        piv = rows[pr][pc]
        rp = rows[pr]
        for i in range(pr + 1, m):
            ri = rows[i]
            head = ri[pc]
            for j in range(pc + 1, width):
                q, rem = divmod(piv * ri[j] - head * rp[j], prev)
                if rem:
                    raise ArithmeticError("inexact division in exact elimination")
                ri[j] = q
            ri[pc] = 0
        prev = piv
        pivots.append((pr, pc))
        pr += 1
        if pr == m:
            break
    return pivots


def _back_solve(
    rows: list[list[int]],
    pivots: list[tuple[int, int]],
    ncols: int,
    use_rhs: bool,
    unit_col: Optional[int] = None,
) -> list[Fraction]:
    x = [ZERO] * ncols
    if unit_col is not None:
        x[unit_col] = ONE
    for i, c in reversed(pivots):
        row = rows[i]
        s = Fraction(row[ncols]) if use_rhs else ZERO
        for j in range(c + 1, ncols):
            if row[j] and x[j]:
                s -= row[j] * x[j]
        x[c] = s / row[c]
    return x


def affine_dependence(points: Sequence[Point]) -> Optional[tuple[Fraction, ...]]:
    """Coefficients of a nontrivial affine dependence among ``points``.

    Returns lambda with sum(lambda) = 0 and sum(lambda_i * p_i) = 0, scaled so
    the first nonzero entry is 1, or None when the points are affinely
    independent.  Any d + 2 points in dimension d are always dependent.
    """
    pts = [tuple(p) for p in points]
    if not pts:
        return None
    dim = len(pts[0])
    matrix: list[list[Fraction]] = [[p[k] for p in pts] for k in range(dim)]
    matrix.append([ONE] * len(pts))
    result = solve_linear_system(matrix, [ZERO] * (dim + 1))
    if not result.nullspace:
        return None
    lam = result.nullspace[0]
    lead = next(v for v in lam if v)
    return tuple(v / lead for v in lam)
