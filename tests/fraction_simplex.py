"""Test-only reference: the phase-one Bland simplex over ``Fraction``.

This is the tableau kernel ``tvpm.lp`` used before it switched to
fraction-free integer pivoting.  It takes the package's one program form,
``A x = b`` with every ``x >= 0``, and negates each row with a negative
right-hand side itself; it shares only ``_validate`` and ``satisfies`` with
the package.  So comparing ``reference_lp_solve`` with ``lp_solve`` on the
same program checks the integer kernel's pivots, verdicts and points
against the plain rational arithmetic they must reproduce.

Unlike the package, it still drives every zero-valued artificial variable
out of the basis after a feasible phase one, dropping the rows where none
can leave, before it reads its point.  Those pivots are degenerate, so the
point must come out the same as the package's, which reads it without them.

``trace``, when given, receives one event per drive-out step: ``("pivot",
value)`` for a pivot that moves a zero-valued artificial variable out of the
basis and ``("drop", row)`` for a redundant row that gets deleted.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from tvpm.errors import InternalError
from tvpm.lp import (
    FEASIBLE,
    INFEASIBLE,
    LinearProgram,
    LpResult,
    _validate,
    satisfies,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def reference_lp_solve(lp: LinearProgram, trace: Optional[list] = None) -> LpResult:
    _validate(lp)
    width = lp.num_vars
    m = len(lp.constraints)

    # Rows with a negative right-hand side are negated, and every entry made
    # a ``Fraction`` so that ``/`` below stays exact.
    tab = []
    for i, con in enumerate(lp.constraints):
        sign = -1 if con.rhs < 0 else 1
        tab.append(
            [Fraction(sign * v) for v in con.coeffs]
            + [ONE if k == i else ZERO for k in range(m)]
            + [Fraction(sign * con.rhs)]
        )
    basis = [width + i for i in range(m)]
    cost1 = [ZERO] * width + [ONE] * m
    obj = _reduced_costs(tab, basis, cost1)
    _minimize(tab, obj, basis)
    if -obj[-1] != 0:
        return LpResult(INFEASIBLE)
    _drive_out_artificials(tab, basis, width, trace)

    # The drive-out leaves only structural columns in the basis.
    x = [ZERO] * width
    for row, b in zip(tab, basis):
        x[b] = row[-1]
    point = tuple(x)
    if not satisfies(lp, point):
        raise InternalError("simplex returned a point violating its own program")
    return LpResult(FEASIBLE, point)


def _reduced_costs(tab, basis, cost):
    obj = list(cost) + [ZERO]
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb:
            row = tab[i]
            for j in range(len(obj)):
                if row[j]:
                    obj[j] -= cb * row[j]
    return obj


def _minimize(tab, obj, basis) -> None:
    ncols = len(obj) - 1
    while True:
        pc = next((j for j in range(ncols) if obj[j] < 0), None)
        if pc is None:
            return
        pr = None
        best = None
        for i, row in enumerate(tab):
            a = row[pc]
            if a > 0:
                ratio = row[-1] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[pr])
                ):
                    best = ratio
                    pr = i
        if pr is None:
            raise InternalError("phase-one objective is bounded below zero")
        _pivot(tab, obj, basis, pr, pc)


def _pivot(tab, obj, basis, pr, pc) -> None:
    row = tab[pr]
    piv = row[pc]
    if piv != 1:
        inv = ONE / piv
        tab[pr] = row = [v * inv if v else v for v in row]
    for i, other in enumerate(tab):
        if i == pr:
            continue
        f = other[pc]
        if f:
            tab[i] = [a - f * b if b else a for a, b in zip(other, row)]
    if obj is not None:
        f = obj[pc]
        if f:
            obj[:] = [a - f * b if b else a for a, b in zip(obj, row)]
    basis[pr] = pc


def _drive_out_artificials(tab, basis, width, trace) -> None:
    drop = []
    for i in range(len(tab)):
        if basis[i] < width:
            continue
        row = tab[i]
        pc = next((j for j in range(width) if row[j] != 0), None)
        if pc is None:
            drop.append(i)
            if trace is not None:
                trace.append(("drop", i))
        else:
            if trace is not None:
                trace.append(("pivot", row[pc]))
            _pivot(tab, None, basis, i, pc)
    for i in reversed(drop):
        del tab[i]
        del basis[i]
