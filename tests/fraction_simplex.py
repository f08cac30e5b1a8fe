"""Test-only reference: the two-phase Bland simplex over ``Fraction``.

This is the tableau kernel ``tvpm.lp`` used before it switched to
fraction-free integer pivoting.  It shares ``_standardize`` with the package
and nothing else, so comparing ``reference_lp_solve`` with ``lp_solve`` on
the same program checks the integer kernel's pivots, verdicts and points
against the plain rational arithmetic they must reproduce.

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
    UNBOUNDED,
    LinearProgram,
    LpResult,
    _standardize,
    _validate,
    satisfies,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def reference_lp_solve(lp: LinearProgram, trace: Optional[list] = None) -> LpResult:
    _validate(lp)
    std = _standardize(lp)
    if std is None:
        return LpResult(INFEASIBLE)
    rows, rhs, col_var, base, width, _ = std
    m = len(rows)

    # ``_standardize`` keeps a program's ``int``s: make every entry a
    # ``Fraction`` so that ``/`` below stays exact.
    tab = [
        [Fraction(v) for v in rows[i]]
        + [ONE if k == i else ZERO for k in range(m)]
        + [Fraction(rhs[i])]
        for i in range(m)
    ]
    basis = [width + i for i in range(m)]
    cost1 = [ZERO] * width + [ONE] * m
    obj = _reduced_costs(tab, basis, cost1)
    if _minimize(tab, obj, basis) != "optimal":
        raise InternalError("phase-one objective is bounded below zero")
    if -obj[-1] != 0:
        return LpResult(INFEASIBLE)
    _drive_out_artificials(tab, basis, width, trace)
    tab = [row[:width] + [row[-1]] for row in tab]

    if lp.objective is not None:
        cost2 = [ZERO] * width
        for c, (j, s) in enumerate(col_var):
            coeff = lp.objective[j]
            if coeff:
                cost2[c] = -coeff if s > 0 else coeff
        obj = _reduced_costs(tab, basis, cost2)
        if _minimize(tab, obj, basis) == "unbounded":
            return LpResult(UNBOUNDED)

    values = {b: tab[i][-1] for i, b in enumerate(basis)}
    x = list(base)
    for c, (j, s) in enumerate(col_var):
        v = values.get(c, ZERO)
        if v:
            x[j] = x[j] + v if s > 0 else x[j] - v
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


def _minimize(tab, obj, basis) -> str:
    ncols = len(obj) - 1
    while True:
        pc = next((j for j in range(ncols) if obj[j] < 0), None)
        if pc is None:
            return "optimal"
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
            return "unbounded"
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
