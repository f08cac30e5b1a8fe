"""Exact rational feasibility programs.

Every question this package asks of a linear program is whether it has a
point, never which point is best, so the solver is phase one of the simplex
alone: it minimizes the sum of one artificial variable per row, with Bland's
rule for both the entering and the leaving variable, so it terminates on
every input and identical programs always produce identical answers.
Strict inequalities never appear here; callers that need strictness encode a
margin into the right-hand side instead.  Each variable is nonnegative,
nonpositive or free: the bounds ``(0, None)``, ``(None, 0)`` and
``(None, None)``, the only ones the callers need.

The simplex runs on an integer dictionary (Edmonds 1967): one row per
basic variable, one column per *nonbasic* variable and the right-hand side,
and one shared denominator ``D > 0``, so that the real dictionary is exactly
``T / D``.  A basic variable's column in the full tableau is a unit vector,
so it is never stored and never updated, and the phase-one artificials need
no identity block: they start basic, every structural column starts
nonbasic.  Pivoting on ``p = T[r][k]`` maps every entry off the pivot row
and column to ``(p * T[i][j] - T[i][k] * T[r][j]) // D``, a division that
is always exact because each entry is a minor of the starting matrix, and
makes ``p`` the new ``D``.  Position ``k`` then holds the leaving variable's
column: the old ``D`` in the pivot row and ``-T[i][k]`` in every other row,
the objective row included.  These are the Bareiss tableau's own entries on
the nonbasic columns, so the pivots and every value read off are those of
the full fraction-free tableau.  Bland's rule enters the least *variable
index* whose reduced cost is negative, and the ratio test only picks
``p > 0``, so ``D`` stays positive.  Values become ``Fraction``s only once,
when the point is extracted.

The starting dictionary is built from one common denominator ``L`` of the
standardized program, with ``D = 1``.  Each structural column of ``L`` times
the program is divided by the gcd of its entries, which makes it primitive:
that is the column times its own ``k_j = L / g_j > 0``.  The right-hand side
is made primitive the same way by one common factor ``R``.  That is the
original phase-one program with every row multiplied by ``R`` and variable
``y_j`` replaced by ``(k_j / R) * z_j``, and Bland's rule cannot tell the
two apart:

- a column scaled by ``k > 0`` has its reduced cost scaled by ``k``, so
  every reduced cost keeps its sign;
- every ratio in the ratio test's column is divided by the same ``k``, so
  the least ratio and its ties stay where they were.

The basis sequence and the returned point are those of the rational
simplex.  Multiplying every row of the standardized program by one positive
constant leaves the starting dictionary as it is, so a caller may build its
program in integers, every constraint times one common denominator, without
changing a pivot; ``integer_points`` gives the callers their points that
way.  The entries stay as small as the primitive columns allow: in the
search programs a lifted point's column is, up to a small factor, the
homogeneous coordinates ``(p, 1)`` of the original point, not the lift's
shared denominators.  Scaling *rows* by different factors would break all
this: the phase-one reduced costs sum the rows, so rows must share one
scale.

A feasible phase one reads its point straight from its own dictionary.  An
artificial variable still basic there has the value 0, since the artificials
sum to 0 and none is negative.  So a pivot that drove it out of the basis
would be degenerate, on a row whose right-hand side is 0, and change no
basic value, and a row it could not drive out would hold only that 0: the
point is the same without the drive-out pass.

An infeasible verdict keeps its proof.  When phase one ends with a positive
minimum, the reduced cost of artificial ``i`` is ``D * (1 - u_i)`` for phase
one's dual ``u``: the objective row's entry at the artificial's position
while it is nonbasic, and 0 while it is basic (where ``u_i = 1``).  So ``D``
minus that reduced cost is ``D * u_i``, an integer.  Optimality makes
``u . A_j <= 0`` on every structural column and strong duality ``u . b >
0``: Farkas' certificate that no nonnegative point solves the standardized
rows.  A column scale ``k_j > 0`` only scales ``u . A_j``, and the common
right-hand-side scale only ``u . b``, so ``u`` is the same for the unscaled
program; a row ``_standardize`` negated negates its ``u_i`` back.  Reading
it off costs no pivot.

The problems this package generates are tiny (tens of rows and columns), so
the implementation favours exactness and determinism over sparse-matrix
cleverness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence, Union

from .errors import InternalError
from .linalg import common_denominator, scaled

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

# A program's numbers: ``int`` where the caller built it in integers.
Rational = Union[int, Fraction]
Bound = tuple[Optional[Rational], Optional[Rational]]

# Each supported bound and the signs of the columns that carry its variable.
_COLUMN_SIGNS = {(0, None): (1,), (None, 0): (-1,), (None, None): (1, -1)}


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Rational, ...]
    relation: str
    rhs: Rational


@dataclass(frozen=True)
class LinearProgram:
    """``num_vars`` variables and linear constraints: a feasibility question.

    ``bounds`` holds one (lower, upper) pair per variable, ``(0, None)``,
    ``(None, 0)`` or ``(None, None)``; when ``bounds`` itself is ``None``
    every variable is free.
    """

    num_vars: int
    constraints: tuple[Constraint, ...]
    bounds: Optional[tuple[Bound, ...]] = None


@dataclass(frozen=True)
class LpResult:
    """The verdict, the point of a feasible program, and on an infeasible
    verdict the Farkas multipliers of the program's constraints (see
    ``lp_solve``); they take no part in equality."""

    status: str
    point: Optional[tuple[Fraction, ...]] = None
    multipliers: Optional[tuple[int, ...]] = field(default=None, compare=False)


def integer_points(
    points: Iterable[Sequence[Fraction]],
) -> tuple[int, list[list[int]]]:
    """``(q, [q * p, ...])``: the points' least common denominator ``q`` and
    every point times ``q``, as ``int`` coordinates.

    A program written on these coordinates, with its other numbers (the
    sum-to-one constants, right-hand sides, margins) times ``q``, is the
    rational program with every row times ``q``: ``lp_solve`` builds the
    very same tableau from it, and an infeasible one creates no ``Fraction``.
    """
    points = list(points)
    q = common_denominator(c for p in points for c in p)
    return q, [scaled(p, q) for p in points]


def satisfies(lp: LinearProgram, point: Sequence[Fraction]) -> bool:
    """Exact re-substitution check of every bound and constraint.

    It runs on ``X = q * point``, ``q`` the point's common denominator, where
    ``a . point <= b`` holds exactly when ``a . X <= q * b``: integer
    arithmetic throughout when the program is in integers.
    """
    if len(point) != lp.num_vars:
        return False
    q = common_denominator(point)
    xs = scaled(point, q)
    if lp.bounds is not None:
        for x, (lo, hi) in zip(xs, lp.bounds):
            if lo is not None and x < lo * q:
                return False
            if hi is not None and x > hi * q:
                return False
    for con in lp.constraints:
        value = sum(a * x for a, x in zip(con.coeffs, xs) if a and x)
        rhs = con.rhs * q
        if con.relation == LESS_EQUAL and value > rhs:
            return False
        if con.relation == GREATER_EQUAL and value < rhs:
            return False
        if con.relation == EQUAL and value != rhs:
            return False
    return True


def lp_solve(lp: LinearProgram) -> LpResult:
    """Decide ``lp`` exactly: a feasible point, or the verdict
    ``infeasible`` with its proof.

    An infeasible verdict carries ``multipliers``, one integer ``y_i`` per
    constraint: a positive multiple of phase one's dual, and so a Farkas
    certificate.  For a program whose variables are all bounded below by
    zero and above by nothing, ``y . A_j <= 0`` for every column ``A_j``,
    ``y . b > 0``, ``y_i <= 0`` on a ``<=`` row and ``y_i >= 0`` on a ``>=``
    row: no ``x >= 0`` can satisfy the program, since ``y . (A x) <= 0 <
    y . b``.  A nonpositive variable is carried by the column ``-A_j`` and a
    free one by both ``A_j`` and ``-A_j`` (``_standardize``), so there
    ``y . A_j >= 0`` and ``y . A_j = 0`` instead.
    """
    _validate(lp)
    rows, rhs, col_var, width, flipped = _standardize(lp)
    m = len(rows)

    # Minimize the sum of one artificial variable per row, from the basis
    # of all artificials, on primitive structural columns with D = 1 (see
    # the module docstring).
    tab, obj, scales, rhs_scale = _dictionary(rows, rhs, width)
    basis = [width + i for i in range(m)]
    nonbasic = list(range(width))
    d = _minimize(tab, obj, basis, nonbasic, 1)
    if obj[-1] != 0:
        # Farkas multipliers, D * u_i: D minus artificial i's reduced cost,
        # which is 0 while it is basic (see the module docstring).
        reduced = dict(zip(nonbasic, obj))
        u = [d - reduced.get(width + i, 0) for i in range(m)]
        multipliers = tuple(-y if f else y for y, f in zip(u, flipped))
        return LpResult(INFEASIBLE, multipliers=multipliers)

    point = _extract(tab, basis, col_var, lp.num_vars, scales, rhs_scale, d)
    if not satisfies(lp, point):
        raise InternalError("simplex returned a point violating its own program")
    return LpResult(FEASIBLE, point)


def _validate(lp: LinearProgram) -> None:
    if lp.num_vars < 0:
        raise ValueError("negative variable count")
    for con in lp.constraints:
        if len(con.coeffs) != lp.num_vars:
            raise ValueError("constraint arity does not match variable count")
        if con.relation not in (LESS_EQUAL, EQUAL, GREATER_EQUAL):
            raise ValueError(f"unknown relation: {con.relation!r}")
    if lp.bounds is not None:
        if len(lp.bounds) != lp.num_vars:
            raise ValueError("bounds arity does not match variable count")
        for bound in lp.bounds:
            if bound not in _COLUMN_SIGNS:
                raise ValueError(
                    f"unsupported bound {bound!r}: a variable is nonnegative "
                    "(0, None), nonpositive (None, 0) or free (None, None)"
                )


def _standardize(lp: LinearProgram):
    """Rewrite as rows @ y = rhs with y >= 0 and rhs >= 0.

    Returns (rows, rhs, col_var, width, flipped) where col_var maps each
    structural column to (original variable, sign), the original value is
    the sum of its signed column values, and flipped[i] says whether row i
    was negated to make its right-hand side nonnegative.  The slack columns
    follow the structural ones, up to ``width``.  Every value is an exact
    rational: the program's own, or an ``int`` (the ``0`` and ``±1``
    placeholders).
    """
    bounds = lp.bounds if lp.bounds is not None else ((None, None),) * lp.num_vars
    col_var = [(j, s) for j, bound in enumerate(bounds) for s in _COLUMN_SIGNS[bound]]
    nslack = sum(1 for c in lp.constraints if c.relation != EQUAL)
    width = len(col_var) + nslack
    rows: list[list[Rational]] = []
    rhs: list[Rational] = []
    k = len(col_var)
    for con in lp.constraints:
        row = [0] * width
        for c, (j, s) in enumerate(col_var):
            a = con.coeffs[j]
            if a:
                row[c] = a if s > 0 else -a
        if con.relation == LESS_EQUAL:
            row[k] = 1
            k += 1
        elif con.relation == GREATER_EQUAL:
            row[k] = -1
            k += 1
        rows.append(row)
        rhs.append(con.rhs)
    flipped = [v < 0 for v in rhs]
    for i in range(len(rows)):
        if flipped[i]:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    return rows, rhs, tuple(col_var), width, flipped


def _dictionary(rows, rhs, width):
    """The starting dictionary ``(tab, obj, scales, rhs_scale)``.

    One common denominator ``L`` of the program makes every entry an
    integer; then column ``j`` divided by the gcd ``g_j`` of its entries is
    primitive, with scale ``k_j = L / g_j``, and the right-hand side the
    same with ``R = L / g_b``.  Scales are (numerator, denominator) pairs; a
    zero column keeps its zeros, with ``g_j = 1``.  ``obj`` starts as the
    reduced costs: minus the column sums, and minus the right-hand side's
    sum last.
    """
    den = common_denominator(v for row in (*rows, rhs) for v in row if v)
    ints = [scaled(row, den) for row in rows]
    b = scaled(rhs, den)
    gs = [g or 1 for g in map(gcd, *ints)] if ints else [1] * width
    gb = gcd(*b) or 1
    tab = [
        [v // g for v, g in zip(row, gs)] + [bi // gb] for row, bi in zip(ints, b)
    ]
    obj = [-sum(col) for col in zip(*tab)] if tab else [0] * (width + 1)
    return tab, obj, [(den, g) for g in gs], (den, gb)


def _minimize(tab, obj, basis, nonbasic, d) -> int:
    """Bland's rule simplex loop; ``tab``, ``obj``, ``basis`` and
    ``nonbasic`` mutate.  Returns the new denominator."""
    positions = range(len(nonbasic))
    while True:
        # Entering: the least variable index with a negative reduced cost.
        pk = min(
            (k for k in positions if obj[k] < 0),
            key=nonbasic.__getitem__,
            default=None,
        )
        if pk is None:
            return d
        # Ratio test: least rhs / a over a > 0, compared by cross-multiplying
        # (D cancels); ties go to the lower basis index.
        pr = None
        for i, row in enumerate(tab):
            a = row[pk]
            if a > 0:
                v = row[-1]
                if pr is None:
                    pr, best_v, best_a = i, v, a
                    continue
                lhs = v * best_a
                rhs = best_v * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[pr]):
                    pr, best_v, best_a = i, v, a
        if pr is None:
            raise InternalError("phase-one objective is bounded below zero")
        d = _pivot(tab, obj, basis, nonbasic, pr, pk, d)


def _pivot(tab, obj, basis, nonbasic, pr, pk, d) -> int:
    """Fraction-free pivot on ``tab[pr][pk] > 0``, entering the variable
    ``nonbasic[pk]`` for ``basis[pr]``; returns the new denominator.

    Position ``pk`` becomes the leaving variable's column: the old ``D`` in
    the pivot row, ``-f`` in every other row with ``f`` its old entry."""
    prow = tab[pr]
    p = prow[pk]
    for i, row in enumerate(tab):
        if i != pr:
            tab[i] = _eliminate(row, prow, pk, p, d)
    obj[:] = _eliminate(obj, prow, pk, p, d)
    prow[pk] = d
    basis[pr], nonbasic[pk] = nonbasic[pk], basis[pr]
    return p


def _eliminate(row, prow, pk, p, d) -> list[int]:
    """``(p * a - f * b) // d`` entrywise, ``f = row[pk]``, ``b`` from the
    pivot row ``prow``, and ``-f`` at ``pk``; a row with ``f = 0`` is only
    rescaled by ``p / d``."""
    f = row[pk]
    if f:
        new = [
            (p * a - f * b) // d if b else (p * a // d if a else 0)
            for a, b in zip(row, prow)
        ]
        new[pk] = -f
        return new
    if p != d:
        return [p * a // d if a else 0 for a in row]
    return row


def _extract(tab, basis, col_var, n, scales, rhs_scale, d) -> tuple[Fraction, ...]:
    """The original point: basic column ``c`` holds ``z_c = T[i][-1] / D``,
    and its variable moves by ``y_c = (k_c / R) * z_c``.  Basic artificial
    columns lie past ``col_var`` and hold 0."""
    values = {b: tab[i][-1] for i, b in enumerate(basis)}
    x: list[Rational] = [0] * n
    r_num, r_den = rhs_scale
    for c, (j, s) in enumerate(col_var):
        v = values.get(c)
        if v:
            k_num, k_den = scales[c]
            v = Fraction(v * k_num * r_den, d * k_den * r_num)
            x[j] = x[j] + v if s > 0 else x[j] - v
    return tuple(Fraction(v) for v in x)
