"""Exact rational linear programming.

A small two-phase simplex with Bland's rule for both the entering and the
leaving variable, so the solver terminates on every input and identical
programs always produce identical answers.  Strict inequalities never appear
here; callers that need strictness encode a margin into the right-hand side
instead.

The tableau is fraction-free (Edmonds 1967, Bareiss 1968): an integer matrix
``T`` and one shared denominator ``D > 0`` with the real tableau exactly
``T / D``.  Pivoting on ``p = T[r][c]`` maps every other entry to
``(p * T[i][j] - T[i][c] * T[r][j]) // D``, a division that is always exact
because each entry is a minor of the starting matrix, and makes ``p`` the new
``D``.  Values become ``Fraction``s only once, when the point is extracted.

The starting matrix is built one column at a time, with ``D = 1``.  Each
structural column of the standardized program is multiplied by its own
``k_j > 0``, the factor that makes it a primitive integer vector (the lcm of
its denominators over the gcd of the resulting numerators); the right-hand
side is made primitive the same way by one common factor ``R``; identity
columns for the artificial variables go in unscaled.  That is the original
phase-one program with every row multiplied by ``R`` and variable ``y_j``
replaced by ``(k_j / R) * z_j``, and Bland's rule cannot tell the two apart:

- a column scaled by ``k > 0`` has its reduced cost scaled by ``k``, so
  every reduced cost keeps its sign (phase two scales the costs of ``z_j``
  by ``k_j`` to match);
- every ratio in the ratio test's column is divided by the same ``k``, so
  the least ratio and its ties stay where they were;
- no zero becomes nonzero or the other way, so the drive-out pivots and the
  dropped rows are the same.

The basis sequence and the returned point are those of the rational
simplex.  Multiplying every row of the standardized program by one positive
constant leaves the starting matrix as it is, so a caller may build its
program in integers, every constraint times one common denominator, without
changing a pivot (as long as no variable has two bounds: a cap row is not a
constraint the caller multiplies); ``integer_points`` gives the callers
their points that way.  The entries stay as small as the primitive columns
allow: in the search programs a lifted point's column is, up to a small
factor, the homogeneous coordinates ``(p, 1)`` of the original point, not
the lift's shared denominators.  Scaling *rows* by different factors would break all this:
the phase-one reduced costs sum the rows, so rows must share one scale.

An infeasible verdict keeps its proof.  When phase one ends with a positive
minimum, artificial column ``i`` of the objective row holds ``D * (1 - u_i)``
for phase one's dual ``u``, so ``D - obj[width + i]`` is ``D * u_i``, an
integer.  Optimality makes ``u . A_j <= 0`` on every structural column and
strong duality ``u . b > 0``: Farkas' certificate that no nonnegative point
solves the standardized rows.  A column scale ``k_j > 0`` only scales
``u . A_j``, and the common right-hand-side scale only ``u . b``, so ``u``
is the same for the unscaled program; a row ``_standardize`` negated
negates its ``u_i`` back.  Reading it off costs no pivot.

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
UNBOUNDED = "unbounded"

# A program's numbers: ``int`` where the caller built it in integers.
Rational = Union[int, Fraction]
Bound = tuple[Optional[Rational], Optional[Rational]]


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Rational, ...]
    relation: str
    rhs: Rational


@dataclass(frozen=True)
class LinearProgram:
    """``num_vars`` variables, linear constraints, optional maximization.

    ``bounds`` holds one (lower, upper) pair per variable with ``None`` for an
    unbounded side; when ``bounds`` itself is ``None`` every variable is free.
    ``objective`` is maximized; leave it ``None`` for pure feasibility.
    """

    num_vars: int
    constraints: tuple[Constraint, ...]
    objective: Optional[tuple[Rational, ...]] = None
    bounds: Optional[tuple[Bound, ...]] = None


@dataclass(frozen=True)
class LpResult:
    """The verdict, the point of a feasible program, and on an infeasible
    verdict from phase one the Farkas multipliers of the program's
    constraints (see ``lp_solve``); they take no part in equality."""

    status: str
    point: Optional[tuple[Fraction, ...]] = None
    multipliers: Optional[tuple[int, ...]] = field(default=None, compare=False)


def constraint(coeffs: Sequence, relation: str, rhs) -> Constraint:
    """A constraint over exact rationals; ``int`` values stay ``int``."""
    if relation not in (LESS_EQUAL, EQUAL, GREATER_EQUAL):
        raise ValueError(f"unknown relation: {relation!r}")
    return Constraint(tuple(_exact(c) for c in coeffs), relation, _exact(rhs))


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


def _exact(value) -> Rational:
    return value if type(value) is int else Fraction(value)


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
    """Solve ``lp`` exactly: a feasible (optimal, if asked) point, or the
    verdict ``infeasible`` / ``unbounded``.

    An infeasible verdict from phase one carries ``multipliers``, one
    integer ``y_i`` per constraint: a positive multiple of phase one's dual,
    and so a Farkas certificate.  For a program whose variables are all
    bounded below by zero and above by nothing, ``y . A_j <= 0`` for every
    column ``A_j``, ``y . b > 0``, ``y_i <= 0`` on a ``<=`` row and
    ``y_i >= 0`` on a ``>=`` row: no ``x >= 0`` can satisfy the program,
    since ``y . (A x) <= 0 < y . b``.  Other bounds shift and split the
    columns first (``_standardize``), and a variable with two bounds adds
    a cap row whose multiplier is not reported.
    """
    _validate(lp)
    std = _standardize(lp)
    if std is None:
        return LpResult(INFEASIBLE)
    rows, rhs, col_var, base, width, flipped = std
    m = len(rows)

    # Phase one: minimize the sum of one artificial variable per row, on
    # primitive structural columns beside an identity, with D = 1 (see the
    # module docstring).
    columns = [_primitive([row[c] for row in rows]) for c in range(width)]
    scales = [k for _, k in columns]
    b, rhs_scale = _primitive(rhs)
    tab = [
        [col[i] for col, _ in columns]
        + [1 if k == i else 0 for k in range(m)]
        + [b[i]]
        for i in range(m)
    ]
    basis = [width + i for i in range(m)]
    d = 1
    obj = _reduced_costs(tab, basis, [0] * width + [1] * m, d)
    status, d = _minimize(tab, obj, basis, d)
    if status != "optimal":
        raise InternalError("phase-one objective is bounded below zero")
    if obj[-1] != 0:
        # Farkas multipliers, D * u_i (see the module docstring).
        multipliers = tuple(
            -(d - obj[width + i]) if flipped[i] else d - obj[width + i]
            for i in range(len(lp.constraints))
        )
        return LpResult(INFEASIBLE, multipliers=multipliers)
    d = _drive_out_artificials(tab, basis, width, d)
    tab = [row[:width] + [row[-1]] for row in tab]

    if lp.objective is not None:
        # Minimize -objective; column c's cost carries its scale k_c.
        cost2 = [0] * width
        for c, (j, s) in enumerate(col_var):
            coeff = lp.objective[j]
            if coeff:
                cost2[c] = (-coeff if s > 0 else coeff) * Fraction(*scales[c])
        # Any positive multiple of the costs has the same reduced-cost signs.
        obj = _reduced_costs(tab, basis, _primitive(cost2)[0], d)
        status, d = _minimize(tab, obj, basis, d)
        if status == "unbounded":
            return LpResult(UNBOUNDED)

    point = _extract(tab, basis, col_var, base, scales, rhs_scale, d)
    if not satisfies(lp, point):
        raise InternalError("simplex returned a point violating its own program")
    return LpResult(FEASIBLE, point)


def _validate(lp: LinearProgram) -> None:
    if lp.num_vars < 0:
        raise ValueError("negative variable count")
    for con in lp.constraints:
        if len(con.coeffs) != lp.num_vars:
            raise ValueError("constraint arity does not match variable count")
    if lp.objective is not None and len(lp.objective) != lp.num_vars:
        raise ValueError("objective arity does not match variable count")
    if lp.bounds is not None and len(lp.bounds) != lp.num_vars:
        raise ValueError("bounds arity does not match variable count")


def _standardize(lp: LinearProgram):
    """Rewrite as rows @ y = rhs with y >= 0 and rhs >= 0.

    Returns (rows, rhs, col_var, base, width, flipped) where col_var maps
    each structural column to (original variable, sign), the original value
    is base[j] plus the signed column contributions, and flipped[i] says
    whether row i was negated to make its right-hand side nonnegative (the
    program's constraints first, then one cap row per variable with two
    bounds).  Returns None when a bound pair is contradictory on its own.
    Every value is an exact rational: the program's own, or an ``int`` (the
    ``0`` and ``±1`` placeholders).
    """
    n = lp.num_vars
    bounds = lp.bounds if lp.bounds is not None else ((None, None),) * n
    base: list[Rational] = [0] * n
    col_var: list[tuple[int, int]] = []
    cap_rows: list[tuple[int, Rational]] = []
    for j, (lo, hi) in enumerate(bounds):
        if lo is None and hi is None:
            col_var.append((j, 1))
            col_var.append((j, -1))
        elif hi is None:
            base[j] = lo
            col_var.append((j, 1))
        elif lo is None:
            base[j] = hi
            col_var.append((j, -1))
        else:
            if lo > hi:
                return None
            base[j] = lo
            cap_rows.append((len(col_var), hi - lo))
            col_var.append((j, 1))

    nslack = sum(1 for c in lp.constraints if c.relation != EQUAL) + len(cap_rows)
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
        shift = sum(
            (con.coeffs[j] * base[j] for j in range(n) if base[j] and con.coeffs[j]),
            0,
        )
        if con.relation == LESS_EQUAL:
            row[k] = 1
            k += 1
        elif con.relation == GREATER_EQUAL:
            row[k] = -1
            k += 1
        rows.append(row)
        rhs.append(con.rhs - shift)
    for c, cap in cap_rows:
        row = [0] * width
        row[c] = 1
        row[k] = 1
        k += 1
        rows.append(row)
        rhs.append(cap)
    flipped = [v < 0 for v in rhs]
    for i in range(len(rows)):
        if flipped[i]:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    return rows, rhs, tuple(col_var), base, width, flipped


def _primitive(values: Sequence[Rational]) -> tuple[list[int], tuple[int, int]]:
    """``k * values`` as a primitive integer vector, for the one ``k > 0``
    that makes it so, and ``k`` as (numerator, denominator).  A zero vector
    stays zero, with ``k = 1``."""
    den = common_denominator(v for v in values if v)
    ints = scaled(values, den)
    g = gcd(*ints)
    if g == 0:
        return ints, (1, 1)
    if g > 1:
        ints = [v // g for v in ints]
    return ints, (den, g)


def _reduced_costs(tab, basis, cost, d):
    """The objective row ``D * cost - cost_B * T``: the real reduced costs
    times ``D``, in the tableau's integer form."""
    obj = [d * c for c in cost] + [0]
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb:
            obj = [o - cb * t if t else o for o, t in zip(obj, tab[i])]
    return obj


def _minimize(tab, obj, basis, d) -> tuple[str, int]:
    """Bland's rule simplex loop; ``tab``, ``obj`` and ``basis`` mutate.
    Returns the verdict and the new denominator."""
    ncols = len(obj) - 1
    while True:
        pc = next((j for j in range(ncols) if obj[j] < 0), None)
        if pc is None:
            return "optimal", d
        # Ratio test: least rhs / a over a > 0, compared by cross-multiplying
        # (D cancels); ties go to the lower basis index.
        pr = None
        for i, row in enumerate(tab):
            a = row[pc]
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
            return "unbounded", d
        d = _pivot(tab, obj, basis, pr, pc, d)


def _pivot(tab, obj, basis, pr, pc, d) -> int:
    """Fraction-free pivot on ``tab[pr][pc]``; returns the new denominator.

    A negative pivot (only ``_drive_out_artificials`` makes one) negates its
    row first, which leaves the real tableau as it is and keeps ``D > 0``.
    """
    prow = tab[pr]
    p = prow[pc]
    if p < 0:
        p = -p
        tab[pr] = prow = [-v for v in prow]
    for i, row in enumerate(tab):
        if i != pr:
            tab[i] = _eliminate(row, prow, pc, p, d)
    if obj is not None:
        obj[:] = _eliminate(obj, prow, pc, p, d)
    basis[pr] = pc
    return p


def _eliminate(row, prow, pc, p, d) -> list[int]:
    """``(p * a - f * b) // d`` entrywise, ``f = row[pc]``, ``b`` from the
    pivot row ``prow``; a row with ``f = 0`` is only rescaled by ``p / d``."""
    f = row[pc]
    if f:
        return [
            (p * a - f * b) // d if b else (p * a // d if a else 0)
            for a, b in zip(row, prow)
        ]
    if p != d:
        return [p * a // d if a else 0 for a in row]
    return row


def _drive_out_artificials(tab, basis, width, d) -> int:
    """Pivot zero-valued artificial variables out of the basis; rows that
    cannot be repaired are redundant and get dropped.  Returns the new
    denominator.  Dropping a row with its artificial column keeps ``T / D``
    exact, since that column is a unit vector of the basis."""
    drop = []
    for i in range(len(tab)):
        if basis[i] < width:
            continue
        row = tab[i]
        pc = next((j for j in range(width) if row[j] != 0), None)
        if pc is None:
            drop.append(i)
        else:
            d = _pivot(tab, None, basis, i, pc, d)
    for i in reversed(drop):
        del tab[i]
        del basis[i]
    return d


def _extract(tab, basis, col_var, base, scales, rhs_scale, d) -> tuple[Fraction, ...]:
    """The original point: basic column ``c`` holds ``z_c = T[i][-1] / D``,
    and its variable moves by ``y_c = (k_c / R) * z_c``."""
    values = {b: tab[i][-1] for i, b in enumerate(basis)}
    x = list(base)
    r_num, r_den = rhs_scale
    for c, (j, s) in enumerate(col_var):
        v = values.get(c)
        if v:
            k_num, k_den = scales[c]
            v = Fraction(v * k_num * r_den, d * k_den * r_num)
            x[j] = x[j] + v if s > 0 else x[j] - v
    return tuple(Fraction(v) for v in x)
