"""Exact rational feasibility programs.

Every question this package asks of a linear program is whether it has a
point, never which point is best, so the solver is phase one of the simplex
alone: it minimizes the sum of one artificial variable per row, with Bland's
rule for both the entering and the leaving variable, so it terminates on
every input and identical programs always produce identical answers.

A program has one form: ``A x = b`` with every variable ``x >= 0``.  Each
caller poses its own question in it: a free variable is the difference of
two columns ``A_j`` and ``-A_j``, a nonpositive one is carried by ``-A_j``,
and an inequality row gets a slack column ``+1`` or ``-1`` of its own.
Strict inequalities never appear here; callers that need strictness encode a
margin into the right-hand side instead.

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
program, with ``D = 1``, after every row with a negative right-hand side is
negated.  Each structural column of ``L`` times the program is divided by
the gcd of its entries, which makes it primitive: that is the column times
its own ``k_j = L / g_j > 0``.  The right-hand side is made primitive the
same way by one common factor ``R``.  That is the original phase-one
program with every row multiplied by ``R`` and variable ``y_j`` replaced by
``(k_j / R) * z_j``, and Bland's rule cannot tell the two apart:

- a column scaled by ``k > 0`` has its reduced cost scaled by ``k``, so
  every reduced cost keeps its sign;
- every ratio in the ratio test's column is divided by the same ``k``, so
  the least ratio and its ties stay where they were.

The basis sequence and the returned point are those of the rational
simplex.  Multiplying every row of the program by one positive constant
leaves the starting dictionary as it is, so a caller may build its program
in integers, every constraint times one common denominator, without
changing a pivot; ``integer_points`` gives the callers their points that
way.  Every caller in this package does, and a program of ``int``s alone
is its own integer form with ``L = 1``: the start takes its column gcds
straight away, with no denominator pass and no rescaling.  ``math.gcd``
refuses a ``Fraction``, and that sends any other program through ``L``.
The entries stay as small as the primitive columns allow: in the search
programs a lifted point's column is, up to a small factor, the
homogeneous coordinates ``(p, 1)`` of the original point, which is the
form the pipeline builds the lift in (``separation``).  Scaling *rows* by different factors would break all
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
0``: Farkas' certificate that no nonnegative point solves the rows.  A
column scale ``k_j > 0`` only scales ``u . A_j``, and the common
right-hand-side scale only ``u . b``, so ``u`` is the same for the unscaled
program; a row negated for its right-hand side negates its ``u_i`` back.
Reading it off costs no pivot.

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

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

# A program's numbers: ``int`` where the caller built it in integers.
Rational = Union[int, Fraction]


@dataclass(frozen=True)
class Constraint:
    """The row ``coeffs . x = rhs``."""

    coeffs: tuple[Rational, ...]
    rhs: Rational


@dataclass(frozen=True)
class LinearProgram:
    """``num_vars`` variables, each ``>= 0``, and equality rows: a
    feasibility question."""

    num_vars: int
    constraints: tuple[Constraint, ...]


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
    """Exact re-substitution check: ``point >= 0`` and every row holds.

    It runs on ``X = q * point``, ``q`` the point's common denominator, where
    ``a . point = b`` holds exactly when ``a . X = q * b``: integer
    arithmetic throughout when the program is in integers.
    """
    if len(point) != lp.num_vars or any(x < 0 for x in point):
        return False
    q = common_denominator(point)
    xs = scaled(point, q)
    return all(
        sum(a * x for a, x in zip(con.coeffs, xs) if a and x) == con.rhs * q
        for con in lp.constraints
    )


def lp_solve(lp: LinearProgram) -> LpResult:
    """Decide ``A x = b, x >= 0`` exactly: a feasible point, or the verdict
    ``infeasible`` with its proof.

    An infeasible verdict carries ``multipliers``, one integer ``y_i`` per
    constraint: a positive multiple of phase one's dual, and so a Farkas
    certificate.  ``y . A_j <= 0`` for every column ``A_j`` and ``y . b >
    0``, so no ``x >= 0`` can satisfy the program, since ``y . (A x) <= 0 <
    y . b``.
    """
    _validate(lp)
    n = lp.num_vars
    m = len(lp.constraints)

    # Minimize the sum of one artificial variable per row, from the basis
    # of all artificials, on primitive columns with D = 1 (see the module
    # docstring).
    tab, obj, scales, rhs_scale, flipped = _dictionary(lp)
    basis = [n + i for i in range(m)]
    nonbasic = list(range(n))
    d = _minimize(tab, obj, basis, nonbasic, 1)
    if obj[-1] != 0:
        # Farkas multipliers, D * u_i: D minus artificial i's reduced cost,
        # which is 0 while it is basic (see the module docstring).
        reduced = dict(zip(nonbasic, obj))
        u = [d - reduced.get(n + i, 0) for i in range(m)]
        multipliers = tuple(-y if f else y for y, f in zip(u, flipped))
        return LpResult(INFEASIBLE, multipliers=multipliers)

    point = _extract(tab, basis, n, scales, rhs_scale, d)
    if not satisfies(lp, point):
        raise InternalError("simplex returned a point violating its own program")
    return LpResult(FEASIBLE, point)


def _validate(lp: LinearProgram) -> None:
    if lp.num_vars < 0:
        raise ValueError("negative variable count")
    for con in lp.constraints:
        if len(con.coeffs) != lp.num_vars:
            raise ValueError("constraint arity does not match variable count")


def _dictionary(lp: LinearProgram):
    """The starting dictionary ``(tab, obj, scales, rhs_scale, flipped)``.

    ``flipped[i]`` says whether row ``i`` was negated to make its
    right-hand side nonnegative.  One common denominator ``L`` of the
    program makes every entry an integer; then column ``j`` divided by the
    gcd ``g_j`` of its entries is primitive, with scale ``k_j = L / g_j``,
    and the right-hand side the same with ``R = L / g_b``.  A program whose
    entries are all ``int``s has ``L = 1`` and is used as it is: ``gcd``
    refuses a ``Fraction``, and that refusal sends the program through
    ``L``.  Scales are (numerator, denominator) pairs; a zero column keeps
    its zeros, with ``g_j = 1``.  ``obj`` starts as the reduced costs: minus
    the column sums, and minus the right-hand side's sum last.
    """
    cons = lp.constraints
    rows = [con.coeffs for con in cons]
    b = [con.rhs for con in cons]
    try:
        gs, gb = _gcds(rows, b, lp.num_vars)
        den = 1
    except TypeError:
        den = common_denominator(v for con in cons for v in (*con.coeffs, con.rhs) if v)
        rows = [scaled(row, den) for row in rows]
        b = scaled(b, den)
        gs, gb = _gcds(rows, b, lp.num_vars)
    flipped = [bi < 0 for bi in b]
    tab = []
    for row, bi in zip(rows, b):
        if bi < 0:
            row, bi = [-v for v in row], -bi
        tab.append([v // g for v, g in zip(row, gs)] + [bi // gb])
    obj = [-sum(col) for col in zip(*tab)] if tab else [0] * (lp.num_vars + 1)
    return tab, obj, [(den, g) for g in gs], (den, gb), flipped


def _gcds(rows, b, num_vars) -> tuple[list[int], int]:
    """Each column's gcd and the right-hand side's, 0 read as 1; a
    ``TypeError`` on any ``Fraction`` entry."""
    gs = [g or 1 for g in map(gcd, *rows)] if rows else [1] * num_vars
    return gs, gcd(*b) or 1


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


def _extract(tab, basis, n, scales, rhs_scale, d) -> tuple[Fraction, ...]:
    """The original point: basic column ``c`` holds ``z_c = T[i][-1] / D``,
    and variable ``c`` is ``(k_c / R) * z_c``.  Basic artificial columns lie
    past ``n`` and hold 0."""
    x = [Fraction(0)] * n
    r_num, r_den = rhs_scale
    for row, c in zip(tab, basis):
        v = row[-1]
        if c < n and v:
            k_num, k_den = scales[c]
            x[c] = Fraction(v * k_num * r_den, d * k_den * r_num)
    return tuple(x)
