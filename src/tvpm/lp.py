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

The simplex runs on an integer dictionary (Edmonds 1967) with one shared
denominator ``D > 0``, so that the real dictionary is exactly ``T / D``.
It is stored by column: one list per stored column and one for the
right-hand side, each with its entries in the rows of the basic variables
and its objective entry (the reduced cost, times ``D``) last.  A basic
variable's column in the full tableau is a unit vector, so it is never
stored and never updated, and the phase-one artificials need no identity
block: they start basic.  Pivoting on ``p = T[r][k]`` maps every entry off
the pivot row and column to ``(p * T[i][j] - T[i][k] * T[r][j]) // D``, a
division that is always exact because each entry is a minor of the starting
matrix, and makes ``p`` the new ``D``; a column with ``T[r][j] = 0`` is
only rescaled by ``p / D``.  Position ``k`` then holds the leaving
variable's column: the old ``D`` in the pivot row and ``-T[i][k]`` in every
other row, the objective row included.  These are the Bareiss tableau's own
entries on the nonbasic columns, so the pivots and every value read off are
those of the full fraction-free tableau.  Bland's rule enters the least
*variable index* whose reduced cost is negative, and the ratio test only
picks ``p > 0``, so ``D`` stays positive.  Values become ``Fraction``s only
once, when the point is extracted.

Twin variables share one stored column (Chvatal 1983 treats free variables
this way).  Two variables are twins when their primitive starting columns
(below) are opposite: two structural columns with ``A_k = -A_j``, a free
variable's two halves, or a structural column equal to minus its row's
artificial ``e_i``, a margin slack; in the program, one column is a
positive multiple of the other's negation.  Row operations keep every linear relation between columns,
so twins stay opposite in every dictionary, and being linearly dependent,
at most one of them is ever basic.  Their reduced costs are tied too.  With
phase one's duals ``u``, structural twins have ``-u . A_j`` and ``u .
A_j``, so the partner of a column with objective entry ``c`` has ``-c``;
slack ``i`` has ``u_i`` and artificial ``i`` has ``1 - u_i``, so the two sum
to 1, and the partner has ``D - c``.  While one twin is basic the other's
reduced cost is ``0`` or ``D``, never negative, so it cannot enter and is
not stored.  While both are nonbasic one column stands for the pair, and
when the partner enters, that column is negated, its objective entry
becoming ``-c`` or ``D - c``, before the pivot.  So the dictionary holds one
column per twin class with no basic member: the number of classes minus
``m``.  Bland's order is kept, because the entering scan weighs each
column's candidate, the stored variable when ``c < 0`` or else its partner
when the partner's reduced cost is negative (never both), by that
variable's own index: the candidates and the least of them are those of the
unfolded dictionary, and so are the ratio test's column and every pivot.
The separation program (``separation``) poses its ``d + 1`` free unknowns as
column pairs and gives each row a slack, so it pivots on ``d + 1`` stored
columns instead of ``2(d + 1) + n``.  Twins are read off the starting
dictionary, whoever the caller: an objective entry is minus its column's
sum, so only columns with opposite entries are compared, and only a column
whose entry is 1 can be a slack.  One path serves every program: the
search's and the oracle's have no twins, so their twin map is empty, every
column is stored, and the entering scan is Bland's plain one, the least
index whose reduced cost is negative.

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
one's dual ``u``: the objective entry of its own stored column or ``D``
minus that of its slack twin's, 0 while it is basic (where ``u_i = 1``) and
``D`` while its twin is.  So ``D`` minus that reduced cost is ``D * u_i``,
an integer.  Optimality makes
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

    It runs on ``X = q * point``, ``q > 0`` the point's common denominator,
    where ``x < 0`` exactly when ``q * x < 0`` and ``a . point = b`` holds
    exactly when ``a . X = q * b``: integer arithmetic throughout when the
    program is in integers.
    """
    if len(point) != lp.num_vars:
        return False
    q = common_denominator(point)
    xs = scaled(point, q)
    if any(x < 0 for x in xs):
        return False
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
    cols, rhs, nonbasic, twins, gs, gb, flipped = _dictionary(lp)
    basis = [n + i for i in range(m)]
    d = _minimize(cols, rhs, basis, nonbasic, twins, 1)
    if rhs[-1] != 0:
        # Farkas multipliers, D * u_i: D minus artificial i's reduced cost
        # (see the module docstring), 0 while it is basic.  A twin's is
        # shift * D minus its partner's, whether that one is stored or basic.
        reduced = dict(zip(nonbasic, [col[-1] for col in cols]))
        reduced.update(dict.fromkeys(basis, 0))
        for v, (partner, shift) in twins.items():
            if v in reduced and partner not in reduced:
                reduced[partner] = shift * d - reduced[v]
        u = [d - reduced[a] for a in range(n, n + m)]
        multipliers = tuple(-y if f else y for y, f in zip(u, flipped))
        return LpResult(INFEASIBLE, multipliers=multipliers)

    point = _extract(rhs, basis, n, gs, gb, d)
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
    """The starting dictionary ``(cols, rhs, nonbasic, twins, gs, gb,
    flipped)``.

    ``flipped[i]`` says whether row ``i`` was negated to make its
    right-hand side nonnegative.  One common denominator ``L`` of the
    program makes every entry an integer; then column ``j`` divided by the
    gcd ``g_j`` of its entries is primitive, with scale ``k_j = L / g_j``,
    and the right-hand side the same with ``R = L / g_b``.  A program whose
    entries are all ``int``s has ``L = 1`` and is used as it is: ``gcd``
    refuses a ``Fraction``, and that refusal sends the program through
    ``L``.  ``gs`` holds the column gcds and ``gb`` the right-hand side's;
    ``L`` cancels from every value read off (``_extract``).  A zero column
    keeps its zeros, with ``g_j = 1``.  Each column, and ``rhs``, ends in
    its reduced cost: minus its sum.  ``twins`` maps each twin to its
    partner and ``1`` for a slack and its artificial, ``0`` for two
    structural columns (``_twins``); ``nonbasic`` lists the structural
    variables whose columns are stored, all but a slack twin and the later
    of two structural twins, and ``cols`` holds their columns.
    """
    cons = lp.constraints
    n = lp.num_vars
    m = len(cons)
    rows = [con.coeffs for con in cons]
    b = [con.rhs for con in cons]
    try:
        gs, gb = _gcds(rows, b, n)
    except TypeError:
        den = common_denominator(v for con in cons for v in (*con.coeffs, con.rhs) if v)
        rows = [scaled(row, den) for row in rows]
        b = scaled(b, den)
        gs, gb = _gcds(rows, b, n)
    flipped = [bi < 0 for bi in b]
    if any(flipped):
        rows = [[-v for v in row] if f else row for row, f in zip(rows, flipped)]
    cols = []
    for col, g in zip(zip(*rows) if rows else [()] * n, gs):
        col = [v // g for v in col] if g != 1 else list(col)
        col.append(-sum(col))
        cols.append(col)
    rhs = [abs(bi) // gb for bi in b]
    rhs.append(-sum(rhs))
    twins = _twins(cols, n, m)
    nonbasic = [j for j in range(n) if j not in twins or j < twins[j][0] < n]
    cols = [cols[j] for j in nonbasic]
    return cols, rhs, nonbasic, twins, gs, gb, flipped


def _gcds(rows, b, num_vars) -> tuple[list[int], int]:
    """Each column's gcd and the right-hand side's, 0 read as 1; a
    ``TypeError`` on any ``Fraction`` entry."""
    gs = [g or 1 for g in map(gcd, *rows)] if rows else [1] * num_vars
    return gs, gcd(*b) or 1


def _twins(cols, n, m) -> dict[int, tuple[int, int]]:
    """The twin pairs of the starting columns ``cols``, each column ending
    in its reduced cost, as ``{variable: (partner, shift)}`` both ways.

    A slack is a column ``-e_i``: reduced cost 1 and a single nonzero.  It
    pairs with artificial ``n + i`` (shift 1) unless an earlier slack of
    row ``i`` did.  Then each remaining column pairs with the first
    remaining earlier one that is its negation (shift 0), compared only
    where the reduced costs are opposite.  A program without twins, the
    search's and the oracle's, runs the same scans and gets an empty map.
    """
    twins = {}
    sums = [col[-1] for col in cols]
    for j, c in enumerate(sums):
        if c == 1 and cols[j].count(0) == m - 1:
            a = n + cols[j].index(-1)
            if a not in twins:
                twins[j], twins[a] = (a, 1), (j, 1)
    earlier = {}
    for j, (col, c) in enumerate(zip(cols, sums)):
        if j in twins:
            continue
        for k in earlier.get(-c, ()):
            if k not in twins and col == [-e for e in cols[k]]:
                twins[j], twins[k] = (k, 0), (j, 0)
                break
        else:
            earlier.setdefault(c, []).append(j)
    return twins


def _minimize(cols, rhs, basis, nonbasic, twins, d) -> int:
    """Bland's rule simplex loop for every program, with or without twins;
    ``cols``, ``rhs``, ``basis`` and ``nonbasic`` mutate.  Returns the new
    denominator."""
    while True:
        # Entering: the least variable index with a negative reduced cost.
        pk = _entering_twin(cols, nonbasic, twins, d)
        if pk is None:
            return d
        pcol = cols[pk]
        # Ratio test: least rhs / a over a > 0, compared by cross-multiplying
        # (D cancels); ties go to the lower basis index.  The column's last
        # entry, its reduced cost, is negative and never takes part.
        pr = None
        for i, a in enumerate(pcol):
            if a > 0:
                v = rhs[i]
                if pr is None:
                    pr, best_v, best_a = i, v, a
                    continue
                left = v * best_a
                right = best_v * a
                if left < right or (left == right and basis[i] < basis[pr]):
                    pr, best_v, best_a = i, v, a
        if pr is None:
            raise InternalError("phase-one objective is bounded below zero")
        d = _pivot(cols, rhs, basis, nonbasic, pr, pk, d)


def _entering_twin(cols, nonbasic, twins, d) -> Optional[int]:
    """Bland's entering position, for every program: each stored column's
    candidate is its own variable when its reduced cost ``c`` is negative,
    else its twin, if it has one, when the twin's, ``shift * D - c``, is
    (see the module docstring), weighed by the candidate's own index.  When
    the twin wins, its column, the stored one negated, takes the position.
    With no twins this is the least index with ``c < 0``.
    """
    pk = least = None
    for k, col in enumerate(cols):
        c = col[-1]
        v = nonbasic[k]
        if c >= 0:
            if v not in twins:
                continue
            v, shift = twins[v]
            if c <= shift * d:
                continue
        if least is None or v < least:
            pk, least = k, v
    if pk is not None and least != nonbasic[pk]:
        col = [-a for a in cols[pk]]
        col[-1] += twins[least][1] * d
        cols[pk] = col
        nonbasic[pk] = least
    return pk


def _pivot(cols, rhs, basis, nonbasic, pr, pk, d) -> int:
    """Fraction-free pivot on ``cols[pk][pr] > 0``, entering the variable
    ``nonbasic[pk]`` for ``basis[pr]``; returns the new denominator.

    Every other column, ``rhs`` included, becomes ``(p * a - f * e) // d``
    entrywise, ``f`` its pivot-row entry and ``e`` the pivot column's, and
    keeps ``f`` in the pivot row; a column with ``f = 0`` is only rescaled
    by ``p / d``.  Position ``pk`` becomes the leaving variable's column:
    the old ``D`` in the pivot row, ``-e`` in every other row."""
    pcol = cols[pk]
    p = pcol[pr]
    cols.append(rhs)
    for j, col in enumerate(cols):
        f = col[pr]
        if j == pk:
            col = [-e for e in pcol]
            col[pr] = d
        elif f:
            col = [
                (p * a - f * e) // d if e else (p * a // d if a else 0)
                for a, e in zip(col, pcol)
            ]
            col[pr] = f
        elif p != d:
            col = [p * a // d if a else 0 for a in col]
        cols[j] = col
    rhs[:] = cols.pop()
    basis[pr], nonbasic[pk] = nonbasic[pk], basis[pr]
    return p


def _extract(rhs, basis, n, gs, gb, d) -> tuple[Fraction, ...]:
    """The original point: basic column ``c`` holds ``z_c = rhs[i] / D``,
    and variable ``c`` is ``(k_c / R) * z_c = (g_b / g_c) * z_c``, ``L``
    cancelling.  Basic artificial columns lie past ``n`` and hold 0."""
    x = [Fraction(0)] * n
    for v, c in zip(rhs, basis):
        if c < n and v:
            x[c] = Fraction(v * gb, d * gs[c])
    return tuple(x)
