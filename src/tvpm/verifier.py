"""Certificate verification and the lift-free brute-force oracle.

``verify_certificate`` re-checks a certificate against its configuration
from scratch, by exact substitution in integers.  It scales the points
once, ``P = q * p`` (``integer_points``), and each block's coefficients by
that block's own common denominator, ``C_i = c * c_i``, so one block's
denominators never enter another block's sums.  A block presents ``b`` when
``sum(C_i * P_i) = c * q * b`` on every axis, compared cross-multiplied by
``b``'s denominator, so a ``b`` that no integer combination reaches is a
mismatch; its coefficients sum to 1 when ``sum(C_i) = c``; and ``C_i`` has
``c_i``'s sign.  Point ``i`` lies on its side of ``(w, alpha)`` by the sign
of ``<P_i, W> - q * A = q * K * (<p_i, w> - alpha)``, with ``W = K * w`` and
``A = K * alpha`` scaled as the lift scales them (``separation``).  Only
``beta``'s identity is one ``Fraction`` expression.  The verifier builds
this form itself, from the configuration and the certificate alone, on
every call.  ``oracle_enumerate``
decides, for every partition independently, whether signed coefficients with
the required signs can present a common point; it never builds the
projective lift, so it cross-checks the pipeline by a different route.  It
first bounds, on each coordinate axis of the original points and on each
pairwise direction ``e_a + e_b`` and ``e_a - e_b`` (``_interval_keys``), the
interval of values each block can present with its signs
(``_intervals_miss``; an interval can be unbounded), and drops a partition
whose intervals miss without posing its program; every other partition's
program goes to the simplex, posed from the points themselves.

The oracle's program for one partition of ``n`` vertices in dimension ``d``
into ``r`` blocks has one variable per vertex and ``r + (r - 1) * d`` rows:
each block's coefficients sum to 1, and each block ``j >= 1`` presents the
point block 0 presents, axis by axis.  The common point is block 0's signed
combination, read off a feasible point; it has no variables of its own, so
the program asks the same feasibility question as one with a free point
``b`` that every block presents, on ``d`` fewer free variables (``2 * d``
fewer simplex columns) and ``d`` fewer rows.  ``oracle_enumerate`` scales
the configuration to integers once (``integer_points``) for all its
programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf
from operator import gt
from typing import Optional, Sequence

from .linalg import ZERO, common_denominator, dot, scaled
from .model import Configuration, PlusMinusCertificate, validate_configuration
from .lp import FEASIBLE, Constraint, LinearProgram, integer_points, lp_solve
from .solver import Blocks, enumerate_partitions


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: Optional[str] = None


def _reject(reason: str) -> VerifyResult:
    return VerifyResult(False, reason)


def verify_certificate(
    config: Configuration, cert: PlusMinusCertificate
) -> VerifyResult:
    """Accept iff every certificate claim holds exactly for ``config``.

    The checks run in a fixed order and the first failure names the reason:
    dimension-mismatch, block-count-mismatch, block-empty,
    index-out-of-range, blocks-not-disjoint, coefficient-key-mismatch,
    affine-combination-mismatch, affine-sum-mismatch, sign-violation,
    rainbow-without-coloring, rainbow-violation, hyperplane-not-separating,
    beta-not-positive, beta-mismatch.
    """
    # No hyperplane (the field's default) has no dimension either.
    w = () if cert.hyperplane is None else cert.hyperplane.w
    if len(cert.point_b) != config.d or len(w) != config.d:
        return _reject("dimension-mismatch")
    if len(cert.blocks) != config.r:
        return _reject("block-count-mismatch")
    n = len(config.points)
    seen: set[int] = set()
    for block in cert.blocks:
        if not block:
            return _reject("block-empty")
        for i in block:
            if not 0 <= i < n:
                return _reject("index-out-of-range")
            if i in seen:
                return _reject("blocks-not-disjoint")
            seen.add(i)
    if set(cert.coefficients) != seen:
        return _reject("coefficient-key-mismatch")
    q, points = integer_points(config.points)
    weights: dict[int, int] = {}
    for block in cert.blocks:
        coefficients = [cert.coefficients[i] for i in block]
        scale = common_denominator(coefficients)
        block_weights = scaled(coefficients, scale)
        target = scale * q
        for m, b in enumerate(cert.point_b):
            combo = sum(c * points[i][m] for i, c in zip(block, block_weights))
            if combo * b.denominator != target * b.numerator:
                return _reject("affine-combination-mismatch")
        if sum(block_weights) != scale:
            return _reject("affine-sum-mismatch")
        weights.update(zip(block, block_weights))
    members = set(config.mu)
    for i, c in weights.items():
        if i in members:
            if c > 0:
                return _reject("sign-violation")
        elif c < 0:
            return _reject("sign-violation")
    if cert.rainbow:
        if config.coloring is None:
            return _reject("rainbow-without-coloring")
        for cls in config.coloring:
            cls_set = set(cls)
            for block in cert.blocks:
                if len(cls_set.intersection(block)) > 1:
                    return _reject("rainbow-violation")
    alpha = cert.hyperplane.alpha
    if not any(w):
        return _reject("hyperplane-not-separating")
    k = common_denominator((*w, alpha))
    *normal, offset = scaled((*w, alpha), k)
    offset *= q
    for i, p in enumerate(points):
        s = sum(a * c for a, c in zip(p, normal)) - offset
        if i in members:
            if s >= 0:
                return _reject("hyperplane-not-separating")
        elif s <= 0:
            return _reject("hyperplane-not-separating")
    if cert.beta <= 0:
        return _reject("beta-not-positive")
    if cert.beta * (dot(cert.point_b, w) - alpha) != 1:
        return _reject("beta-mismatch")
    return VerifyResult(True)


def oracle_enumerate(config: Configuration) -> list[Blocks]:
    """Every partition that admits a signed presentation of a common point.

    Checks each partition of the vertices into r nonempty blocks (rainbow
    ones only, in colored mode) with a sign-constrained feasibility program
    posed directly in the original coordinates (``_presentation_program``):
    coefficients of marked vertices at most 0, of unmarked vertices at
    least 0, each block summing to 1 and presenting the same point as block
    0.  A partition whose blocks' signed intervals miss on a coordinate axis
    or on a pairwise direction ``e_a + e_b`` or ``e_a - e_b``
    (``_intervals_miss`` on ``_interval_keys``, built once per listing) has
    an infeasible program, so it is dropped before the program is built.
    Returns the partitions in canonical enumeration order.
    """
    validate_configuration(config)
    q, points = integer_points(config.points)
    keys = _interval_keys(points)
    members = set(config.mu)
    intervals: dict[tuple[int, ...], tuple] = {}
    found = []
    for blocks in enumerate_partitions(len(config.points), config.r, config.coloring):
        if _intervals_miss(keys, members, blocks, intervals):
            continue
        program = _presentation_program(q, points, members, blocks)
        if lp_solve(program).status == FEASIBLE:
            found.append(blocks)
    return found


def _interval_keys(points: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Each point's values on the coordinate axes, then on ``e_a + e_b`` and
    ``e_a - e_b`` for each pair of axes ``a < b``: the directions
    ``_intervals_miss`` tries."""
    d = len(points[0])
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    return [
        (*p, *(v for a, b in pairs for v in (p[a] + p[b], p[a] - p[b])))
        for p in points
    ]


def _intervals_miss(
    keys: Sequence[Sequence[int]],
    members: set[int],
    blocks: Blocks,
    intervals: dict[tuple[int, ...], tuple],
) -> bool:
    """True when a linear functional proves that ``blocks`` have no signed
    presentation of a common point, so their program is infeasible.

    ``keys[i]`` holds point ``i``'s values on a fixed list of linear
    functionals of ``P = q * p``; the oracle passes ``_interval_keys``, the
    coordinates and the pairwise sums and differences.  A block's signed
    weights present on a functional the same combination of their points'
    values, since the functional is linear, so the rule below holds on
    each.  On one functional, let a block's unmarked values span
    ``[umin, umax]`` and its marked values ``[vmin, vmax]``.  Weights that
    sum to 1, ``>= 0`` on unmarked and ``<= 0`` on marked vertices, present
    ``(1 + T) * u - T * v``, where ``T >= 0`` is the marked weights'
    magnitude, ``u`` a convex combination of unmarked values and ``v`` one
    of marked values.  The weights form a convex set and the value is
    linear in them, so the block presents an interval, closed where it is
    finite.  Its low end is ``umin`` (at ``T = 0``) when the block has no
    marked vertex or ``umin >= vmax``, and ``-inf`` otherwise (``u = umin``,
    ``v = vmax``, ``T`` growing); likewise its high end is ``umax`` when the
    block has no marked vertex or ``umax <= vmin``, and ``+inf`` otherwise.
    A block without an unmarked vertex presents nothing, as weights ``<= 0``
    do not sum to 1.  The common point's value lies in every block's
    interval on every functional, so there is none when some block presents
    nothing or, on some functional, the largest low end exceeds the
    smallest high end.

    ``intervals`` keeps each block's low and high ends, one list of each
    with one entry per functional, for one listing: ``()`` for a block that
    presents nothing.
    """
    lows = highs = None
    for block in blocks:
        ends = intervals.get(block)
        if ends is None:
            unmarked = [keys[i] for i in block if i not in members]
            marked = [keys[i] for i in block if i in members]
            ends = ()
            if unmarked:
                low = [min(axis) for axis in zip(*unmarked)]
                high = [max(axis) for axis in zip(*unmarked)]
                if marked:
                    axes = list(zip(*marked))
                    low = [u if u >= max(v) else -inf for u, v in zip(low, axes)]
                    high = [u if u <= min(v) else inf for u, v in zip(high, axes)]
                ends = low, high
            intervals[block] = ends
        if not ends:
            return True
        if lows is None:
            lows, highs = ends
        else:
            lows = list(map(max, lows, ends[0]))
            highs = list(map(min, highs, ends[1]))
    return any(map(gt, lows, highs))


def signed_presentation(
    config: Configuration, blocks: Blocks
) -> Optional[tuple[dict[int, Fraction], tuple[Fraction, ...]]]:
    """Signed coefficients presenting one common point from every block of
    ``blocks``, and that point, or None.  This is the direct solve: no lift
    involved."""
    q, points = integer_points(config.points)
    members = set(config.mu)
    result = lp_solve(_presentation_program(q, points, members, blocks))
    if result.status != FEASIBLE:
        return None
    flat = [i for block in blocks for i in block]
    # A marked vertex's variable is its coefficient's negation.
    signed = [-y if i in members else y for i, y in zip(flat, result.point)]
    coefficients = dict(zip(flat, signed))
    b = tuple(
        sum((c * config.points[i][m] for i, c in zip(blocks[0], signed) if c), ZERO)
        for m in range(config.d)
    )
    return coefficients, b


def _presentation_program(
    q: int, points: Sequence[Sequence[int]], members: set[int], blocks: Blocks
) -> LinearProgram:
    """The oracle's program for ``blocks`` on integer points ``P = q * p``.

    One variable ``y_i >= 0`` per vertex of ``blocks``, in block order: the
    coefficient ``x_i = y_i`` of an unmarked vertex, and ``x_i = -y_i`` of a
    marked one (in ``members``), so a marked vertex's column is negated.
    The rows are ``q * sum(x_i : i in B_j) = q`` for each block ``j``, then
    for each block ``j >= 1`` and axis ``m``, ``sum(P_i[m] x_i : i in B_0) -
    sum(P_i[m] x_i : i in B_j) = 0``: every block presents block 0's point,
    so the point needs no variables of its own.  Every row is the rational
    program's row times ``q``, all ``int``s.
    """
    flat = [i for block in blocks for i in block]
    nvar = len(flat)
    signs = [-1 if i in members else 1 for i in flat]
    offsets = [0]
    for block in blocks:
        offsets.append(offsets[-1] + len(block))
    cons = []
    for j in range(len(blocks)):
        coeffs = [0] * nvar
        for t in range(offsets[j], offsets[j + 1]):
            coeffs[t] = signs[t] * q
        cons.append(Constraint(tuple(coeffs), q))
    for j in range(1, len(blocks)):
        for m in range(len(points[0])):
            coeffs = [0] * nvar
            for t, i in enumerate(blocks[0]):
                coeffs[t] = signs[t] * points[i][m]
            for t, i in enumerate(blocks[j], offsets[j]):
                coeffs[t] = -signs[t] * points[i][m]
            cons.append(Constraint(tuple(coeffs), 0))
    return LinearProgram(nvar, tuple(cons))
