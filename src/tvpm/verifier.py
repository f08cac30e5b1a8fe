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
first bounds, on each direction of a list it builds from the points
(``_directions``: the coordinate axes and the in-plane normals of the point
differences), the interval of values each block can present with its signs
(an interval can be unbounded), and drops a partition whose intervals miss
without posing its program (``_intervals_miss``).  The test reads a
direction only through the order and ties of the points on it, and reads a
reversed direction alike, so the list is kept as built: a zero direction
drops nothing, and a repeated or reversed one drops what its twin drops.
The points' order on every direction is packed into one bitmask per point
(``_gap_masks``), so each block's interval ends on all directions are two
integers, built once per block, and a partition costs one OR per block and
one AND; every partition the test keeps has its program go to the simplex,
posed from the points themselves.

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
from itertools import combinations
from operator import mul
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
    0.  A partition with a block that presents nothing, or two blocks whose
    signed intervals miss on one of ``_directions`` (the coordinate axes
    and the in-plane normals of the point differences), has an infeasible
    program, so it is dropped before the program is built
    (``_intervals_miss``, one AND of bitmasks per partition).  In ``d = 2``
    the test drops exactly the partitions with a block that presents
    nothing or two blocks that present no common point.  Returns the
    partitions in canonical enumeration order.
    """
    validate_configuration(config)
    q, points = integer_points(config.points)
    masks = _gap_masks(points, _directions(points))
    members = set(config.mu)
    ends: dict[tuple[int, ...], tuple[int, ...]] = {}
    found = []
    for blocks in enumerate_partitions(len(config.points), config.r, config.coloring):
        if _intervals_miss(masks, members, blocks, ends):
            continue
        program = _presentation_program(q, points, members, blocks)
        if lp_solve(program).status == FEASIBLE:
            found.append(blocks)
    return found


def _directions(points: Sequence[Sequence[int]]) -> list[list[int]]:
    """The integer directions ``_intervals_miss`` tries on ``points``.

    The coordinate axes; then, for each pair of axes ``a < b`` and each
    pair of points ``s < t``, the normal of ``P_t - P_s`` in the plane of
    those axes, ``P_s[b] - P_t[b]`` on axis ``a`` and ``P_t[a] - P_s[a]``
    on axis ``b``.  They are taken as they come: a zero direction gives
    every point one value, where no two intervals miss, and a repeated,
    reversed or rescaled direction orders the points as its twin does, up
    to reversal, so its intervals miss exactly when its twin's do.

    In ``d = 2`` these make the interval test exact for two blocks: a
    block's signed presentations are the polyhedron ``conv(U) + cone(U -
    V)`` of its unmarked points ``U`` and marked points ``V``, whose edges
    and rays are parallel to differences of points, and so is every edge
    of the difference of two such polyhedra.  When two blocks present no
    common point, 0 lies outside that closed difference: strictly beyond
    the line of one of its edges, whose normal is here, or, when the
    difference is a point, a segment or a ray, off it along that line's
    normal or a coordinate axis.  On that direction the two blocks'
    intervals miss.

    In any ``d`` a direction in the plane of two axes, ``e_a + e_b`` say,
    would drop nothing more: where the blocks' intervals miss on it, two
    blocks miss there (Helly in one dimension), so their presentations
    projected onto that plane miss, and the argument above, on the
    projected points, finds a direction here on which they miss.
    """
    d = len(points[0])
    directions = [[int(m == a) for m in range(d)] for a in range(d)]
    for a, b in combinations(range(d), 2):
        for ps, pt in combinations(points, 2):
            v = [0] * d
            v[a], v[b] = ps[b] - pt[b], pt[a] - ps[a]
            directions.append(v)
    return directions


def _gap_masks(
    points: Sequence[Sequence[int]], directions: Sequence[Sequence[int]]
) -> tuple[list[int], list[int], int]:
    """Each point's place on each direction, as bitmasks over the gaps.

    On one direction, the distinct values of the points, in increasing
    order, leave one gap between each two consecutive values, at most
    ``n - 1`` for ``n`` points.  Direction ``k`` has the lane of ``n`` bits
    from bit ``k * n``: one bit per gap, lowest gap first, and above them a
    guard bit that no mask sets.  Returns ``(lt, ge, full)``: ``lt[i]`` has
    the bits of the gaps below point ``i``'s value on every direction,
    ``ge[i]`` every other bit but the guards, and ``full`` every bit but the
    guards.  Points that tie on a direction get the same bits there.
    """
    n = len(points)
    lt = [0] * n
    full = 0
    for k, direction in enumerate(directions):
        values = [sum(map(mul, direction, p)) for p in points]
        rank = {v: j for j, v in enumerate(sorted(set(values)))}
        for i, v in enumerate(values):
            lt[i] |= ((1 << rank[v]) - 1) << (k * n)
        full |= ((1 << (n - 1)) - 1) << (k * n)
    return lt, [full ^ below for below in lt], full


def _block_ends(
    masks: tuple[list[int], list[int], int],
    members: set[int],
    block: tuple[int, ...],
) -> tuple[int, ...]:
    """The low and high ends of the interval ``block`` presents on every
    direction of ``masks`` (``_gap_masks``), as ``(low, high)`` bitmasks,
    or ``()`` when it presents nothing.

    ``low`` has the gaps below the low end and ``high`` the bits above the
    high end, so an unbounded end has no bits in its direction's lane.  On
    one direction, with ``umin``, ``umax`` the least and greatest unmarked
    values and ``vmin``, ``vmax`` the marked ones (``_intervals_miss``):
    the AND of the unmarked points' ``lt`` is the gaps below ``umin``, and
    of their ``ge`` the bits above ``umax``.  The OR of the unmarked
    points' ``ge`` and of the marked points' ``lt`` share a gap exactly
    when ``umin < vmax``, where the low end is ``-inf``; likewise the OR of
    the marked ``ge`` and the unmarked ``lt`` share one exactly when
    ``vmin < umax``, where the high end is ``+inf``; ``_whole_lanes``
    widens each to the lanes to clear.
    """
    lt, ge, full = masks
    unmarked = [i for i in block if i not in members]
    if not unmarked:
        return ()
    low, high = full, full
    above_umin = below_umax = 0
    for i in unmarked:
        low &= lt[i]
        high &= ge[i]
        above_umin |= ge[i]
        below_umax |= lt[i]
    if len(unmarked) < len(block):
        below_vmax = above_vmin = 0
        for i in block:
            if i in members:
                below_vmax |= lt[i]
                above_vmin |= ge[i]
        width = len(lt) - 1
        low &= ~_whole_lanes(above_umin & below_vmax, full, width)
        high &= ~_whole_lanes(above_vmin & below_umax, full, width)
    return low, high


def _whole_lanes(x: int, full: int, width: int) -> int:
    """The gap bits of every lane in which ``x`` has a bit.

    Each lane of ``full`` (``_gap_masks``) is ``width`` gap bits, all set,
    under a clear guard bit.  Adding ``full`` to ``x``, which has no guard
    bits, carries into a lane's guard exactly when ``x`` has a bit in that
    lane, and never past the guard; each such guard, less itself shifted
    down by ``width``, is its lane's gap bits.
    """
    guards = (x + full) & ~full
    return guards - (guards >> width)


def _intervals_miss(
    masks: tuple[list[int], list[int], int],
    members: set[int],
    blocks: Blocks,
    ends: dict[tuple[int, ...], tuple[int, ...]],
) -> bool:
    """True when a linear functional proves that ``blocks`` have no signed
    presentation of a common point, so their program is infeasible.

    ``masks`` (``_gap_masks``) orders the points' values on a fixed list of
    linear functionals of ``P = q * p``; the oracle passes ``_directions``.
    A block's signed weights present on a functional the same combination
    of their points' values, since the functional is linear, so the rule
    below holds on each.  On one functional, let a block's unmarked values
    span ``[umin, umax]`` and its marked values ``[vmin, vmax]``.  Weights
    that sum to 1, ``>= 0`` on unmarked and ``<= 0`` on marked vertices,
    present ``(1 + T) * u - T * v``, where ``T >= 0`` is the marked
    weights' magnitude, ``u`` a convex combination of unmarked values and
    ``v`` one of marked values.  The weights form a convex set and the
    value is linear in them, so the block presents an interval, closed
    where it is finite.  Its low end is ``umin`` (at ``T = 0``) when the
    block has no marked vertex or ``umin >= vmax``, and ``-inf`` otherwise
    (``u = umin``, ``v = vmax``, ``T`` growing); likewise its high end is
    ``umax`` when the block has no marked vertex or ``umax <= vmin``, and
    ``+inf`` otherwise.  A block without an unmarked vertex presents
    nothing, as weights ``<= 0`` do not sum to 1.  The common point's value
    lies in every block's interval on every functional, so there is none
    when some block presents nothing or, on some functional, the largest
    low end exceeds the smallest high end.

    Each block's ends are one pair of bitmasks (``_block_ends``): ``low``
    has the gaps below its low end, ``high`` the bits above its high end.
    ``low_i & high_j`` has a bit exactly when, on that bit's functional, a
    gap lies below block ``i``'s low end and above block ``j``'s high end,
    that is when block ``i``'s low end exceeds block ``j``'s high end; a
    block's own ``low & high`` is 0, as its low end does not exceed its
    high end.  So the OR of the blocks' ``low`` ANDed with the OR of their
    ``high``, which is the OR of ``low_i & high_j`` over all pairs, is
    nonzero exactly when, on some functional, the largest low end exceeds
    the smallest high end.

    ``ends`` keeps each block's ``_block_ends`` for one listing.
    """
    lows = highs = 0
    for block in blocks:
        block_ends = ends.get(block)
        if block_ends is None:
            block_ends = ends[block] = _block_ends(masks, members, block)
        if not block_ends:
            return True
        lows |= block_ends[0]
        highs |= block_ends[1]
    return bool(lows & highs)


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
