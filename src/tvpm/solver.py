"""Partition enumeration and exact Tverberg search.

Partitions are enumerated in a fixed canonical order: each block lists its
vertices ascending, blocks are sorted by least vertex, and the sequence of
partitions is lexicographic on that nested-tuple form.  The search returns
the first enumerated partition whose blocks' convex hulls share a point, so
results are deterministic.

The search (``_first_hit``) runs on integer vectors ``H_t`` with weights
``N_t > 0``, the point ``H_t / N_t`` standing for point ``t``.
``tverberg_partition`` gives it ``H = P = q * p`` (``integer_points``) and
``N = q``; the plus-minus pipeline gives it the lift in homogeneous integer
coordinates (``separation``), where ``H_t / N_t`` is the lifted point.  The
LP of a partition (``_hulls_program``) asks for ``x >= 0`` with block 0's
weighted sum ``sum(N_t x_t)`` a fixed positive total and every block's
``sum(H_t x_t)`` equal: ``N_t x_t / total`` are then convex weights of the
points ``H_t / N_t`` with one common point.  Each column is a positive
multiple of the rational program's column, so the kernel, which divides
every column to a primitive one, pivots as it would on the rationals.

Hulls can only meet where the blocks' bounding boxes do, so the search walks
a box-pruned enumeration (``enumerate_partitions`` given the points) and asks
the exact LP only about partitions whose boxes meet.  A box here is taken on
axes, each a value per point.  As blocks are fixed the walk keeps a running
box, per axis ``lo`` = the largest block minimum and ``hi`` = the smallest
block maximum, and drops a block's whole subtree when, on some axis,

    max(lo, left[k-1]) > min(hi, left[-k])

with ``left`` the sorted values of the vertices left over and ``k`` the
number of blocks still to come: no single value in ``[lo, hi]`` has ``k``
leftover vertices at or below it and ``k`` at or above it.  The cut is
necessary.  The final box's ``lo`` lies in the running box, and each block
to come has a vertex at or below it (its minimum) and one at or above it
(its maximum, at least the final ``hi``).  With ``k = 1`` the leftover
vertices are the last block and the cut is the full box test on the
complete partition, so every partition listed has boxes that meet on every
axis.

Any linear function ``f`` of the points is a valid axis: if the blocks'
hulls share a point ``x``, then ``f(x)``, a convex combination of ``f`` at
each block's points, lies between that block's least and greatest value of
``f``, so the boxes on ``f`` meet at ``f(x)``.  The search's axes
(``_walk_keys``) are the coordinates ``H_t[m] / N_t`` and the sum and the
difference of every pair of them, ``D + D(D-1)`` axes for points of length
``D``, a box with ``2D^2`` faces (a k-DOP, as bounding volumes in collision
detection use them: Klosowski, Held, Mitchell, Sowizral and Zikan, IEEE
TVCG 4(1), 1998).  All are integers over one common multiple of the
weights, so order and ties are the rationals'.  The LP thus sees, in
canonical order, the partitions whose boxes meet on every axis, and the
walk drops no partition whose hulls meet: the same first hit, the same
Bland pivots, the same certificate bytes as a search over every partition.

The walk holds blocks and pools as point bitmasks (``_axes``).  On each axis
the points are numbered in order of their values, so a block's least and
greatest value sit at its lowest and highest set bit, and ``left[k-1]`` and
``left[-k]`` at the lowest and highest set bit of the leftover mask once
``k - 1`` of its bits are cleared from that end.  Appending a vertex to a
block is one OR per axis; a block gets a tuple only once it passes the cut,
and a block too large to leave a vertex for each block to come is never
built.  Nor is any block grown from one whose leftover vertices already
fail the cut against the running box from before it: growing a block only
raises ``left[k-1]`` and lowers ``left[-k]``.  Without points the walk has
no axes and does no axis work.

The lift puts every point on the hyperplane ``<x, (w, -alpha)> = 1``, and
its weights are linear in its vectors: ``N_t = <H_t, v>`` for one ``v``.
Then block ``j``'s sum row follows from block 0's and block ``j``'s
coupling rows, so the search decides once, exactly, whether its columns
are homogeneous in that sense (``_dependences``), and if they are its
programs keep block 0's sum row alone: ``1 + (r-1)D`` rows instead of ``r +
(r-1)D`` on vectors of length ``D``.  Other points, such as a flat count on
a line through the origin, get every row.  The rows dropped are implied,
so every verdict stays.  Bland's rule follows the rows it is given, so a
feasible program's point, and with it the certificate's bytes, can differ
only where the program has more than one feasible point; an infeasible
program's multipliers read 0 on each dropped row (``_refuter``).

With two blocks the ``d + 2`` columns ``(H_t, N_t)`` of a lift have, when
the points affinely span ``R^d``, a single linear dependence ``lambda``
(Radon 1921), and it names the answer: this is the plus-minus Radon case
of Barany and Soberon (Tverberg plus minus, 2018).  A point ``x`` of the
program on ``(B_0, B_1)`` makes ``eps_t * x_t`` a dependence, with ``eps =
+1`` on block 0 and ``-1`` on block 1 (the coupling rows give the ``H``
part; the sum rows, or the homogeneity, the ``N`` part), nonzero on block 0
since its weighted sum is positive.  So the program has a point exactly
when ``eps * lambda`` has one sign, and that point is its only one, a
multiple of ``eps * lambda``.  Both signs occur in ``lambda`` since the
weights are positive, so block 0 must hold one sign class whole and none of
the other; the first such block in canonical order takes the class of
``lambda``'s first nonzero entry and every zero of ``lambda`` below that
class's last index.  The box cut drops no partition whose hulls meet, and
with two blocks color classes have one vertex, so every partition is
rainbow: this is the walk's first hit and its LP's point.  The search
computes ``lambda`` once, by the same fraction-free elimination that
decides homogeneity, and returns that hit without a walk or an LP, after
one exact check against its program.  Inputs whose dependences span two or
more dimensions (repeated, coincident or collinear points) walk as above,
with one LP per listed partition.

An infeasible LP also proves more than its own partition's failure.  Its
Farkas multipliers (``LpResult.multipliers``) give one affine function
``h_j`` per block, ``>= 0`` on that block's points, the ``r`` of them adding
up to a negative constant (``_refuter``).  Any later partition whose blocks
each lie in the ``h >= 0`` region of a different one of these functions has
no common point either, since the functions would all be ``>= 0`` there.
The search keeps one bitmask per point and certificate (bit ``j`` set where
``h_j >= 0``) and skips, without an LP, each listed partition that a kept
certificate refutes (``_refutes``: a matching of blocks to functions over at
most ``r`` bitmasks).  A certificate enters the cache only after it has
been checked to refute its own partition.  A feasible partition is never
refuted and the order is unchanged, so the first hit and its bytes stay the
same.  With two blocks the regions ``h_0 >= 0`` and ``h_1 >= 0`` are
disjoint, so a certificate refutes only its own partition, which the walk
never lists again: two-block walks keep no certificate.

The search returns its first hit as the LP, or the dependence, gives it.
The pipeline checks the certificate it pulls back from that hit with
``verify_certificate``, the solve's one post-condition.
``validate_partition`` checks a partition by itself; nothing in the solve
calls it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, combinations
from math import lcm
from typing import Iterator, Optional, Sequence, Union

from .errors import InternalError
from .linalg import ZERO, Point
from .lp import FEASIBLE, Constraint, LinearProgram, integer_points, lp_solve, satisfies
from .model import TverbergPartition, is_prime

Blocks = tuple[tuple[int, ...], ...]
# Per axis, the running box (lo, hi) in the walk's coordinates.
_Box = list[tuple[int, int]]


def enumerate_partitions(
    n_points: int,
    r: int,
    coloring: Optional[Sequence[Sequence[int]]] = None,
    points: Optional[Sequence[Sequence]] = None,
) -> Iterator[Blocks]:
    """All partitions of 0..n_points-1 into exactly r nonempty blocks.

    With a coloring, which must put every index in exactly one class, only
    partitions whose blocks repeat no color survive (at most one vertex of
    each class per block).  With ``points`` (one coordinate tuple per index,
    all of one length, in any ordered numbers), only partitions whose
    blocks' bounding boxes share a point survive: a subtree is dropped as
    soon as no completion of the blocks fixed so far can have meeting boxes
    (see the module docstring).  Survivors keep their canonical order either
    way.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if n_points < r:
        raise ValueError(f"cannot split {n_points} points into {r} nonempty blocks")
    # Each vertex's color as one bit; all 0 without a coloring.
    colors = [0] * n_points
    if coloring is not None:
        color_of = _color_of(coloring, n_points)
        colors = [1 << color_of[v] for v in range(n_points)]
    # Without points there are no axes, and the walk does no axis work.
    bits: list[list[int]] = [[] for _ in range(n_points)]
    keys: list[tuple] = []
    if points is not None:
        if len(points) != n_points:
            raise ValueError(f"got {len(points)} points for {n_points} indices")
        if len({len(p) for p in points}) > 1:
            raise ValueError("points have unequal lengths")
        bits, keys = _axes(points)

    yield from _walk(
        _Listing(keys, bits, colors, coloring is not None),
        list(range(n_points)),
        [(1 << n_points) - 1] * len(keys),
        r,
        [(values[1], values[-1]) for values in keys],
    )


# What every node of one listing shares: the keys and point bits of
# ``_axes``, each vertex's color bit, and whether there is a coloring.  The
# walk's generators are module functions that take it as an argument, so
# that no closure refers to itself and a finished walk leaves no reference
# cycle for the garbage collector.
_Listing = namedtuple("_Listing", "keys bits colors colored")


def _walk(
    listing: _Listing, pool: list[int], masks: list[int], k: int, box: _Box
) -> Iterator[Blocks]:
    """The partitions of ``pool`` into ``k`` blocks whose boxes meet inside
    ``box``; ``masks`` holds the pool's bits on each axis."""
    if k == 1:
        if not listing.colored or _rainbow(pool, listing.colors):
            yield (tuple(pool),)
        return
    first = pool[0]
    held = listing.bits[first]
    used = listing.colors[first]
    yield from _grow(listing, pool, masks, k, box, [first], 1, held, used)


def _grow(
    listing: _Listing,
    pool: list[int],
    masks: list[int],
    k: int,
    box: _Box,
    block: list[int],
    start: int,
    held: list[int],
    used: int,
) -> Iterator[Blocks]:
    """The partitions that ``_walk`` lists whose first block is ``block``
    (its bits ``held`` on each axis, its color bits ``used``), or ``block``
    grown by vertices of pool[start:]."""
    keys, bits, colors, _ = listing
    narrowed = _narrow(keys, held, masks, box, k - 1) if keys else box
    if narrowed is False:
        # No block grown from this one passes the cut either.
        return
    if narrowed is not None:
        head = tuple(block)
        rest = [v for v in pool if v not in block]
        left = [m ^ h for m, h in zip(masks, held)]
        for tail in _walk(listing, rest, left, k - 1, narrowed):
            yield (head,) + tail
    # The largest block leaves a vertex for each block to come.
    if len(block) == len(pool) - k + 1:
        return
    for t in range(start, len(pool)):
        v = pool[t]
        if used & colors[v]:
            continue
        block.append(v)
        grown = [h | b for h, b in zip(held, bits[v])] if keys else held
        yield from _grow(
            listing, pool, masks, k, box, block, t + 1, grown, used | colors[v]
        )
        block.pop()


def _axes(points: Sequence[Sequence]) -> tuple[list[list[int]], list[tuple]]:
    """Per point, its bit on each axis; per axis, the keys in bit order.

    On each axis the points are sorted by key, ties by index, and the point
    in position ``p`` gets bit ``1 << p``.  ``keys[a][p + 1]`` is its key,
    so a mask ``m``'s least and greatest keys on axis ``a`` are
    ``keys[a][(m & -m).bit_length()]`` and ``keys[a][m.bit_length()]``
    (entry 0 is never read).
    """
    bits: list[list[int]] = [[] for _ in points]
    keys = []
    for column in zip(*points):
        order = sorted(range(len(column)), key=column.__getitem__)
        for p, v in enumerate(order):
            bits[v].append(1 << p)
        keys.append((None, *(column[v] for v in order)))
    return bits, keys


def _color_of(coloring: Sequence[Sequence[int]], n_points: int) -> dict[int, int]:
    """Each index's class; ValueError unless every index 0..n_points-1 is in
    exactly one class."""
    color_of: dict[int, int] = {}
    for ci, cls in enumerate(coloring):
        for v in cls:
            if v in color_of:
                raise ValueError(
                    f"vertex {v} is in color classes {color_of[v]} and {ci}"
                )
            color_of[v] = ci
    if sorted(color_of) != list(range(n_points)):
        raise ValueError(
            f"color classes must cover exactly the indices 0..{n_points - 1}"
        )
    return color_of


def _narrow(
    keys: Sequence[Sequence],
    block: Sequence[int],
    pool: Sequence[int],
    box: _Box,
    k: int,
) -> Union[_Box, None, bool]:
    """The running box cut down to the box of ``block``; None when the ``k``
    blocks still to come out of the rest of ``pool`` cannot all meet it, and
    False when they cannot for any block that contains ``block`` either.

    The cut: on some axis no value in the box has ``k`` leftover keys at or
    below it and ``k`` at or above it, ``max(lo, left[k-1]) > min(hi,
    left[-k])``.  Growing the block only raises ``lo`` and ``left[k-1]`` and
    lowers ``hi`` and ``left[-k]``, so once the cut holds against the box
    before the block it holds for every block grown from this one (False).

    ``block`` and ``pool`` are bitmasks per axis (``_axes``), the block's
    bits inside the pool's.  The leftover keys in ascending order are the
    set bits of ``pool ^ block`` from the lowest up, so ``left[k-1]`` is the
    lowest bit once the ``k - 1`` lowest are cleared, and ``left[-k]``
    likewise from the top.
    """
    narrowed = []
    for values, held, left, (lo, hi) in zip(keys, block, pool, box):
        low_bits = high_bits = left ^ held
        if k > 1:
            for _ in range(k - 1):
                low_bits &= low_bits - 1
                high_bits ^= 1 << (high_bits.bit_length() - 1)
        low = values[(low_bits & -low_bits).bit_length()]
        high = values[high_bits.bit_length()]
        if low > high or low > hi or lo > high:
            return False
        least = values[(held & -held).bit_length()]
        if least > lo:
            lo = least
        greatest = values[held.bit_length()]
        if greatest < hi:
            hi = greatest
        if lo > hi or lo > high or low > hi:
            return None
        narrowed.append((lo, hi))
    return narrowed


def _rainbow(block: Sequence[int], colors: Sequence[int]) -> bool:
    """Whether no two vertices of ``block`` share a color bit."""
    used = 0
    for v in block:
        if used & colors[v]:
            return False
        used |= colors[v]
    return True


def hulls_intersect(
    point_blocks: Sequence[Sequence[Point]],
) -> Optional[tuple[tuple[Fraction, ...], list[list[Fraction]]]]:
    """A common point of the blocks' convex hulls, or None.

    Returns (witness, per-block convex coefficients).  Deterministic: the
    underlying program is built in block order and solved with Bland's rule.
    The LP alone decides; the search's box test runs in its partition walk.
    """
    blocks = [list(b) for b in point_blocks]
    if not blocks or any(not b for b in blocks):
        raise ValueError("every block needs at least one point")
    if len({len(p) for blk in blocks for p in blk}) > 1:
        raise ValueError("points have unequal lengths")
    q, points = integer_points(p for blk in blocks for p in blk)
    starts = [0, *accumulate(len(b) for b in blocks)]
    indices = tuple(tuple(range(a, b)) for a, b in zip(starts, starts[1:]))
    result = lp_solve(_hulls_program(q, points, [q] * len(points), indices))
    if result.status != FEASIBLE:
        return None
    return _meeting_point(blocks, result.point)


def _hulls_program(
    total: int,
    vectors: Sequence[Sequence[int]],
    weights: Sequence[int],
    blocks: Blocks,
    homogeneous: bool = False,
) -> LinearProgram:
    """The program of ``blocks`` (tuples of indices into ``vectors``) on the
    vectors ``H_t`` with weights ``N_t > 0``.

    One variable ``x_t >= 0`` per point, in block order; then the rows
    ``sum(N_t x_t : t in B_j) = total``, one per block ``j``, and for each
    block ``j >= 1`` and axis ``m``, ``sum(H_t[m] x_t : t in B_0) -
    sum(H_t[m] x_t : t in B_j) = 0``.  It has a point exactly when the
    blocks' hulls of the points ``H_t / N_t`` meet: ``N_t x_t / total`` are
    the convex weights.  ``hulls_intersect`` and ``tverberg_partition`` use
    the integer points ``P = q * p`` with ``N_t = total = q``, the rational
    program times ``q``; the plus-minus search uses the lift's vectors and
    weights (``separation``), whose columns are positive multiples of
    those.

    With ``homogeneous`` (every weight is ``<H_t, v>`` for one ``v``,
    ``_dependences``) only block 0's sum row is written: ``v`` applied to
    block ``j``'s coupling rows gives ``sum(N_t x_t : t in B_0) = sum(N_t
    x_t : t in B_j)``, so block 0's row implies block ``j``'s.
    """
    dim = len(vectors[0])
    starts = [0, *accumulate(len(b) for b in blocks)]
    nvar = starts[-1]
    cons = []
    for j in range(1 if homogeneous else len(blocks)):
        coeffs = [0] * nvar
        for t, i in enumerate(blocks[j], starts[j]):
            coeffs[t] = weights[i]
        cons.append(Constraint(tuple(coeffs), total))
    for j in range(1, len(blocks)):
        for m in range(dim):
            coeffs = [0] * nvar
            for t, i in enumerate(blocks[0]):
                coeffs[t] = vectors[i][m]
            for t, i in enumerate(blocks[j], starts[j]):
                coeffs[t] = -vectors[i][m]
            cons.append(Constraint(tuple(coeffs), 0))
    return LinearProgram(nvar, tuple(cons))


def _meeting_point(
    blocks: Sequence[Sequence[Point]], point: Sequence[Fraction]
) -> tuple[tuple[Fraction, ...], list[list[Fraction]]]:
    """The witness and per-block coefficients of a feasible point of
    ``_hulls_program`` built on ``blocks`` with ``N_t = total``."""
    per_block = []
    start = 0
    for blk in blocks:
        per_block.append(list(point[start : start + len(blk)]))
        start += len(blk)
    witness = tuple(
        sum((c * p[m] for c, p in zip(per_block[0], blocks[0]) if c), ZERO)
        for m in range(len(blocks[0][0]))
    )
    return witness, per_block


def _refuter(
    weights: Sequence[int],
    vectors: Sequence[Sequence[int]],
    blocks: Blocks,
    multipliers: Optional[Sequence[int]],
    homogeneous: bool = False,
) -> list[int]:
    """Per point, the bitmask of the Farkas functions that are ``>= 0`` on it.

    ``multipliers`` certify that ``_hulls_program`` on ``blocks`` (with the
    same ``homogeneous``) is infeasible: sum-row multipliers ``s_j`` and
    coupling-row multipliers ``u_j`` (``j >= 1``) with ``y . A_t <= 0`` on
    every column and ``y . b = total * sum(s_j) > 0``.  A homogeneous
    program has no sum row for ``j >= 1``, and ``s_j = 0`` there: the same
    ``y`` with those zeros certifies the full program.  A column of block 0
    reads ``N*s_0 + sum_j <u_j, H>`` and one of block ``j`` reads ``N*s_j -
    <u_j, H>``, so divided by ``N > 0`` they are, at the point ``x = H /
    N``, the affine functions

        h_0(x) = -(s_0 + sum_j <u_j, x>),    h_j(x) = -(s_j - <u_j, x>),

    ``>= 0`` on their own block's points and adding up to the constant
    ``-sum(s_j) < 0``.  Bit ``j`` of point ``i``'s mask is set iff
    ``h_j(H_i / N_i) >= 0``, read off the column without dividing.  Raises
    InternalError unless the certificate refutes the partition it came
    from.
    """
    r = len(blocks)
    dim = len(vectors[0])
    sums = 1 if homogeneous else r
    if multipliers is None or len(multipliers) != sums + (r - 1) * dim:
        raise InternalError("infeasible search LP came without its multipliers")
    s = list(multipliers[:sums]) + [0] * (r - sums)
    u = [multipliers[sums + (j - 1) * dim : sums + j * dim] for j in range(1, r)]
    if sum(s) <= 0:
        raise InternalError("search LP multipliers do not sum to a positive bound")
    masks = []
    for h, n in zip(vectors, weights):
        dots = [sum(a * c for a, c in zip(uj, h) if a) for uj in u]
        values = [-(n * s[0] + sum(dots))]
        values += [dot - n * sj for sj, dot in zip(s[1:], dots)]
        masks.append(sum(1 << j for j, v in enumerate(values) if v >= 0))
    for j, block in enumerate(blocks):
        if any(not masks[i] >> j & 1 for i in block):
            raise InternalError(
                "search LP multipliers do not refute their own partition"
            )
    return masks


def _refutes(masks: Sequence[int], blocks: Blocks) -> bool:
    """Whether the Farkas functions behind ``masks`` refute ``blocks``: each
    block can take a function of its own that is ``>= 0`` on all its points.

    A common point ``x`` of the blocks' hulls would then make every function
    ``>= 0`` at ``x``, yet they sum to a negative constant.
    """
    allowed = []
    for block in blocks:
        mask = -1
        for i in block:
            mask &= masks[i]
        if not mask:
            return False
        allowed.append(mask)
    return _assignable(allowed, 0)


def _assignable(allowed: Sequence[int], used: int) -> bool:
    """Whether each entry of ``allowed`` can keep one set bit, no bit twice,
    none of them in ``used``."""
    if not allowed:
        return True
    options = allowed[0] & ~used
    while options:
        bit = options & -options
        if _assignable(allowed[1:], used | bit):
            return True
        options ^= bit
    return False


def tverberg_partition(
    points: Sequence[Point],
    r: int,
    coloring: Optional[Sequence[Sequence[int]]] = None,
) -> TverbergPartition:
    """First partition in canonical order whose r blocks' hulls intersect.

    The point count must fit r blocks: (r-1)*(dim+1)+1 points spanning the
    ambient space, or (r-1)*dim+1 points lying on a hyperplane of it (the
    shape produced by the projective lift).  With a coloring only rainbow
    partitions count; it requires prime r and color classes of at most
    r - 1 vertices each.
    """
    pts = tuple(tuple(p) for p in points)
    if coloring is not None:
        if not is_prime(r):
            raise ValueError(f"rainbow search requires prime r, got {r}")
        for ci, cls in enumerate(coloring):
            if len(cls) > r - 1:
                raise ValueError(f"color class {ci} exceeds r-1 = {r - 1} vertices")
    dim = len(pts[0]) if pts else 0
    full = (r - 1) * (dim + 1) + 1
    flat = (r - 1) * dim + 1
    if len(pts) not in (full, flat):
        raise ValueError(
            f"need {full} points (or {flat} on a hyperplane) for r={r} "
            f"in dimension {dim}, got {len(pts)}"
        )
    # A two-block search may list no partition, so check what its walk would.
    if coloring is not None:
        _color_of(coloring, len(pts))
    if len({len(p) for p in pts}) > 1:
        raise ValueError("points have unequal lengths")
    # Every partition covers all the points, so one scaling serves them all:
    # each program is the one ``hulls_intersect`` would build, less the sum
    # rows homogeneous points imply.
    q, ints = integer_points(pts)
    blocks, point = _first_hit(ints, [q] * len(ints), q, r, coloring)
    witness, per_block = _meeting_point(
        [[pts[i] for i in block] for block in blocks], point
    )
    coefficients = {
        i: c for block, cs in zip(blocks, per_block) for i, c in zip(block, cs)
    }
    return TverbergPartition(blocks, coefficients, witness)


def _first_hit(
    vectors: Sequence[Sequence[int]],
    weights: Sequence[int],
    total: int,
    r: int,
    coloring: Optional[Sequence[Sequence[int]]] = None,
) -> tuple[Blocks, tuple[Fraction, ...]]:
    """The first listed partition of the points ``H_t / N_t`` whose hulls
    meet, and the point of its ``_hulls_program``.

    The search of ``tverberg_partition`` and of the plus-minus pipeline:
    the two-block Radon hit where there is one dependence, else the
    box-pruned walk on the points' coordinates and their pairwise sums and
    differences, the Farkas cache and one LP per partition left.  It calls
    ``enumerate_partitions`` and ``lp_solve`` through this module's globals,
    which the benchmark's tracer wraps.
    """
    homogeneous, dependence = _dependences(vectors, weights, r)
    if dependence is not None:
        # The Radon hit (module docstring): block 0 takes the sign class of
        # lambda's first nonzero entry and every zero below its last index.
        lead = next(v for v in dependence if v)
        last = max(t for t, v in enumerate(dependence) if v * lead > 0)
        first = tuple(t for t in range(last + 1) if dependence[t] * lead >= 0)
        blocks = (first, tuple(t for t in range(len(vectors)) if t not in first))
        norm = sum(weights[t] * abs(dependence[t]) for t in first)
        point = tuple(
            Fraction(abs(dependence[t]) * total, norm) for b in blocks for t in b
        )
        program = _hulls_program(total, vectors, weights, blocks, homogeneous)
        if not satisfies(program, point):
            raise InternalError("the Radon point fails its partition's program")
        return blocks, point
    keys = _walk_keys(vectors, weights)
    refuters: list[list[int]] = []
    for blocks in enumerate_partitions(len(vectors), r, coloring, keys):
        # Newest first: partitions close in the canonical order share
        # blocks, so a recent certificate is the likeliest to refute.
        if any(_refutes(masks, blocks) for masks in reversed(refuters)):
            continue
        program = _hulls_program(total, vectors, weights, blocks, homogeneous)
        result = lp_solve(program)
        if result.status == FEASIBLE:
            return blocks, result.point
        # Two-block certificates refute only their own partition.
        if r > 2:
            refuters.append(
                _refuter(weights, vectors, blocks, result.multipliers, homogeneous)
            )
    raise InternalError(
        "partition search exhausted although a partition must exist"
    )


def _walk_keys(
    vectors: Sequence[Sequence[int]], weights: Sequence[int]
) -> list[list[int]]:
    """The search walk's axes at the points ``H_t / N_t``: the coordinates,
    then the sum and then the difference of every pair of coordinates ``a <
    b``, each an integer over one common multiple of the weights, so that
    order and ties are the rationals'.  Every axis is a linear function of
    the points, so the walk's cut on it drops no partition whose hulls meet
    (module docstring)."""
    common = lcm(*weights)
    keys = []
    for vector, weight in zip(vectors, weights):
        key = [h * (common // weight) for h in vector]
        pairs = list(combinations(key, 2))
        keys.append(key + [a + b for a, b in pairs] + [a - b for a, b in pairs])
    return keys


def _dependences(
    vectors: Sequence[Sequence[int]], weights: Sequence[int], r: int
) -> tuple[bool, Optional[list[int]]]:
    """``(homogeneous, dependence)`` for the columns ``(H_t, N_t)``.

    ``homogeneous`` says whether some ``v`` has ``<H_t, v> = N_t`` for every
    column: whether the weights lie in the vectors' column space.
    ``dependence`` is None unless ``r == 2`` and the columns have a
    one-dimensional space of linear dependences, ``sum_t lambda_t * (H_t,
    N_t) = 0``; it is then an integer generator ``lambda``.

    Both come from one elimination (``_leftover_rows``) on the rows ``(H_t,
    N_t)``, followed for two blocks by the unit vector ``e_t``.  The rows
    left over once the axes of ``H`` are cleared are 0 there, so ``v``
    exists exactly when their ``N`` entries are 0 too.  Once ``N`` is
    cleared as well, what is left of each leftover row is the coefficients
    of a combination of the columns that sums to 0, nonzero at the row's
    own ``t`` and zero at every other leftover row's: a basis of the
    dependences.
    """
    n = len(vectors)
    units = [[int(t == i) for t in range(n)] if r == 2 else [] for i in range(n)]
    rows = _leftover_rows(
        [[*h, w, *e] for h, w, e in zip(vectors, weights, units)], len(vectors[0])
    )
    homogeneous = not any(row[0] for row in rows)
    if r != 2:
        return homogeneous, None
    rows = _leftover_rows(rows, 1)
    if len(rows) != 1:
        return homogeneous, None
    return homogeneous, rows[0]


def _leftover_rows(rows: list[list[int]], axes: int) -> list[list[int]]:
    """The rows that take no pivot when fraction-free (Bareiss) elimination
    clears their first ``axes`` entries, without those entries.

    One axis at a time, a row with a nonzero entry on the axis is the pivot
    and leaves, and every other row loses that axis, divided exactly by the
    previous pivot.  Each row left over is an integer combination of the
    original rows, zero on the first ``axes`` entries.
    """
    prev = 1
    for _ in range(axes):
        k = next((i for i, row in enumerate(rows) if row[0]), None)
        if k is None:
            rows = [row[1:] for row in rows]
            continue
        a, *pivot = rows.pop(k)
        rows = [
            [(a * x - f * y) // prev for x, y in zip(rest, pivot)]
            for f, *rest in rows
        ]
        prev = a
    return rows


def validate_partition(points: Sequence[Point], partition: TverbergPartition) -> None:
    """Exact check of the partition invariants; raises InternalError."""
    seen: set[int] = set()
    for block in partition.blocks:
        if not block:
            raise InternalError("empty block")
        for i in block:
            if not 0 <= i < len(points):
                raise InternalError("block index out of range")
            if i in seen:
                raise InternalError("blocks overlap")
            seen.add(i)
    if set(partition.coefficients) != seen:
        raise InternalError("coefficient keys do not match the block union")
    dim = len(points[0])
    for block in partition.blocks:
        total = ZERO
        combo = [ZERO] * dim
        for i in block:
            c = partition.coefficients[i]
            if c < 0:
                raise InternalError("negative convex coefficient")
            total += c
            if c:
                for m in range(dim):
                    combo[m] += c * points[i][m]
        if total != 1:
            raise InternalError("block coefficients do not sum to 1")
        if tuple(combo) != partition.witness:
            raise InternalError("block does not combine to the witness")
