"""Partition enumeration and exact Tverberg search.

Partitions are enumerated in a fixed canonical order: each block lists its
vertices ascending, blocks are sorted by least vertex, and the sequence of
partitions is lexicographic on that nested-tuple form.  The search returns
the first enumerated partition whose blocks' convex hulls share a point, so
results are deterministic.

The search (``_first_hit``) runs on a ``LiftedConfiguration``
(``separation``): integer vectors ``H_t`` with weights ``N_t > 0``, the
point ``H_t / N_t`` standing for point ``t``, and a positive ``scale``.
Every lift it gets is homogeneous: ``N_t = <H_t, v>`` for one ``v``, so
every point ``H_t / N_t`` lies on the hyperplane ``<x, v> = 1``.  The
plus-minus pipeline gives it the lift by the separating hyperplane, where
``H_t / N_t`` is the lifted point and ``v = (W, -A) / K``.
``tverberg_partition`` and ``hulls_intersect`` give it the lift with every
factor ``s = 1``: ``H = (P, q)``, ``N = q`` and ``scale = q``, with ``P = q
* p`` (``integer_points``), and ``v = e_last``.  The program of a partition
(``_hulls_program``) asks for ``x >= 0`` with block 0's weighted sum
``sum(N_t x_t)`` equal to the scale and every block's ``sum(H_t x_t)``
equal: ``N_t x_t / scale`` are then convex weights of the points ``H_t /
N_t`` with one common point.  Every hit is read by one pull-back
(``separation.pull_back_coefficients``); on the lift with every factor 1
its beta is 1, its coefficients are the convex weights and its point ``b``
is the common point.  Each column is a positive multiple of the rational
program's column, so the kernel, which divides every column to a primitive
one, pivots as it would on the rationals.

Hulls can only meet where the blocks' bounding boxes do, so the search walks
a box-pruned enumeration (``enumerate_partitions`` given the points) and
decides the exact program only of partitions whose boxes meet.  A box here
is taken on axes, each a value per point.  As blocks are fixed the walk
keeps a running box, per axis ``lo`` = the largest block minimum and ``hi``
= the smallest block maximum, and drops a block's whole subtree when, on
some axis,

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
``f``, so the boxes on ``f`` meet at ``f(x)``.  The cut reads an axis only
through the order and ties of the points on it, and it is the same on a
reversed axis, so an axis that is constant on the points cuts nothing and
one that orders them as another does, up to reversal, cuts as that one
does.  The search's axes (``_walk_keys``) are the nonconstant coordinates
``H_t[m] / N_t`` and, for ``d >= 3``, the sum and the difference of every
pair of them, ``D + D(D-1)`` axes for ``D`` such coordinates, a box with
``2D^2`` faces (a k-DOP, as bounding volumes in collision detection use
them: Klosowski, Held, Mitchell, Sowizral and Zikan, IEEE TVCG 4(1),
1998).  All are integers over one common multiple of the weights, so order
and ties are the rationals'.  The search thus decides, in canonical order,
the programs of the partitions whose boxes meet on every axis, and the walk
drops no partition whose hulls meet: the same first hit and the same
certificate bytes as a search over every partition.

For ``d = 1`` the lifted points lie on the line ``<x, v> = 1`` of ``R^2``,
on which every linear function is affine, so every function that is not
constant on the points orders them alike up to reversal: the first
nonconstant coordinate is the one axis, and every other would cut as it
does.

For ``d = 2`` the pairwise sums and differences give way to the lines
through two points, ``n(n-1)/2`` axes after the coordinates for ``n``
points, and the cut becomes exact for two blocks.  In the homogeneous
vectors the line through two points is the cross product ``H_s x H_t``
(``_normals``): it is 0 at both, and on the plane ``<x, v> = 1`` of the
points it is affine and vanishes exactly on their line, so it orders the
points as the normal of their difference does, up to sign.  Where the two
points coincide the product is 0, and where the points are collinear every
product is 0 on all of them: constant axes.  Two disjoint convex polygons
are separated by a line parallel to an edge of one of them (the
separating-axis theorem), and each edge joins two points, whose line is an
axis.  Where the hulls are points or segments whose difference is a point
or a segment, they miss along its line's normal or along that line, on
which some coordinate is one to one.  So two blocks whose hulls miss have
intervals that miss on some axis, and as intervals on one axis that meet
pairwise share a point, the walk lists no partition with two such blocks.
For ``d >= 3`` no such short list exists: separating two polytopes there
takes facet normals and the cross products of pairs of edges.

The walk holds blocks and pools as point bitmasks (``_axes``).  On each axis
the points are numbered in order of their values, so a block's least and
greatest value sit at its lowest and highest set bit, and ``left[k-1]`` and
``left[-k]`` at the lowest and highest set bit of the leftover mask once
``k - 1`` of its bits are cleared from that end.  One generator lists a
block and everything after it: it grows the block depth-first from a
stack of (block, next vertex, bits) entries and recurses only into the
next block, so a walk nests one generator per block.  Appending a vertex
to a block is one OR per axis, done when its entry is popped, so a search
that stops at its first hit builds nothing for the entries left behind.
A block too large to leave a vertex for each block to come is never
built.  Nor is any block grown from one whose leftover vertices already
fail the cut against the running box from before it: growing a block only
raises ``left[k-1]`` and lowers ``left[-k]``.  Without points the walk has
no axes and no axis work, and without a coloring every color bit is 0.

No block but block 0 needs a sum row: ``v`` applied to block ``j``'s
coupling rows gives ``sum(N_t x_t : t in B_0) = sum(N_t x_t : t in B_j)``.
So on the ``n = 1 + (r-1)D`` vectors of length ``D = d + 1`` that a search
gets, every program has ``n`` rows for its ``n`` variables: it is square.  When its matrix is nonsingular
the program's rows have exactly one solution, and ``_decide`` finds it by
one fraction-free elimination (Bareiss, Math. Comp. 22, 1968), the one
``_dependence`` runs (``_eliminate``), and integer back-substitution.  The
program is feasible exactly when that solution is nonnegative, and it is
then the point phase one would return, so the certificate's bytes do not
depend on which of the two decided it.  An infeasible program's Farkas
multipliers come from a second elimination, on the transpose: they vanish
on every column but the one of the solution's first negative entry.
Singular programs (a block of more than ``D`` points, whose columns are
then dependent, or repeated or collinear points) go to the simplex,
``lp_solve``.

With two blocks the ``d + 2`` columns ``(H_t, N_t)`` of a lift have, when
the points affinely span ``R^d``, a single linear dependence ``lambda``
(Radon 1921), and it names the answer: this is the plus-minus Radon case
of Barany and Soberon (Tverberg plus minus, 2018).  A point ``x`` of the
program on ``(B_0, B_1)`` makes ``eps_t * x_t`` a dependence, with ``eps =
+1`` on block 0 and ``-1`` on block 1 (the coupling rows give the ``H``
part, and ``N = <H, v>`` the ``N`` part), nonzero on block 0 since its
weighted sum is positive.  So the program has a point exactly when ``eps *
lambda`` has one sign, and that point is its only one, a multiple of ``eps
* lambda``.  Both signs occur in ``lambda`` since the weights are positive,
so block 0 must hold one sign class whole and none of the other; the first
such block in canonical order takes the class of ``lambda``'s first
nonzero entry and every zero of ``lambda`` below that class's last index.
The box cut drops no partition whose hulls meet, and with two blocks color
classes have one vertex, so every partition is rainbow: this is the walk's
first hit and its program's point.  As ``N`` is linear in ``H``, the
dependences of the columns ``(H_t, N_t)`` are those of ``H_t``; the search
computes ``lambda`` once, by the same fraction-free elimination
(``_dependence``), and returns that hit without a walk or an LP, after one
exact check against its program.  Inputs whose dependences span two or
more dimensions (repeated, coincident or collinear points) walk as above,
and the simplex decides each listed partition, its program being
singular.

An infeasible program also proves more than its own partition's failure.
Its Farkas multipliers (``LpResult.multipliers``) give one affine function
``h_j`` per block, ``>= 0`` on that block's points, the ``r`` of them adding
up to a negative constant (``_refuter``).  Any later partition whose blocks
each lie in the ``h >= 0`` region of a different one of these functions has
no common point either, since the functions would all be ``>= 0`` there.
The search keeps them in one table: bit ``c`` of ``table[i][j]`` is set
where kept certificate ``c``'s ``h_j >= 0`` at point ``i``.  It skips,
without deciding its program, each listed partition whose blocks can take
distinct slots ``j`` with a nonzero AND of ``table[i][j]`` over all their
points (``_refuted``), at a cost per partition, not per certificate.  A
certificate enters the table only after it has been checked to refute its
own partition.  A feasible partition is never refuted and the order is
unchanged, so the first hit and its bytes stay the same, whichever
certificates the table holds.  With two blocks the regions ``h_0 >= 0``
and ``h_1 >= 0`` are disjoint, so a certificate refutes only its own
partition, which the walk never lists again: two-block walks keep no
certificate.

The search returns its first hit with the point that the elimination, the
simplex or the dependence gives it.  The pipeline checks the certificate
it pulls back from that hit with ``verify_certificate``, the solve's one
post-condition.  ``validate_partition`` checks a partition by itself;
nothing in the solve calls it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, combinations, compress
from math import lcm
from typing import Iterator, Optional, Sequence, Union

from .errors import InternalError
from .linalg import ZERO, Point
from .lp import (
    FEASIBLE,
    INFEASIBLE,
    Constraint,
    LinearProgram,
    LpResult,
    integer_points,
    lp_solve,
    satisfies,
)
from .model import TverbergPartition, is_prime
from .separation import LiftedConfiguration, pull_back_coefficients

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
        _Listing(keys, bits, colors),
        list(range(n_points)),
        [(1 << n_points) - 1] * len(keys),
        r,
        [(values[1], values[-1]) for values in keys],
    )


# What every node of one listing shares: the keys and point bits of
# ``_axes`` and each vertex's color bit.  The walk is a module function that
# takes it as an argument, so that no closure refers to itself and a
# finished walk leaves no reference cycle for the garbage collector.
_Listing = namedtuple("_Listing", "keys bits colors")


def _walk(
    listing: _Listing, pool: list[int], masks: list[int], k: int, box: _Box
) -> Iterator[Blocks]:
    """The partitions of ``pool`` into ``k`` blocks whose boxes meet inside
    ``box``; ``masks`` holds the pool's bits on each axis.  The first
    block grows from a stack of (block, pool position of the vertex it
    adds, the block's axis bits, its color bits), siblings pushed in
    reverse so that blocks come off in canonical order."""
    keys, bits, colors = listing
    if k == 1:
        if _rainbow(pool, colors):
            yield (tuple(pool),)
        return
    # The largest block leaves a vertex for each block to come.
    largest = len(pool) - k + 1
    stack = [((), 0, [0] * len(keys), 0)]
    while stack:
        block, t, held, used = stack.pop()
        v = pool[t]
        block += (v,)
        held = [h | b for h, b in zip(held, bits[v])]
        used |= colors[v]
        narrowed = _narrow(keys, held, masks, box, k - 1)
        if narrowed is False:
            # No block grown from this one passes the cut either.
            continue
        if narrowed is not None:
            rest = [u for u in pool if u not in block]
            left = [m ^ h for m, h in zip(masks, held)]
            for tail in _walk(listing, rest, left, k - 1, narrowed):
                yield (block,) + tail
        if len(block) < largest:
            for s in range(len(pool) - 1, t, -1):
                if not used & colors[pool[s]]:
                    stack.append((block, s, held, used))


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
    lift = LiftedConfiguration(
        tuple((*p, q) for p in points), (q,) * len(points), q
    )
    result = lp_solve(_hulls_program(lift, indices))
    if result.status != FEASIBLE:
        return None
    _, coefficients, witness = pull_back_coefficients((indices, result.point), lift)
    return witness, [[coefficients[i] for i in block] for block in indices]


def _hulls_program(lift: LiftedConfiguration, blocks: Blocks) -> LinearProgram:
    """The program of ``blocks`` (tuples of indices into the lift) on the
    lift's vectors ``H_t`` with weights ``N_t = <H_t, v> > 0`` for one
    ``v``.

    One variable ``x_t >= 0`` per point, in block order; then block 0's sum
    row ``sum(N_t x_t : t in B_0) = scale``, and for each block ``j >= 1``
    and axis ``m``, ``sum(H_t[m] x_t : t in B_0) - sum(H_t[m] x_t : t in
    B_j) = 0``.  ``v`` applied to block ``j``'s coupling rows gives
    ``sum(N_t x_t : t in B_0) = sum(N_t x_t : t in B_j)``, so block ``j``'s
    sum row is implied.  The program has a point exactly when the blocks'
    hulls of the points ``H_t / N_t`` meet: ``N_t x_t / scale`` are the
    convex weights.  ``hulls_intersect`` and ``tverberg_partition`` use the
    lift with every factor 1 (``separation``), where ``v = e_last``; the
    plus-minus search uses the separating hyperplane's lift, whose columns
    are positive multiples of those of the lifted points.
    """
    vectors = lift.vectors
    dim = len(vectors[0])
    starts = [0, *accumulate(len(b) for b in blocks)]
    nvar = starts[-1]
    coeffs = [0] * nvar
    for t, i in enumerate(blocks[0]):
        coeffs[t] = lift.weights[i]
    cons = [Constraint(tuple(coeffs), lift.scale)]
    for j in range(1, len(blocks)):
        for m in range(dim):
            coeffs = [0] * nvar
            for t, i in enumerate(blocks[0]):
                coeffs[t] = vectors[i][m]
            for t, i in enumerate(blocks[j], starts[j]):
                coeffs[t] = -vectors[i][m]
            cons.append(Constraint(tuple(coeffs), 0))
    return LinearProgram(nvar, tuple(cons))


def _refuter(
    weights: Sequence[int],
    vectors: Sequence[Sequence[int]],
    blocks: Blocks,
    multipliers: Optional[Sequence[int]],
) -> list[int]:
    """Per point, the bitmask of the Farkas functions that are ``>= 0`` on it.

    ``multipliers`` certify that ``_hulls_program`` on ``blocks`` is
    infeasible: a sum-row multiplier ``s`` and coupling-row multipliers
    ``u_j`` (``j >= 1``) with ``y . A_t <= 0`` on every column and ``y . b =
    scale * s > 0``.  A column of block 0 reads ``N*s + sum_j <u_j, H>`` and
    one of block ``j`` reads ``-<u_j, H>``, so divided by ``N > 0`` they
    are, at the point ``x = H / N``, the affine functions

        h_0(x) = -(s + sum_j <u_j, x>),    h_j(x) = <u_j, x>,

    ``>= 0`` on their own block's points and adding up to the constant
    ``-s < 0``.  Bit ``j`` of point ``i``'s mask is set iff
    ``h_j(H_i / N_i) >= 0``, read off the column without dividing.  Raises
    InternalError unless the certificate refutes the partition it came
    from.
    """
    r = len(blocks)
    dim = len(vectors[0])
    if multipliers is None or len(multipliers) != 1 + (r - 1) * dim:
        raise InternalError("infeasible search LP came without its multipliers")
    s = multipliers[0]
    u = [multipliers[1 + (j - 1) * dim : 1 + j * dim] for j in range(1, r)]
    if s <= 0:
        raise InternalError("search LP multipliers do not sum to a positive bound")
    masks = []
    for h, n in zip(vectors, weights):
        dots = [sum(a * c for a, c in zip(uj, h) if a) for uj in u]
        values = [-(n * s + sum(dots)), *dots]
        masks.append(sum(1 << j for j, v in enumerate(values) if v >= 0))
    for j, block in enumerate(blocks):
        if any(not masks[i] >> j & 1 for i in block):
            raise InternalError(
                "search LP multipliers do not refute their own partition"
            )
    return masks


def _refuted(
    table: Sequence[Sequence[int]], blocks: Blocks, live: int, used: int
) -> bool:
    """Whether ``blocks`` can take distinct slots ``j``, none in the bitmask
    ``used``, with some certificate of ``live`` set in ``table[i][j]`` at
    all their points: its functions would all be ``>= 0`` at a common point
    of the blocks' hulls, yet they sum to a negative constant."""
    if not blocks:
        return True
    for j in range(len(table[0])):
        if used >> j & 1:
            continue
        narrowed = live
        for i in blocks[0]:
            narrowed &= table[i][j]
            if not narrowed:
                break
        else:
            if _refuted(table, blocks[1:], narrowed, used | 1 << j):
                return True
    return False


def tverberg_partition(
    points: Sequence[Point],
    r: int,
    coloring: Optional[Sequence[Sequence[int]]] = None,
) -> TverbergPartition:
    """First partition in canonical order whose r blocks' hulls intersect.

    r must be at least 1, and the point count Tverberg's (r-1)*(dim+1)+1
    for points of length dim; any other count, the (r-1)*dim+1 of points on
    a hyperplane among them, is a ValueError.  With a coloring only rainbow
    partitions count; it requires prime r and color classes of at most
    r - 1 vertices each.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    pts = tuple(tuple(p) for p in points)
    if coloring is not None:
        if not is_prime(r):
            raise ValueError(f"rainbow search requires prime r, got {r}")
        for ci, cls in enumerate(coloring):
            if len(cls) > r - 1:
                raise ValueError(f"color class {ci} exceeds r-1 = {r - 1} vertices")
    dim = len(pts[0]) if pts else 0
    full = (r - 1) * (dim + 1) + 1
    if len(pts) != full:
        raise ValueError(
            f"need {full} points for r={r} in dimension {dim}, got {len(pts)}"
        )
    # A two-block search may list no partition, so check what its walk would.
    if coloring is not None:
        _color_of(coloring, len(pts))
    if len({len(p) for p in pts}) > 1:
        raise ValueError("points have unequal lengths")
    # Every partition covers all the points, so one scaling serves them all:
    # each program is the one ``hulls_intersect`` would build.
    q, ints = integer_points(pts)
    lift = LiftedConfiguration(tuple((*p, q) for p in ints), (q,) * len(ints), q)
    hit = _first_hit(lift, r, coloring)
    _, coefficients, witness = pull_back_coefficients(hit, lift)
    return TverbergPartition(hit[0], coefficients, witness)


def _first_hit(
    lift: LiftedConfiguration,
    r: int,
    coloring: Optional[Sequence[Sequence[int]]] = None,
) -> tuple[Blocks, tuple[Fraction, ...]]:
    """The first listed partition of the lift's points ``H_t / N_t`` whose
    hulls meet, and the point of its ``_hulls_program``.

    The lift's columns must be homogeneous, ``N_t = <H_t, v>`` for one
    ``v``, and their count the ``1 + (r-1)D`` of vectors of length ``D``,
    so that every program is square: the separating hyperplane's lift in
    the plus-minus pipeline, and the lift with every factor 1 in
    ``tverberg_partition``.  The search runs the
    two-block Radon hit where there is one dependence, else the
    box-pruned walk on the axes of ``_walk_keys``, the Farkas cache, and
    ``_decide`` on each partition left.
    It calls ``enumerate_partitions`` and ``_decide``, and ``_decide`` calls
    ``lp_solve``, through this module's globals; the benchmark's tracer
    wraps ``enumerate_partitions`` and ``lp_solve``.
    """
    vectors = lift.vectors
    weights = lift.weights
    dependence = _dependence(vectors) if r == 2 else None
    if dependence is not None:
        # The Radon hit (module docstring): block 0 takes the sign class of
        # lambda's first nonzero entry and every zero below its last index.
        lead = next(v for v in dependence if v)
        last = max(t for t, v in enumerate(dependence) if v * lead > 0)
        first = tuple(t for t in range(last + 1) if dependence[t] * lead >= 0)
        blocks = (first, tuple(t for t in range(len(vectors)) if t not in first))
        norm = sum(weights[t] * abs(dependence[t]) for t in first)
        point = tuple(
            Fraction(abs(dependence[t]) * lift.scale, norm)
            for b in blocks
            for t in b
        )
        program = _hulls_program(lift, blocks)
        if not satisfies(program, point):
            raise InternalError("the Radon point fails its partition's program")
        return blocks, point
    keys = _walk_keys(vectors, weights)
    table = [[0] * r for _ in vectors]
    kept = 0
    for blocks in enumerate_partitions(len(vectors), r, coloring, keys):
        if kept and _refuted(table, blocks, -1, 0):
            continue
        program = _hulls_program(lift, blocks)
        result = _decide(program)
        if result.status == FEASIBLE:
            return blocks, result.point
        # Two-block certificates refute only their own partition.
        if r > 2:
            masks = _refuter(weights, vectors, blocks, result.multipliers)
            for row, mask in zip(table, masks):
                for j in range(r):
                    row[j] |= (mask >> j & 1) << kept
            kept += 1
    raise InternalError(
        "partition search exhausted although a partition must exist"
    )


def _walk_keys(
    vectors: Sequence[Sequence[int]], weights: Sequence[int]
) -> list[list[int]]:
    """The search walk's axes at the points ``H_t / N_t``: on vectors of
    length 2 (``d = 1``) the first nonconstant coordinate alone; on any
    other length the nonconstant coordinates, then, on length 3 (``d =
    2``), the lines through two points (``_normals``), and on a longer one
    the sum and then the difference of every pair of coordinates ``a < b``.
    Each is an integer over one common multiple of the weights, so that
    order and ties are the rationals': point ``t`` has ``multiple_t *
    H_t[m]`` on coordinate ``m`` and ``multiple_t * <n, H_t>`` on normal
    ``n``.  Every axis is a linear function of the points, so the walk's cut
    on it drops no partition whose hulls meet; on a line one axis decides
    every cut, and the normals make the walk drop every partition with two
    blocks whose hulls miss (module docstring).  A constant coordinate ``c``
    (``tverberg_partition``'s last) is dropped: it cuts nothing, and ``a +
    c`` and ``a - c`` cut as ``a`` does.  The length of the vectors is the
    one property the choice reads.
    """
    common = lcm(*weights)
    multiples = [common // w for w in weights]
    rows = [[h * m for h in vector] for vector, m in zip(vectors, multiples)]
    varying = [column.count(column[0]) < len(column) for column in zip(*rows)]
    coordinates = [list(compress(row, varying)) for row in rows]
    if len(vectors[0]) == 2:
        return [key[:1] for key in coordinates]
    if len(vectors[0]) == 3:
        normals = _normals(vectors)
        return [
            key + [m * (a * x + b * y + c * z) for a, b, c in normals]
            for key, m, (x, y, z) in zip(coordinates, multiples, vectors)
        ]
    keys = []
    for key in coordinates:
        pairs = list(combinations(key, 2))
        keys.append(key + [a + b for a, b in pairs] + [a - b for a, b in pairs])
    return keys


def _normals(vectors: Sequence[Sequence[int]]) -> list[tuple[int, int, int]]:
    """The cross products ``H_s x H_t`` of the vectors ``s < t`` of length
    3, in pair order.

    ``<H_s x H_t, x>`` is 0 at ``H_s`` and ``H_t``, and on the plane ``<x,
    v> = 1`` of a lift's points it is affine and, unless the two points
    coincide (where the product is 0), nonconstant: its zero set there is
    the line through them.  The walk reads an axis only through the order
    of the points on it, so a product that is 0, or a multiple of another,
    is kept as it is: it cuts as a constant axis or as that other one does.
    """
    return [
        (y * w - z * v, z * u - x * w, x * v - y * u)
        for (x, y, z), (u, v, w) in combinations(vectors, 2)
    ]


def _dependence(vectors: Sequence[Sequence[int]]) -> Optional[list[int]]:
    """An integer generator ``lambda`` of the linear dependences ``sum_t
    lambda_t * H_t = 0`` of the columns, or None unless they form a
    one-dimensional space.

    One elimination (``_eliminate``) of the rows ``[H_t | e_t]``: once the
    axes of ``H`` are cleared, what is left of each leftover row is the
    coefficients of a combination of the columns that sums to 0, nonzero at
    the row's own ``t`` and zero at every other leftover row's, so the
    leftover rows are a basis of the dependences.
    """
    n = len(vectors)
    _, rows = _eliminate(
        [[*h, *(int(t == i) for t in range(n))] for i, h in enumerate(vectors)],
        len(vectors[0]),
    )
    return rows[0] if len(rows) == 1 else None


def _eliminate(
    rows: list[list[int]], axes: int
) -> tuple[list[tuple[int, list[int]]], list[list[int]]]:
    """Fraction-free (Bareiss) elimination of the first ``axes`` entries of
    ``rows``: the pivots, in axis order, and the rows that take none.

    One axis at a time, the first row with a nonzero entry on the axis is
    the pivot and leaves as ``(a, rest)``, its entry and what follows it,
    and every other row loses that axis, divided exactly by the previous
    pivot's entry.  An axis with no such row is dropped.  Each row, pivot or
    left over, is an integer combination of the original rows; the ones
    left over are zero on the first ``axes`` entries and are returned
    without them.
    """
    pivots = []
    prev = 1
    for _ in range(axes):
        k = next((i for i, row in enumerate(rows) if row[0]), None)
        if k is None:
            rows = [row[1:] for row in rows]
            continue
        a, *pivot = rows.pop(k)
        pivots.append((a, pivot))
        # A row that is 0 on the axis is only rescaled; zeros stay zeros.
        rows = [
            [(a * x - f * y) // prev if y else a * x // prev
             for x, y in zip(rest, pivot)]
            if f
            else [a * x // prev if x else 0 for x in rest]
            for f, *rest in rows
        ]
        prev = a
    return pivots, rows


def _solve_square(rows: list[list[int]]) -> Optional[tuple[int, list[int]]]:
    """``(D, y)`` for the ``n`` equations ``rows``, each ``[*A_i, b_i]``:
    ``D = |det A| > 0`` and the integers ``y`` with ``A y = D b``, or None
    when ``A`` is singular.

    ``_eliminate`` leaves no row over exactly when every axis takes a
    pivot.  Its last pivot entry is ``det A`` up to the sign of the row
    order, and pivot row ``c`` reads ``a_c x_c + sum(u_k x_k : k > c) =
    beta_c`` for the one solution ``x``.  Cramer's rule makes each ``y_k =
    det * x_k`` an integer, so back-substitution divides exactly.
    """
    n = len(rows)
    pivots, left = _eliminate(rows, n)
    if left:
        return None
    det = pivots[-1][0]
    y = [0] * n
    for c in range(n - 1, -1, -1):
        a, pivot = pivots[c]
        s = det * pivot[-1]
        for k, u in enumerate(pivot[:-1], c + 1):
            if u:
                s -= u * y[k]
        y[c] = s // a
    if det < 0:
        return -det, [-v for v in y]
    return det, y


def _decide(program: LinearProgram) -> LpResult:
    """``lp_solve``'s verdict on a search program, which is square (module
    docstring), without a pivot where the program is nonsingular.

    Such a program has one solution ``x = y / D`` of its rows
    (``_solve_square``), so it is feasible exactly when ``y >= 0``, and
    ``x`` is then the point phase one would reach too; it must pass the
    kernel's own exact re-substitution.  Otherwise let ``j`` be the first
    index with ``y_j < 0``, and ``z`` the integers with ``A^T z = D' e_j``,
    ``D' > 0``.  The multipliers ``-z`` read ``-D'`` on column ``j`` and 0
    on every other, and ``-z . b = -D' x_j > 0``: a Farkas certificate, as
    ``lp_solve`` gives one.  A singular program goes to ``lp_solve``,
    through this module's global.
    """
    cons = program.constraints
    solved = _solve_square([[*c.coeffs, c.rhs] for c in cons])
    if solved is None:
        return lp_solve(program)
    det, y = solved
    j = next((t for t, v in enumerate(y) if v < 0), None)
    if j is None:
        point = tuple(Fraction(v, det) for v in y)
        if not satisfies(program, point):
            raise InternalError("the elimination's point fails its own program")
        return LpResult(FEASIBLE, point)
    columns = zip(*(c.coeffs for c in cons))
    _, z = _solve_square([[*col, int(t == j)] for t, col in enumerate(columns)])
    return LpResult(INFEASIBLE, multipliers=tuple(-v for v in z))


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
