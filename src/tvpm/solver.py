"""Partition enumeration and exact Tverberg search.

Partitions are enumerated in a fixed canonical order: each block lists its
vertices ascending, blocks are sorted by least vertex, and the sequence of
partitions is lexicographic on that nested-tuple form.  The search returns
the first enumerated partition whose blocks' convex hulls share a point, so
results are deterministic.

Hulls can only meet where the blocks' bounding boxes do, so the search walks
a box-pruned enumeration (``enumerate_partitions`` given the points) and asks
the exact LP (``hulls_intersect``'s program) only about partitions whose
boxes meet.  The walk compares the integer coordinates the search's LPs are
built on (``integer_points``: every point times one ``q > 0``, so order and
ties are the rationals').  As blocks are fixed it keeps a running box, per
axis ``lo`` = the largest block minimum and ``hi`` = the smallest block
maximum, and drops a block's whole subtree when, on some axis,

    max(lo, left[k-1]) > min(hi, left[-k])

with ``left`` the sorted coordinates of the vertices left over and ``k`` the
number of blocks still to come: no single value in ``[lo, hi]`` has ``k``
leftover vertices at or below it and ``k`` at or above it.  The cut is
necessary.  The final box's ``lo`` lies in the running box, and each block
to come has a vertex at or below it (its minimum) and one at or above it
(its maximum, at least the final ``hi``).  With ``k = 1`` the leftover
vertices are the last block and the cut is the full box test on the
complete partition, so every partition listed has boxes that meet.  The LP
thus sees exactly the partitions a full box test on each complete partition
would pass, in the same canonical order: the same first hit, the same Bland
pivots, the same certificate bytes.

The lift puts every point on the hyperplane ``<x, (w, -alpha)> = 1``.
On such points block ``j``'s sum-to-one row follows from block 0's and
block ``j``'s coupling rows, so the search decides once, exactly, whether
its points are homogeneous, some ``v`` with ``<P, v> = 1`` for every
point (``_homogeneous``), and if they are its programs keep block 0's sum
row alone: ``1 + (r-1)D`` rows instead of ``r + (r-1)D`` on points of
dimension ``D``.  Other points, such as a flat count on a line through the
origin, get every row.  The rows dropped are implied, so every verdict
stays.  Bland's rule follows the rows it is given, so a feasible
program's point, and with it the certificate's bytes, can differ only
where the program has more than one feasible point; an infeasible
program's multipliers read 0 on each dropped row (``_refuter``).

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
never lists again: two-block searches keep none.

The search returns its first hit as the LP gives it.  The pipeline checks
the certificate it pulls back from that hit with ``verify_certificate``, the
solve's one post-condition.  ``validate_partition`` checks a partition by
itself; nothing in the solve calls it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .errors import InternalError
from .linalg import ZERO, Point
from .lp import FEASIBLE, Constraint, LinearProgram, integer_points, lp_solve
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
    color_of = None if coloring is None else _color_of(coloring, n_points)
    # Without points there are no axes: ``_narrow`` gives the empty box, so
    # the same walk lists every partition.
    axes = []
    if points is not None:
        if len(points) != n_points:
            raise ValueError(f"got {len(points)} points for {n_points} indices")
        if len({len(p) for p in points}) > 1:
            raise ValueError("points have unequal lengths")
        axes = list(zip(*points))

    def walk(pool: tuple[int, ...], k: int, box: _Box) -> Iterator[Blocks]:
        if k == 1:
            if color_of is None or _rainbow_block(pool, color_of):
                yield (pool,)
            return
        for block in _subsets_with_least(pool, color_of):
            if len(pool) - len(block) < k - 1:
                continue
            taken = set(block)
            rest = tuple(e for e in pool if e not in taken)
            narrowed = _narrow(axes, block, rest, box, k - 1)
            if narrowed is None:
                continue
            for tail in walk(rest, k - 1, narrowed):
                yield (block,) + tail

    yield from walk(tuple(range(n_points)), r, [(min(a), max(a)) for a in axes])


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
    axes: Sequence[Sequence[int]],
    block: Sequence[int],
    rest: Sequence[int],
    box: _Box,
    k: int,
) -> Optional[_Box]:
    """The running box cut down to ``block``'s box, or None when the ``k``
    blocks still to come out of ``rest`` cannot all meet it: on some axis no
    value in the box has ``k`` keys of ``rest`` at or below it and ``k`` at
    or above it."""
    narrowed = []
    for keys, (lo, hi) in zip(axes, box):
        values = [keys[v] for v in block]
        lo = max(lo, min(values))
        hi = min(hi, max(values))
        left = sorted([keys[v] for v in rest])
        if max(lo, left[k - 1]) > min(hi, left[-k]):
            return None
        narrowed.append((lo, hi))
    return narrowed


def _rainbow_block(block: Sequence[int], color_of: dict[int, int]) -> bool:
    colors = [color_of[v] for v in block]
    return len(set(colors)) == len(colors)


def _subsets_with_least(
    pool: tuple[int, ...], color_of: Optional[dict[int, int]]
) -> Iterator[tuple[int, ...]]:
    """Subsets of ``pool`` containing pool[0], ascending tuples in
    lexicographic order, pruned of same-color repeats when colored."""
    rest = pool[1:]
    prefix = [pool[0]]
    used = {color_of[pool[0]]} if color_of is not None else None

    def rec(start: int) -> Iterator[tuple[int, ...]]:
        yield tuple(prefix)
        for t in range(start, len(rest)):
            e = rest[t]
            if color_of is not None:
                c = color_of[e]
                if c in used:
                    continue
                used.add(c)
            prefix.append(e)
            yield from rec(t + 1)
            prefix.pop()
            if color_of is not None:
                used.remove(color_of[e])

    yield from rec(0)


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
    ints = iter(points)
    result = lp_solve(_hulls_program(q, [[next(ints) for _ in b] for b in blocks]))
    if result.status != FEASIBLE:
        return None
    return _meeting_point(blocks, result.point)


def _hulls_program(
    q: int, blocks: Sequence[Sequence[Sequence[int]]], homogeneous: bool = False
) -> LinearProgram:
    """The program of ``hulls_intersect`` on integer points ``P = q * p``.

    One variable ``x_t >= 0`` per point, in block order; then the rows
    ``q * sum(x_t : t in B_j) = q``, one per block ``j``, and for each block
    ``j >= 1`` and axis ``m``, ``sum(P_t[m] x_t : t in B_0) - sum(P_t[m] x_t
    : t in B_j) = 0``.  Every row is the rational program's row times ``q``,
    all ``int``s.

    With ``homogeneous`` (every point has ``<P, v> = 1`` for one ``v``,
    ``_homogeneous``) only block 0's sum row is written: ``v`` applied to
    block ``j``'s coupling rows gives ``sum(x_t : t in B_0) = sum(x_t : t in
    B_j)``, so block 0's row implies block ``j``'s.
    """
    dim = len(blocks[0][0])
    sizes = [len(b) for b in blocks]
    offsets = [sum(sizes[:j]) for j in range(len(blocks))]
    nvar = sum(sizes)
    cons = []
    for j in range(1 if homogeneous else len(blocks)):
        coeffs = [0] * nvar
        for t in range(sizes[j]):
            coeffs[offsets[j] + t] = q
        cons.append(Constraint(tuple(coeffs), q))
    for j in range(1, len(blocks)):
        for m in range(dim):
            coeffs = [0] * nvar
            for t, p in enumerate(blocks[0]):
                coeffs[offsets[0] + t] = p[m]
            for t, p in enumerate(blocks[j]):
                coeffs[offsets[j] + t] = -p[m]
            cons.append(Constraint(tuple(coeffs), 0))
    return LinearProgram(nvar, tuple(cons))


def _meeting_point(
    blocks: Sequence[Sequence[Point]], point: Sequence[Fraction]
) -> tuple[tuple[Fraction, ...], list[list[Fraction]]]:
    """The witness and per-block coefficients of a feasible point of
    ``_hulls_program`` built on ``blocks``."""
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
    q: int,
    points: Sequence[Sequence[int]],
    blocks: Blocks,
    multipliers: Optional[Sequence[int]],
    homogeneous: bool = False,
) -> list[int]:
    """Per point, the bitmask of the Farkas functions that are ``>= 0`` on it.

    ``multipliers`` certify that ``_hulls_program`` on ``blocks`` (with the
    same ``homogeneous``) is infeasible: sum-row multipliers ``s_j`` and
    coupling-row multipliers ``u_j`` (``j >= 1``) with ``y . A_t <= 0`` on
    every column and ``y . b = q * sum(s_j) > 0``.  A homogeneous program
    has no sum row for ``j >= 1``, and ``s_j = 0`` there: the same ``y``
    with those zeros certifies the full program.  A column of block 0 reads
    ``q*s_0 + sum_j <u_j, P>`` and one of block ``j`` reads
    ``q*s_j - <u_j, P>``, so the affine functions

        h_0(P) = -(q*s_0 + sum_j <u_j, P>),    h_j(P) = -(q*s_j - <u_j, P>)

    are ``>= 0`` on their own block's points and add up to the constant
    ``-q * sum(s_j) < 0``.  Bit ``j`` of point ``i``'s mask is set iff
    ``h_j(P_i) >= 0``.  Raises InternalError unless the certificate refutes
    the partition it came from.
    """
    r = len(blocks)
    dim = len(points[0])
    sums = 1 if homogeneous else r
    if multipliers is None or len(multipliers) != sums + (r - 1) * dim:
        raise InternalError("infeasible search LP came without its multipliers")
    s = list(multipliers[:sums]) + [0] * (r - sums)
    u = [multipliers[sums + (j - 1) * dim : sums + j * dim] for j in range(1, r)]
    if sum(s) <= 0:
        raise InternalError("search LP multipliers do not sum to a positive bound")
    masks = []
    for p in points:
        dots = [sum(a * c for a, c in zip(uj, p) if a) for uj in u]
        values = [-(q * s[0] + sum(dots))]
        values += [dot - q * sj for sj, dot in zip(s[1:], dots)]
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
    # Every partition covers all the points, so one scaling serves them all:
    # each program is the one ``hulls_intersect`` would build, less the
    # sum rows homogeneous points imply, and the walk compares the same
    # integers.  ``enumerate_partitions`` and ``lp_solve`` are called
    # through this module's globals, which the benchmark's tracer wraps.
    q, ints = integer_points(pts)
    homogeneous = _homogeneous(ints)
    refuters: list[list[int]] = []
    for blocks in enumerate_partitions(len(pts), r, coloring, ints):
        # Newest first: partitions close in the canonical order share
        # blocks, so a recent certificate is the likeliest to refute.
        if any(_refutes(masks, blocks) for masks in reversed(refuters)):
            continue
        program = _hulls_program(
            q, [[ints[i] for i in block] for block in blocks], homogeneous
        )
        result = lp_solve(program)
        if result.status != FEASIBLE:
            # Two-block certificates refute only their own partition.
            if r > 2:
                refuters.append(
                    _refuter(q, ints, blocks, result.multipliers, homogeneous)
                )
            continue
        witness, per_block = _meeting_point(
            [[pts[i] for i in block] for block in blocks], result.point
        )
        coefficients = {
            i: c
            for block, cs in zip(blocks, per_block)
            for i, c in zip(block, cs)
        }
        return TverbergPartition(blocks, coefficients, witness)
    raise InternalError(
        "partition search exhausted although a partition must exist"
    )


def _homogeneous(points: Sequence[Sequence[int]]) -> bool:
    """Whether some ``v`` has ``<P, v> = 1`` for every point ``P``: whether
    the all-ones vector lies in the points' column space.

    Fraction-free (Bareiss) elimination on the rows ``(P, 1)``, one axis at
    a time: a row with a nonzero entry on the axis is the pivot and leaves,
    and every other row loses that axis, divided exactly by the previous
    pivot.  The rows left over have no axis entry, so ``v`` exists exactly
    when their last entries are 0.
    """
    rows = [(*p, 1) for p in points]
    prev = 1
    for _ in range(len(points[0])):
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
    return not any(row[-1] for row in rows)


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
