"""Partition enumeration and exact Tverberg search.

Partitions are enumerated in a fixed canonical order: each block lists its
vertices ascending, blocks are sorted by least vertex, and the sequence of
partitions is lexicographic on that nested-tuple form.  The search returns
the first enumerated partition whose blocks' convex hulls share a point, so
results are deterministic.

Hulls can only meet where the blocks' bounding boxes do, so the search walks
a box-pruned enumeration (``enumerate_partitions`` given the points) and asks
the exact LP (``hulls_intersect``'s program) only about partitions whose
boxes meet.
Once per search every coordinate is replaced by its rank among the distinct
values on its axis: an integer that orders exactly as the rational does,
ties included, so the box test needs no ``Fraction`` comparison.  As blocks
are fixed the walk keeps a running box, per axis ``lo`` = the largest block
minimum and ``hi`` = the smallest block maximum, and drops a block's whole
subtree when

- ``lo > hi`` on some axis: more blocks can only raise ``lo`` and lower
  ``hi``; or
- the vertices left cannot serve the ``k`` blocks still to come: each of
  them needs a vertex at or above ``lo`` and one at or below ``hi`` on every
  axis, because its box must meet the final box, which lies inside the
  running one.

Neither cut drops a partition whose boxes meet, and every partition listed
has boxes that meet (its last block passes the second cut with ``k = 1``).
So the LP sees exactly the partitions a full box test on each complete
partition would pass, in the same canonical order: the same first hit, the
same Bland pivots, the same certificate bytes.

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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .errors import InternalError
from .linalg import ZERO, Point
from .lp import (
    EQUAL,
    FEASIBLE,
    Constraint,
    LinearProgram,
    integer_points,
    lp_solve,
)
from .model import TverbergPartition, is_prime

Blocks = tuple[tuple[int, ...], ...]
# Per axis, the running box (lo, hi) in rank keys.
_Box = list[tuple[int, int]]


def enumerate_partitions(
    n_points: int,
    r: int,
    coloring: Optional[Sequence[Sequence[int]]] = None,
    points: Optional[Sequence[Point]] = None,
) -> Iterator[Blocks]:
    """All partitions of 0..n_points-1 into exactly r nonempty blocks.

    With a coloring, only partitions whose blocks repeat no color survive
    (at most one vertex of each class per block).  With ``points`` (one
    coordinate tuple per index), only partitions whose blocks' bounding
    boxes share a point survive: a subtree is dropped as soon as no
    completion of the blocks fixed so far can have meeting boxes (see the
    module docstring).  Survivors keep their canonical order either way.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if n_points < r:
        raise ValueError(f"cannot split {n_points} points into {r} nonempty blocks")
    if points is not None and len(points) != n_points:
        raise ValueError(f"got {len(points)} points for {n_points} indices")
    color_of = None
    if coloring is not None:
        color_of = {}
        for ci, cls in enumerate(coloring):
            for v in cls:
                color_of[v] = ci

    def rec(pool: tuple[int, ...], k: int) -> Iterator[Blocks]:
        if k == 1:
            if color_of is None or _rainbow_block(pool, color_of):
                yield (pool,)
            return
        for block in _subsets_with_least(pool, color_of):
            if len(pool) - len(block) < k - 1:
                continue
            taken = set(block)
            rest = tuple(e for e in pool if e not in taken)
            for tail in rec(rest, k - 1):
                yield (block,) + tail

    def boxed(pool: tuple[int, ...], k: int, box: _Box) -> Iterator[Blocks]:
        if k == 1:
            if color_of is None or _rainbow_block(pool, color_of):
                yield (pool,)
            return
        for block in _subsets_with_least(pool, color_of):
            if len(pool) - len(block) < k - 1:
                continue
            narrowed = _narrow(axes, block, box)
            if narrowed is None:
                continue
            taken = set(block)
            rest = tuple(e for e in pool if e not in taken)
            if not _room(axes, rest, narrowed, k - 1):
                continue
            for tail in boxed(rest, k - 1, narrowed):
                yield (block,) + tail

    if points is None:
        yield from rec(tuple(range(n_points)), r)
    else:
        axes = _rank_axes(points)
        everything = [(0, n_points)] * len(axes)
        yield from boxed(tuple(range(n_points)), r, everything)


def _rank_axes(points: Sequence[Point]) -> list[list[int]]:
    """Per axis, each point's rank among the distinct values on that axis.

    Ranks are integers that order exactly as the coordinates do, ties
    included, so box tests on them are box tests on the points."""
    axes = []
    for column in zip(*points):
        rank = {v: i for i, v in enumerate(sorted(set(column)))}
        axes.append([rank[v] for v in column])
    return axes


def _room(axes: list[list[int]], pool: Sequence[int], box: _Box, count: int) -> bool:
    """Whether ``pool`` has ``count`` vertices at or above lo and ``count``
    at or below hi on every axis: what ``count`` more blocks need when each
    of their boxes must meet ``box``."""
    for keys, (lo, hi) in zip(axes, box):
        values = sorted([keys[v] for v in pool])
        if values[-count] < lo or values[count - 1] > hi:
            return False
    return True


def _narrow(
    axes: list[list[int]], block: Sequence[int], box: _Box
) -> Optional[_Box]:
    """The running box cut down by ``block``'s box, or None once empty."""
    narrowed = []
    for keys, (lo, hi) in zip(axes, box):
        values = [keys[v] for v in block]
        lo = max(lo, min(values))
        hi = min(hi, max(values))
        if lo > hi:
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
    q, points = integer_points(p for blk in blocks for p in blk)
    ints = iter(points)
    result = lp_solve(_hulls_program(q, [[next(ints) for _ in b] for b in blocks]))
    if result.status != FEASIBLE:
        return None
    return _meeting_point(blocks, result.point)


def _hulls_program(
    q: int, blocks: Sequence[Sequence[Sequence[int]]]
) -> LinearProgram:
    """The program of ``hulls_intersect`` on integer points ``P = q * p``.

    One variable ``x_t >= 0`` per point, in block order; then the rows
    ``q * sum(x_t : t in B_j) = q``, one per block ``j``, and for each block
    ``j >= 1`` and axis ``m``, ``sum(P_t[m] x_t : t in B_0) - sum(P_t[m] x_t
    : t in B_j) = 0``.  Every row is the rational program's row times ``q``,
    all ``int``s, so ``Constraint`` takes them without ``constraint``'s
    conversions.
    """
    dim = len(blocks[0][0])
    sizes = [len(b) for b in blocks]
    offsets = [sum(sizes[:j]) for j in range(len(blocks))]
    nvar = sum(sizes)
    cons = []
    for j in range(len(blocks)):
        coeffs = [0] * nvar
        for t in range(sizes[j]):
            coeffs[offsets[j] + t] = q
        cons.append(Constraint(tuple(coeffs), EQUAL, q))
    for j in range(1, len(blocks)):
        for m in range(dim):
            coeffs = [0] * nvar
            for t, p in enumerate(blocks[0]):
                coeffs[offsets[0] + t] = p[m]
            for t, p in enumerate(blocks[j]):
                coeffs[offsets[j] + t] = -p[m]
            cons.append(Constraint(tuple(coeffs), EQUAL, 0))
    return LinearProgram(nvar, tuple(cons), bounds=((0, None),) * nvar)


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
) -> list[int]:
    """Per point, the bitmask of the Farkas functions that are ``>= 0`` on it.

    ``multipliers`` certify that ``_hulls_program`` on ``blocks`` is
    infeasible: sum-row multipliers ``s_j`` and coupling-row multipliers
    ``u_j`` (``j >= 1``) with ``y . A_t <= 0`` on every column and
    ``y . b = q * sum(s_j) > 0``.  A column of block 0 reads
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
    if multipliers is None or len(multipliers) != r + (r - 1) * dim:
        raise InternalError("infeasible search LP came without its multipliers")
    s = multipliers[:r]
    u = [multipliers[r + (j - 1) * dim : r + j * dim] for j in range(1, r)]
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


def tverberg_partition(points: Sequence[Point], r: int) -> TverbergPartition:
    """First partition in canonical order whose r blocks' hulls intersect.

    The point count must fit r blocks: (r-1)*(dim+1)+1 points spanning the
    ambient space, or (r-1)*dim+1 points lying on a hyperplane of it (the
    shape produced by the projective lift).
    """
    pts = tuple(tuple(p) for p in points)
    _check_count(len(pts), r, len(pts[0]) if pts else 0)
    return _search(pts, r, None)


def colored_tverberg_partition(
    points: Sequence[Point], r: int, coloring: Sequence[Sequence[int]]
) -> TverbergPartition:
    """Like tverberg_partition, restricted to rainbow partitions.

    Requires prime r and color classes of at most r - 1 vertices each.
    """
    pts = tuple(tuple(p) for p in points)
    if not is_prime(r):
        raise ValueError(f"rainbow search requires prime r, got {r}")
    for ci, cls in enumerate(coloring):
        if len(cls) > r - 1:
            raise ValueError(f"color class {ci} exceeds r-1 = {r - 1} vertices")
    _check_count(len(pts), r, len(pts[0]) if pts else 0)
    return _search(pts, r, coloring)


def _check_count(count: int, r: int, dim: int) -> None:
    full = (r - 1) * (dim + 1) + 1
    flat = (r - 1) * dim + 1
    if count not in (full, flat):
        raise ValueError(
            f"need {full} points (or {flat} on a hyperplane) for r={r} "
            f"in dimension {dim}, got {count}"
        )


def _search(pts, r, coloring) -> TverbergPartition:
    # Every partition covers all the points, so one scaling serves them all
    # and each program is the one ``hulls_intersect`` would build.  The LP
    # is called through this module's ``lp_solve``, which the benchmark's
    # tracer wraps.
    q, ints = integer_points(pts)
    refuters: list[list[int]] = []
    for blocks in enumerate_partitions(len(pts), r, coloring, pts):
        # Newest first: partitions close in the canonical order share
        # blocks, so a recent certificate is the likeliest to refute.
        if any(_refutes(masks, blocks) for masks in reversed(refuters)):
            continue
        program = _hulls_program(q, [[ints[i] for i in block] for block in blocks])
        result = lp_solve(program)
        if result.status != FEASIBLE:
            # Two-block certificates refute only their own partition.
            if r > 2:
                refuters.append(_refuter(q, ints, blocks, result.multipliers))
            continue
        witness, per_block = _meeting_point(
            [[pts[i] for i in block] for block in blocks], result.point
        )
        coefficients = {
            i: c
            for block, cs in zip(blocks, per_block)
            for i, c in zip(block, cs)
        }
        partition = TverbergPartition(blocks, coefficients, witness)
        validate_partition(pts, partition)
        return partition
    raise InternalError(
        "partition search exhausted although a partition must exist"
    )


def validate_partition(points: Sequence[Point], partition: TverbergPartition) -> None:
    """Exact re-check of the partition invariants; raises InternalError."""
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
