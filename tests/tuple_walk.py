"""Test-only reference: the box-pruned partition walk on tuples.

This is the walk ``tvpm.solver.enumerate_partitions`` ran before it held
blocks and pools as point bitmasks.  It builds every block as a tuple, cuts
with ``sorted`` lists of the leftover coordinates, and generates blocks too
large to leave a vertex for each block still to come before it throws them
away.  Its listing is the definition the bitset walk must reproduce: the
same partitions in the same canonical order, for every input, with or
without a coloring and with or without points.

It shares only the coloring check ``_color_of`` with the package.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from tvpm.solver import Blocks, _color_of

_Box = list[tuple[int, int]]


def reference_partitions(
    n_points: int,
    r: int,
    coloring: Optional[Sequence[Sequence[int]]] = None,
    points: Optional[Sequence[Sequence]] = None,
) -> Iterator[Blocks]:
    """The partitions of 0..n_points-1 into r nonempty blocks, in canonical
    order, rainbow under ``coloring`` and with meeting boxes on ``points``."""
    if r < 1:
        raise ValueError("r must be at least 1")
    if n_points < r:
        raise ValueError(f"cannot split {n_points} points into {r} nonempty blocks")
    color_of = None if coloring is None else _color_of(coloring, n_points)
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


def _narrow(
    axes: Sequence[Sequence[int]],
    block: Sequence[int],
    rest: Sequence[int],
    box: _Box,
    k: int,
) -> Optional[_Box]:
    """The running box cut down to ``block``'s box, or None when the ``k``
    blocks still to come out of ``rest`` cannot all meet it."""
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
