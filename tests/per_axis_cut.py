"""Test-only reference: the walk's box cut one axis at a time.

This is the cut ``tvpm.solver._narrow`` made before it packed every axis
into one integer.  ``_axes`` gives each point one bitmask per axis and each
axis its keys in bit order; ``_narrow`` reads the axes in turn, with one
Python loop, and stops at the first axis that meets the cut, returning
False when the cut holds against the box from before the block and None
when it holds only against the box cut down to the block.  The packed cut
must agree with it: False exactly when some axis meets the cut before the
box update, and otherwise None, or the same box, as this one gives.
"""

from __future__ import annotations

from typing import Sequence, Union

_Box = list[tuple[int, int]]


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
