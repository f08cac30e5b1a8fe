"""Partition enumeration order, hull intersection, and Tverberg search."""

from __future__ import annotations

import gc
import hashlib
import random
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, permutations
from math import gcd, lcm
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
import per_axis_cut
from tvpm import (
    Configuration,
    lp,
    oracle_enumerate,
    plus_minus_partition,
    serialize_certificate,
    solver,
)
from tvpm.errors import InternalError
from bareiss import affine_dependence
from canonical_functionals import canonical_walk_keys
from lift_search import search_lift
from search_counts import counting
from tuple_walk import reference_partitions
from tvpm.lp import INFEASIBLE, LpResult, integer_points, lp_solve
from tvpm.model import CLASSICAL, COLORED
from tvpm.separation import (
    LiftedConfiguration,
    lift_configuration,
    separating_hyperplane,
    trivial_hyperplane,
)
from tvpm.solver import (
    enumerate_partitions,
    hulls_intersect,
    tverberg_partition,
    validate_partition,
)

F = Fraction


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if k == 0:
        return 1 if n == 0 else 0
    if n == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


class TestEnumeratePartitions:
    def test_three_points_two_blocks_exact_order(self):
        assert list(enumerate_partitions(3, 2)) == [
            ((0,), (1, 2)),
            ((0, 1), (2,)),
            ((0, 2), (1,)),
        ]

    @pytest.mark.parametrize("n, r", [(4, 2), (5, 2), (5, 3), (6, 3), (7, 3), (6, 4)])
    def test_counts_match_stirling_recurrence(self, n, r):
        assert sum(1 for _ in enumerate_partitions(n, r)) == stirling2(n, r)

    def test_canonical_shape_and_no_duplicates(self):
        seen = set()
        for blocks in enumerate_partitions(6, 3):
            assert blocks not in seen
            seen.add(blocks)
            union = []
            for block in blocks:
                assert block == tuple(sorted(block))
                union.extend(block)
            assert sorted(union) == list(range(6))
            mins = [block[0] for block in blocks]
            assert mins == sorted(mins)

    def test_order_is_lexicographic(self):
        listing = list(enumerate_partitions(5, 2))
        assert listing == sorted(listing)

    def test_rainbow_filter(self):
        listing = list(enumerate_partitions(3, 2, coloring=((0, 1), (2,))))
        assert listing == [((0,), (1, 2)), ((0, 2), (1,))]

    def test_rainbow_filter_matches_postfilter(self):
        coloring = ((0, 3), (1, 4), (2,), (5,))
        color_of = {v: ci for ci, cls in enumerate(coloring) for v in cls}

        def rainbow(blocks):
            return all(
                len({color_of[v] for v in block}) == len(block)
                for block in blocks
            )

        pruned = list(enumerate_partitions(6, 3, coloring=coloring))
        filtered = [b for b in enumerate_partitions(6, 3) if rainbow(b)]
        assert pruned == filtered
        assert pruned

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(2, 3))
        with pytest.raises(ValueError):
            list(enumerate_partitions(3, 0))

    def test_coloring_must_cover_every_index(self):
        # Vertex 4 has no class.
        with pytest.raises(ValueError, match="cover"):
            list(enumerate_partitions(5, 3, coloring=((0, 1), (2, 3))))

    def test_coloring_must_not_repeat_an_index(self):
        # Vertex 1 is in classes 0 and 1.
        with pytest.raises(ValueError, match="vertex 1"):
            list(enumerate_partitions(5, 3, coloring=((0, 1), (1, 2), (3, 4))))


def boxes_meet(points, blocks) -> bool:
    """The full box test on a complete partition, in the coordinates."""
    for m in range(len(points[0])):
        lo = max(min(points[v][m] for v in block) for block in blocks)
        hi = min(max(points[v][m] for v in block) for block in blocks)
        if lo > hi:
            return False
    return True


def lifted(seed, d, r, mu_size, colored):
    config = gen.separable_configuration(seed, d, r, mu_size, colored)
    lift = lift_configuration(config, separating_hyperplane(config))
    return lift, config.coloring if colored else None


class TestBoxPruning:
    """With points, the walk lists exactly the partitions the full box
    test passes, in canonical order."""

    # Every (d, r) with r in 2..5 and d in 1..3 whose unpruned listing has
    # at most S(10, 4) = 34105 partitions; colored cells need prime r.
    CELLS = [
        (1, 2, False), (1, 3, False), (1, 4, False), (1, 5, False),
        (2, 2, False), (2, 3, False), (2, 4, False),
        (3, 2, False), (3, 3, False),
        (1, 2, True), (1, 3, True), (1, 5, True),
        (2, 2, True), (2, 3, True), (3, 2, True), (3, 3, True),
    ]

    @pytest.mark.parametrize("d, r, colored", CELLS)
    def test_listing_is_the_box_filtered_listing(self, d, r, colored):
        lift, coloring = lifted(0, d, r, min(2, r - 1), colored)
        points = lift.points
        pruned = list(enumerate_partitions(len(points), r, coloring, points))
        full = enumerate_partitions(len(points), r, coloring)
        assert pruned == [b for b in full if boxes_meet(points, b)]
        assert pruned

    def test_closed_boxes_keep_touching_blocks(self):
        # {0} and {1,2} are apart; the other two splits touch at x = 1.
        points = ((F(0),), (F(1),), (F(1),))
        assert list(enumerate_partitions(3, 2, points=points)) == [
            ((0, 1), (2,)),
            ((0, 2), (1,)),
        ]

    def test_shared_coordinate_never_prunes(self):
        # Every box has lo == hi on the second axis.
        points = tuple((F(x), F(5)) for x in (0, 3, 1, 4, 1, 2, 0))
        pruned = list(enumerate_partitions(7, 3, points=points))
        full = enumerate_partitions(7, 3)
        assert pruned == [b for b in full if boxes_meet(points, b)]
        flat = [(p[0],) for p in points]
        assert pruned == list(enumerate_partitions(7, 3, points=flat))

    @pytest.mark.parametrize("seed", range(6))
    def test_duplicates_and_ties(self, seed):
        rng = random.Random(f"ties-{seed}")
        points = tuple(
            tuple(F(rng.randint(0, 2)) for _ in range(2)) for _ in range(7)
        )
        coloring = ((0, 1), (2, 3), (4, 5), (6,)) if seed % 2 else None
        pruned = list(enumerate_partitions(7, 3, coloring, points))
        full = enumerate_partitions(7, 3, coloring)
        assert pruned == [b for b in full if boxes_meet(points, b)]

    def test_point_count_must_match(self):
        with pytest.raises(ValueError, match="points"):
            list(enumerate_partitions(3, 2, points=((F(0),), (F(1),))))

    def test_points_must_have_one_length(self):
        points = ((F(0),), (F(1), F(2)), (F(3),))
        with pytest.raises(ValueError, match="unequal lengths"):
            list(enumerate_partitions(3, 2, points=points))

    def test_one_cut_needs_one_value_for_every_block_to_come(self):
        # The running box is [0, 10] and the leftover keys are {0, 10}: each
        # bound alone has a vertex on its side for both blocks to come, but
        # no single value has two leftover keys at or below it and two at
        # or above it.
        points = [(0,), (10,), (0,), (10,)]
        lanes, bits = solver._axes(points)
        block = bits[0] | bits[1]
        pool = 0b1111
        box = (lanes.ones, pool)
        # The leftover keys alone fail the cut, so no larger block out of
        # the same pool passes it either.
        assert solver._narrow(lanes, block, pool, box, 2) is False
        # One block to come: it is the leftover pair, whose box meets.
        narrowed = solver._narrow(lanes, block, pool, box, 1)
        assert box_keys(points, narrowed) == [(0, 10)]

    def test_a_cut_block_can_still_grow(self):
        # {0} (key 0) leaves {1, 2} (keys 5, 10), whose box misses it; {0, 2}
        # (keys 0, 10) leaves {1}, whose box lies inside it.
        points = [(0,), (5,), (10,)]
        lanes, bits = solver._axes(points)
        pool = 0b111
        box = (lanes.ones, pool)
        assert solver._narrow(lanes, bits[0], pool, box, 1) is None
        grown = bits[0] | bits[2]
        narrowed = solver._narrow(lanes, grown, pool, box, 1)
        assert box_keys(points, narrowed) == [(0, 10)]
        assert list(enumerate_partitions(3, 2, points=points)) == [((0, 2), (1,))]

    @pytest.mark.parametrize(
        "d, r, mu_size, colored",
        [
            (1, 3, 2, False), (1, 4, 2, False), (2, 3, 2, False),
            (3, 2, 1, False), (4, 2, 1, False), (1, 3, 2, True),
            (2, 3, 2, True), (3, 3, 2, False), (3, 3, 2, True),
        ],
    )
    def test_search_meets_the_unpruned_first_hit(self, d, r, mu_size, colored):
        # The search's walk cuts on the pairwise sums and differences of the
        # coordinates too, which the unpruned listing never looks at.
        for seed in range(2):
            lift, coloring = lifted(seed, d, r, mu_size, colored)
            points = lift.points
            for blocks in enumerate_partitions(len(points), r, coloring):
                hit = hulls_intersect([[points[i] for i in b] for b in blocks])
                if hit is not None:
                    break
            partition = search_lift(lift, r, coloring)
            witness, per_block = hit
            assert partition.blocks == blocks
            assert partition.witness == witness
            assert [
                [partition.coefficients[i] for i in b] for b in blocks
            ] == per_block


@st.composite
def walk_inputs(draw):
    """Arguments of ``enumerate_partitions``: up to 9 points on the integer
    grid [-2, 2]^d, where ties and duplicate points are common, with or
    without a coloring, with or without points, and with or without the
    search's pairwise sum and difference keys."""
    r = draw(st.integers(1, 5))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(r, 9))
    points = None
    if draw(st.booleans()):
        point = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
        points = [draw(point) for _ in range(n)]
        if draw(st.booleans()):
            points = solver._walk_keys(points, [1] * n)
    return n, r, draw_coloring(draw, n), points


def draw_coloring(draw, n: int):
    """None, or a coloring of 0..n-1 into classes of any sizes."""
    if not draw(st.booleans()):
        return None
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    bounds = [0, *cuts, n]
    return [sorted(order[a:b]) for a, b in zip(bounds, bounds[1:])]


@st.composite
def lift_inputs(draw, length: int):
    """Arguments of ``enumerate_partitions`` with the search's walk keys
    (``solver._walk_keys``) on up to 9 homogeneous vectors ``(*p, 1)`` of
    the given length, each ``p`` one of a few points on the grid [-2, 2]:
    coincident points are common.  For the plane, the points all lie on one
    line half the time, where every cross product is 0 on every point."""
    r = draw(st.integers(2, 5))
    n = draw(st.integers(r, 9))
    d = length - 1
    point = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    if d == 2 and draw(st.booleans()):
        (x, y), (u, w) = draw(point), draw(point)
        steps = st.integers(-2, 2)
        base = [[x + t * u, y + t * w] for t in draw(st.lists(steps, min_size=1))]
    else:
        base = draw(st.lists(point, min_size=1, max_size=n))
    vectors = [(*draw(st.sampled_from(base)), 1) for _ in range(n)]
    keys = solver._walk_keys(vectors, [1] * n)
    return n, r, draw_coloring(draw, n), keys


@st.composite
def cut_nodes(draw):
    """A node of the walk's cut: up to 9 points on the grid [-1, 1]^d, a few
    of them repeated and sometimes with a constant first column, so ties
    are common; a pool of them, ``k >= 1`` blocks to come, a block in the
    pool that leaves at least ``k`` of its points, and a running box given
    by two positions ``p <= q`` on each axis."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(2, 9))
    point = st.lists(st.integers(-1, 1), min_size=d, max_size=d)
    base = draw(st.lists(point, min_size=1, max_size=n))
    points = [tuple(draw(st.sampled_from(base))) for _ in range(n)]
    if draw(st.booleans()):
        points = [(0, *p) for p in points]
    pool = sorted(draw(st.sets(st.integers(0, n - 1), min_size=2)))
    k = draw(st.integers(1, len(pool) - 1))
    block = draw(
        st.sets(st.sampled_from(pool), min_size=1, max_size=len(pool) - k)
    )
    box = [
        sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2)))
        for _ in points[0]
    ]
    return points, pool, sorted(block), k, box


def box_keys(points, box) -> list[tuple]:
    """A packed box of ``solver._narrow`` on ``points`` as ``(lo, hi)`` keys
    per axis: each prefix mask's highest bit in a lane is the position of
    its key on that axis."""
    n = len(points)
    lane = (1 << n) - 1
    keys = []
    for a, column in enumerate(zip(*points)):
        values = sorted(column)
        lo, hi = (mask >> a * n & lane for mask in box)
        keys.append((values[lo.bit_length() - 1], values[hi.bit_length() - 1]))
    return keys


class TestPackedCut:
    """The cut on packed lanes decides as the per-axis cut it replaced
    (``tests/per_axis_cut.py``), except that it tests every axis against
    the box from before the block first."""

    @settings(max_examples=500, deadline=None)
    @given(cut_nodes())
    def test_the_verdict_is_the_per_axis_cuts(self, node):
        points, pool, block, k, positions = node
        n = len(points)
        lanes, bits = solver._axes(points)
        packed_box = tuple(
            sum(((2 << box[end]) - 1) << a * n for a, box in enumerate(positions))
            for end in (0, 1)
        )
        verdict = solver._narrow(
            lanes,
            reduce(or_, (bits[v] for v in block)),
            reduce(or_, (bits[v] for v in pool)),
            packed_box,
            k,
        )
        reference_bits, keys = per_axis_cut._axes(points)
        axes = [
            (
                [keys[a]],
                [reduce(or_, (reference_bits[v][a] for v in block))],
                [reduce(or_, (reference_bits[v][a] for v in pool))],
                [(keys[a][p + 1], keys[a][q + 1])],
            )
            for a, (p, q) in enumerate(positions)
        ]
        if any(per_axis_cut._narrow(*axis, k) is False for axis in axes):
            assert verdict is False
            return
        expected = per_axis_cut._narrow(*(sum(c, []) for c in zip(*axes)), k)
        if expected is None:
            assert verdict is None
        else:
            assert verdict not in (None, False)
            assert box_keys(points, verdict) == expected

    def test_a_cut_before_the_box_update_is_false_on_any_axis(self):
        # The block {0} leaves {1, 2}.  On axis 0 their keys 1 and 2 meet the
        # running box [0, 2] but miss the block's key 0 (None there); on
        # axis 1 their keys 0 and 1 miss the running box [2, 2] (False
        # there).  The per-axis loop stopped at axis 0 with None.
        points = [(0, 2), (1, 0), (2, 1)]
        lanes, bits = solver._axes(points)
        box = (0b1 | 0b111 << 3, 0b111 | 0b111 << 3)
        assert box_keys(points, box) == [(0, 2), (2, 2)]
        pool = 0b111 | 0b111 << 3
        assert solver._narrow(lanes, bits[0], pool, box, 1) is False
        assert per_axis_cut._narrow(
            [(None, 0, 1, 2), (None, 0, 1, 2)], [0b1, 0b100], [0b111] * 2,
            [(0, 2), (2, 2)], 1,
        ) is None


class TestBitsetWalk:
    """The walk on packed point bits lists what the tuple walk before it
    lists (``tests/tuple_walk.py``), in the same order."""

    @settings(max_examples=300, deadline=None)
    @given(walk_inputs())
    def test_listing_is_the_tuple_walks(self, args):
        assert list(enumerate_partitions(*args)) == list(reference_partitions(*args))

    @settings(max_examples=200, deadline=None)
    @given(lift_inputs(3))
    def test_planar_search_keys_list_as_the_tuple_walk(self, args):
        assert list(enumerate_partitions(*args)) == list(reference_partitions(*args))

    @settings(max_examples=100, deadline=None)
    @given(lift_inputs(4))
    def test_pairwise_search_keys_list_as_the_tuple_walk(self, args):
        assert list(enumerate_partitions(*args)) == list(reference_partitions(*args))

    def test_a_solve_nests_one_frame_per_block(self):
        # The walk grows each block from a stack and recurses only into the
        # next block: a d = 1 solve needs about r + 20 frames above its
        # caller (65 for r = 60), where a frame per vertex needed about 180.
        r = 60
        config = gen.separable_configuration(0, 1, r, 1)
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + r + 20)
        try:
            cert = plus_minus_partition(config)
        finally:
            sys.setrecursionlimit(limit)
        assert len(cert.blocks) == r

    @pytest.mark.parametrize("colored", [False, True])
    def test_walks_leave_no_reference_cycle(self, colored):
        # Garbage in reference cycles waits for the collector, which raises
        # the peak memory of a long run of solves.
        config = gen.separable_configuration(0, 2, 3, 2, colored)
        lift, coloring = lifted(0, 2, 3, 2, colored)
        points = lift.points
        gc.collect()
        gc.disable()
        try:
            list(enumerate_partitions(len(points), 3, coloring, points))
            list(enumerate_partitions(len(points), 3, coloring))
            # A search stops its walk at the first hit.
            plus_minus_partition(config)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "d, r, mu_size, colored",
        [(2, 3, 2, False), (2, 3, 2, True), (3, 3, 2, False), (3, 3, 2, True)],
    )
    def test_search_axes_drop_only_partitions_whose_hulls_miss(
        self, d, r, mu_size, colored
    ):
        # Every axis of the search's walk is a linear function of the lifted
        # points, so a partition it drops beyond another walk has hulls that
        # miss: beyond the coordinates-only walk, and beyond the walk on the
        # coordinates and their pairwise sums and differences, which are the
        # search's axes for d = 3 and which the normals of the point
        # differences replace for d = 2.
        dropped = {"coordinates": 0, "pairwise": 0}
        for seed in range(2):
            config = gen.separable_configuration(seed, d, r, mu_size, colored)
            lift = lift_configuration(config, separating_hyperplane(config))
            keys = solver._walk_keys(lift.vectors, lift.weights)
            dim = len(lift.vectors[0])
            n = len(keys)
            coloring = config.coloring if colored else None
            coordinates = [k[:dim] for k in keys]
            searched = list(enumerate_partitions(n, r, coloring, keys))
            kept = set(searched)
            points = lift.points
            for name, axes in (
                ("coordinates", coordinates),
                ("pairwise", [pairwise_keys(c) for c in coordinates]),
            ):
                listing = list(enumerate_partitions(n, r, coloring, axes))
                assert searched == [b for b in listing if b in kept]
                for blocks in listing:
                    if blocks not in kept:
                        dropped[name] += 1
                        hit = hulls_intersect([[points[i] for i in b] for b in blocks])
                        assert hit is None, blocks
        assert dropped["coordinates"] > 0
        assert (dropped["pairwise"] > 0) == (d == 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_constant_coordinate_gives_no_axis(self, seed):
        # tverberg_partition's columns (P_t, q) end in the same q for every
        # point: in dimension 2 the keys are the two coordinates and then
        # the lines through two points, and the listing is the one those
        # keys give together with the constant axis and the sums and
        # differences of all three coordinates.
        rng = random.Random(seed)
        q, ints = integer_points([gen.random_point(rng, 2) for _ in range(7)])
        columns = [(*p, q) for p in ints]
        keys = solver._walk_keys(columns, [q] * 7)
        assert [key[:2] for key in keys] == [list(p) for p in ints]
        full = [pairwise_keys(c) + key[2:] for c, key in zip(columns, keys)]
        assert list(enumerate_partitions(7, 3, None, keys)) == list(
            enumerate_partitions(7, 3, None, full)
        )


def pairwise_keys(coordinates: list) -> list:
    """The coordinates, then the sum and then the difference of every pair."""
    pairs = list(combinations(coordinates, 2))
    return [*coordinates, *(a + b for a, b in pairs), *(a - b for a, b in pairs)]


def plane_normals(plane) -> list[tuple[int, int]]:
    """The normals ``(y_t - y_s, x_s - x_t)`` of the differences of the
    points ``(x, y)``, in pair order, each made primitive with its first
    nonzero entry positive, without zeros, repeats or the two axes."""
    normals = []
    for (xs, ys), (xt, yt) in combinations(plane, 2):
        u, w = yt - ys, xs - xt
        if u or w:
            g = gcd(u, w) if (u, w) > (0, 0) else -gcd(u, w)
            normal = (u // g, w // g)
            if normal not in normals and normal not in ((1, 0), (0, 1)):
                normals.append(normal)
    return normals


def collinear(plane) -> bool:
    """Whether the points ``(x, y)`` lie on one line."""
    (x0, y0), *rest = plane
    return all(
        (xs - x0) * (yt - y0) == (xt - x0) * (ys - y0)
        for (xs, ys), (xt, yt) in combinations(rest, 2)
    )


def chart_keys(vectors, weights) -> list[list[int]]:
    """Planar walk keys taken in a coordinate chart: the varying
    coordinates of the points ``H_t / N_t`` over one common multiple of the
    weights, then ``plane_normals`` of the first plane of two of them on
    which the points are not collinear, none when there is no such plane.
    The walk on these keys is the reference the cross-product keys of
    ``solver._walk_keys`` are checked against."""
    common = lcm(*weights)
    rows = [[h * (common // w) for h in v] for v, w in zip(vectors, weights)]
    varying = [column for column in zip(*rows) if len(set(column)) > 1]
    keys = [list(point) for point in zip(*varying)] or [[] for _ in rows]
    for xs, ys in combinations(varying, 2):
        plane = list(zip(xs, ys))
        if not collinear(plane):
            normals = plane_normals(plane)
            for key, (x, y) in zip(keys, plane):
                key += [u * x + w * y for u, w in normals]
            break
    return keys


def degenerate(r, points, mu=(), coloring=None):
    return Configuration(
        2,
        r,
        tuple((F(x), F(y)) for x, y in points),
        CLASSICAL if coloring is None else COLORED,
        coloring,
        mu,
    )


DUPLICATES = ((0, 0), (0, 0), (2, 0), (2, 0), (0, 2), (0, 2), (1, 1))
COLLINEAR = ((0, 0), (1, 2), (2, 4), (3, 6), (-1, -2), (5, 10), (2, 4))


class TestPlanarNormals:
    """For d = 2 the walk cuts on the coordinates and on the lines through
    two points, the cross products of their homogeneous vectors, which
    lists no partition with two blocks whose hulls miss."""

    # The whole listing of a (2, 5, 4) walk takes seconds per seed; there
    # the listing is checked up to the search's hit, which is what a solve
    # lists.
    @pytest.mark.parametrize(
        "d, r, mu_size, colored, whole",
        [
            (2, 3, 2, False, True), (2, 4, 3, False, True),
            (2, 5, 4, False, False), (2, 3, 2, True, True),
            (2, 5, 4, True, False),
        ],
    )
    def test_listed_blocks_meet_pairwise(self, d, r, mu_size, colored, whole):
        listed = 0
        for seed in range(5):
            lift, coloring = lifted(seed, d, r, mu_size, colored)
            points = lift.points
            keys = solver._walk_keys(lift.vectors, lift.weights)
            assert len(keys[0]) > 3
            hit = None if whole else search_lift(lift, r, coloring).blocks
            # Listed partitions share most of their block pairs.
            meet = {}
            for blocks in enumerate_partitions(len(points), r, coloring, keys):
                listed += 1
                for pair in combinations(blocks, 2):
                    if pair not in meet:
                        meet[pair] = hulls_intersect(
                            [[points[i] for i in b] for b in pair]
                        ) is not None
                    assert meet[pair], (seed, blocks, pair)
                if blocks == hit:
                    break
        assert listed > 0

    def test_the_normals_are_the_lines_through_two_points(self):
        # The points (a, 1 - a, z) lie on x + y = 1, which projects onto
        # the (x, y) plane as a line; the keys need no such projection.
        # Every normal is 0 at two points, and every two points are 0 on
        # the cross product of their vectors, (0, 1, 0) x (1, 0, 2) = (2,
        # 0, -1) for points 0 and 2, or, where it is a unit vector, on that
        # coordinate: (0, 1, 0) x (2, -1, 0) = (0, 0, -2) for points 0, 1.
        vectors = [(0, 1, 0), (2, -1, 0), (1, 0, 2), (1, 0, -2), (3, -2, 1)]
        keys = solver._walk_keys(vectors, [1] * 5)
        columns = list(zip(*keys))
        normals = columns[3:]
        assert all(column.count(0) >= 2 for column in normals)
        for s, t in combinations(range(5), 2):
            assert any(column[s] == column[t] == 0 for column in columns)
        assert tuple(2 * x - z for x, _, z in vectors) in normals
        # Segments {0, 1} and {2, 3} cross at (1, 0, 0).  {0, 2} and {1, 3}
        # are parallel, 2x - z being 0 on one and 4 on the other, yet their
        # boxes on the coordinates meet.
        listing = list(enumerate_partitions(4, 2, None, keys[:4]))
        assert ((0, 1), (2, 3)) in listing
        assert ((0, 2), (1, 3)) not in listing
        assert ((0, 2), (1, 3)) in enumerate_partitions(
            4, 2, None, [k[:3] for k in keys[:4]]
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_the_walk_lists_what_a_chart_walk_lists(self, seed):
        # On the points' plane the line through two points and the normal
        # of their difference in a coordinate chart onto which that plane
        # projects one to one are affine with the same level lines, so they
        # order the points alike up to sign, and the walk's cut is the same
        # on a reversed axis: the cross-product keys list what the chart's
        # keys list.
        inputs = [
            (*lifted(seed, d, r, mu_size, colored), r)
            for d, r, mu_size, colored in (
                (2, 3, 2, False), (2, 4, 3, False), (2, 3, 2, True)
            )
        ]
        # tverberg_partition's columns (P_t, q), whose weights are all q.
        rng = random.Random(seed)
        q, ints = integer_points([gen.random_point(rng, 2) for _ in range(7)])
        columns = tuple((*p, q) for p in ints)
        inputs.append((LiftedConfiguration(columns, (q,) * 7, q), None, 3))
        if seed == 0:
            for config, _, _ in self.DEGENERATE.values():
                hyperplane = (
                    separating_hyperplane(config)
                    if config.mu
                    else trivial_hyperplane(config)
                )
                lift = lift_configuration(config, hyperplane)
                inputs.append((lift, config.coloring, config.r))
        for lift, coloring, r in inputs:
            n = len(lift.vectors)
            keys = solver._walk_keys(lift.vectors, lift.weights)
            chart = chart_keys(lift.vectors, lift.weights)
            assert list(enumerate_partitions(n, r, coloring, keys)) == list(
                enumerate_partitions(n, r, coloring, chart)
            )

    @pytest.mark.parametrize("colored", [False, True])
    def test_every_two_points_tie_on_some_key(self, colored):
        # The line through two distinct points is 0 at both, and where it
        # is a coordinate axis that coordinate is 0 at both.
        for seed in range(5):
            lift, _ = lifted(seed, 2, 3, 2, colored)
            keys = solver._walk_keys(lift.vectors, lift.weights)
            assert not collinear([key[:2] for key in keys])
            for s, t in combinations(range(len(keys)), 2):
                assert keys[s][:3] != keys[t][:3]
                ties = [a == b for a, b in zip(keys[s], keys[t])]
                assert any(ties), (seed, s, t)

    # Per input: the configuration, the number of walk axes of its lift,
    # and the SHA-256 of its certificate as the walk on the coordinates'
    # pairwise sums and differences solved it, the oracle's first partition
    # every time.  Every lift gets its varying coordinates and one cross
    # product per pair of its points, taken as they come.  All-equal points
    # vary in no coordinate, and every product is 0: 6 axes for 4 points,
    # 21 for 7, all constant.  The others vary in three coordinates and get
    # 21 products.  A repeated point gives the product 0, and the products
    # of collinear points are all 0 on every point: constant axes, which tie
    # every pair, cut nothing and change no listing.
    DEGENERATE = {
        "all-equal": (
            degenerate(2, [(1, 1)] * 4),
            6,
            "68035fcaa971988cf332a48471f114e7e7ced39bd7e1b82e508d100e0cfb991c",
        ),
        "all-equal-r3": (
            degenerate(3, [(0, 2)] * 7),
            21,
            "8af091f033cc97fc902fb3c43ab99894255be1483fc078a41e82c60656a915ef",
        ),
        "duplicates": (
            degenerate(3, DUPLICATES),
            24,
            "20b0e7d3ce40e39574ce874ccfcac683e9d9c14cd927f1eeed553213f3d86fab",
        ),
        "duplicates-marked": (
            degenerate(3, DUPLICATES[:6] + ((5, 5),), (6,)),
            24,
            "61c7a71fa1371d8412e8222b33962dc73cf51fdd7e20aaf09706b5abcb36795b",
        ),
        "duplicates-colored": (
            degenerate(3, DUPLICATES, (), ((0, 2), (1, 4), (3, 5), (6,))),
            24,
            "bd220bf84cf5cb4755ef3fd12195734003dc87be098fde795bd1b08582202926",
        ),
        "collinear": (
            degenerate(3, COLLINEAR),
            24,
            "132be544773d259c28e3e747ec776338f097c54ee55eb25f24852cde6820a513",
        ),
        "collinear-marked": (
            degenerate(3, COLLINEAR, (5,)),
            24,
            "0a3f276d32ad2059848482e8eeb5e7bf1055cce4f8185c8ca5a8a89f5adb4fd1",
        ),
        "collinear-colored": (
            degenerate(3, COLLINEAR, (5,), ((0, 1), (2, 3), (4, 5), (6,))),
            24,
            "bd47e9e79bd85f456eeaa96188ebf9a03a18489b03ec798377f35f2cdfe024ef",
        ),
    }

    @pytest.mark.parametrize("name", list(DEGENERATE))
    def test_degenerate_inputs_keep_their_certificates(self, name):
        config, axes, digest = self.DEGENERATE[name]
        cert = plus_minus_partition(config)
        text = serialize_certificate(cert)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert cert.blocks == oracle_enumerate(config)[0]
        hyperplane = (
            separating_hyperplane(config) if config.mu else trivial_hyperplane(config)
        )
        lift = lift_configuration(config, hyperplane)
        keys = solver._walk_keys(lift.vectors, lift.weights)
        assert [len(key) for key in keys] == [axes] * len(keys)


@st.composite
def small_lifts(draw):
    """A homogeneous lift of up to 8 points of a line (``d = 1``) or a
    plane (``d = 2``), with ``r`` and a coloring or None.  Each vector is
    ``H_t = (h, N_t - <a, h>)`` with weight ``N_t = <H_t, (a, 1)> > 0``, so
    every point ``H_t / N_t`` lies on ``<x, (a, 1)> = 1``.  Entries are
    small, so points tie on coordinates, coincide (``(1, 1)`` with weight
    1 and ``(2, 2)`` with weight 2) and three lie on a line; with a coin, a
    planar lift has every point on one line, ``H_t = N_t * (p, 1 - <a,
    p>)`` with ``p`` on it."""
    d = draw(st.integers(1, 2))
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r, 8))
    small = st.integers(-2, 2)
    a = draw(st.lists(small, min_size=d, max_size=d))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    if d == 2 and draw(st.booleans()):
        x, y, dx, dy = (draw(small) for _ in range(4))
        steps = draw(st.lists(small, min_size=n, max_size=n))
        vectors = [
            (w * p, w * q, w * (1 - a[0] * p - a[1] * q))
            for w, k in zip(weights, steps)
            for p, q in [(x + k * dx, y + k * dy)]
        ]
    else:
        heads = [draw(st.lists(small, min_size=d, max_size=d)) for _ in range(n)]
        vectors = [
            (*h, w - sum(c * e for c, e in zip(a, h)))
            for h, w in zip(heads, weights)
        ]
    coloring = None
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
        bounds = [0, *cuts, n]
        coloring = [sorted(order[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return vectors, weights, r, coloring


class TestPlainFunctionals:
    """The walk's axes are plain functionals: the cross products as they
    come, and on a ``d = 1`` line one coordinate.  The walk on them lists
    what it lists on the canonical axes of ``tests/canonical_functionals.py``
    (primitive, signed and deduplicated normals, and on a line the
    coordinates with their pairwise sums and differences)."""

    @settings(max_examples=300, deadline=None)
    @given(small_lifts())
    def test_the_walk_lists_what_the_canonical_walk_lists(self, lift):
        vectors, weights, r, coloring = lift
        n = len(vectors)
        keys = solver._walk_keys(vectors, weights)
        canonical = canonical_walk_keys(vectors, weights)
        assert list(enumerate_partitions(n, r, coloring, keys)) == list(
            enumerate_partitions(n, r, coloring, canonical)
        )

    # search-enum's cells and the frontier's (1, 8, 3); the planar lifts of
    # the generated cells are checked against a chart walk above.
    @pytest.mark.parametrize(
        "r, mu_size, colored", [(5, 2, False), (8, 3, False), (5, 3, True)]
    )
    def test_a_generated_line_lists_as_the_canonical_walk(
        self, r, mu_size, colored
    ):
        for seed in range(5):
            lift, coloring = lifted(seed, 1, r, mu_size, colored)
            n = len(lift.vectors)
            keys = solver._walk_keys(lift.vectors, lift.weights)
            canonical = canonical_walk_keys(lift.vectors, lift.weights)
            assert [len(key) for key in keys] == [1] * n
            assert list(enumerate_partitions(n, r, coloring, keys)) == list(
                enumerate_partitions(n, r, coloring, canonical)
            )

    def test_a_line_has_one_axis(self):
        # tverberg_partition's columns (p, 1) for points 3, -1, 3, 0: the
        # constant 1 is dropped and the first coordinate is the one axis.
        assert solver._walk_keys([(3, 1), (-1, 1), (3, 1), (0, 1)], [1] * 4) == [
            [3], [-1], [3], [0]
        ]
        # A lift on x + y = 1 varies in both coordinates; the first is the
        # axis, over the weights' common multiple 2.
        assert solver._walk_keys([(2, -1), (1, 1), (0, 2)], [1, 2, 2]) == [
            [4], [1], [0]
        ]
        # Coincident points vary in no coordinate: no axis.
        assert solver._walk_keys([(1, 1), (2, 2)], [2, 4]) == [[], []]

    def test_the_normals_are_the_cross_products_as_they_come(self):
        # One product per pair, in pair order, with no gcd, sign or
        # repeat removed: vector 2 repeats vector 0, so their product is 0,
        # (1, 2) reverses (0, 1), and (2, 3) repeats (0, 3).
        vectors = [(1, 0, 1), (0, 1, 1), (1, 0, 1), (2, 2, 2)]
        assert solver._normals(vectors) == [
            (-1, -1, 1),
            (0, 0, 0),
            (-2, 0, 2),
            (1, 1, -1),
            (0, 2, -2),
            (-2, 0, 2),
        ]


class TestTracedNames:
    """The search looks ``enumerate_partitions`` and ``_decide`` up in
    ``tvpm.solver``'s globals, once per search and once per listed
    partition that no kept Farkas certificate refutes, and ``_decide``
    looks up ``lp_solve`` there for each program it cannot eliminate: the
    benchmark's tracer (``perfbench/tracing.py``) wraps ``enumerate_partitions``
    and ``lp_solve``."""

    def test_one_solve_goes_through_both_names(self, monkeypatch):
        refuted = set()
        refuted_original = solver._refuted

        def recording_refuted(table, blocks, live, used):
            hit = refuted_original(table, blocks, live, used)
            # The search recurses through this name; used == 0 only at the
            # top, where ``blocks`` is the listed partition.
            if hit and used == 0:
                refuted.add(blocks)
            return hit

        monkeypatch.setattr(solver, "_refuted", recording_refuted)
        # On (2, 3, 2) seed 0 the walk's axes cut every partition a kept
        # certificate would refute; on (3, 3, 2) the cache still skips some.
        config = gen.separable_configuration(0, 3, 3, 2)
        with counting(solver, lp) as counts:
            plus_minus_partition(config)
        assert counts["searches"] == 1
        assert refuted
        assert counts["programs"] == counts["partitions"] - len(refuted) > 1
        assert counts["lps"] < counts["programs"]


def kept_certificates(monkeypatch) -> list:
    """Every certificate the searches run after this call keep."""
    kept = []
    original = solver._refuter

    def keeping(*args):
        kept.append(original(*args))
        return kept[-1]

    monkeypatch.setattr(solver, "_refuter", keeping)
    return kept


def certificate_table(kept, n_points: int, r: int) -> list[list[int]]:
    """The search's table of ``kept`` per-point masks: bit ``c`` of
    ``table[i][j]`` is bit ``j`` of certificate ``c``'s mask at point ``i``."""
    table = [[0] * r for _ in range(n_points)]
    for c, masks in enumerate(kept):
        for row, mask in zip(table, masks):
            for j in range(r):
                if mask >> j & 1:
                    row[j] |= 1 << c
    return table


def refuted_by_definition(kept, blocks) -> bool:
    """Whether some certificate of ``kept`` has a permutation ``s`` of the
    slots with bit ``s[b]`` set at every point of block ``b``."""
    return any(
        all(masks[i] >> j & 1 for j, block in zip(s, blocks) for i in block)
        for masks in kept
        for s in permutations(range(len(blocks)))
    )


@st.composite
def certificates_and_partitions(draw):
    """``(n, r, kept, blocks)``: 0–30 certificates of random ``r``-bit masks
    per point and any partition of the ``n`` points into ``r`` blocks."""
    r = draw(st.integers(2, 5))
    n = draw(st.integers(r, 12))
    extra = draw(st.lists(st.integers(0, r - 1), min_size=n - r, max_size=n - r))
    labels = draw(st.permutations(list(range(r)) + extra))
    blocks = tuple(tuple(i for i in range(n) if labels[i] == b) for b in range(r))
    masks = st.lists(st.integers(0, (1 << r) - 1), min_size=n, max_size=n)
    kept = draw(st.lists(masks, max_size=30))
    return n, r, kept, blocks


class TestFarkasCache:
    """Each infeasible search LP's Farkas certificate refutes later
    partitions without an LP; it must never refute one whose hulls meet."""

    # The planar walk cuts on the normals of point differences, so it lists
    # no partition with two blocks whose hulls miss, and few planar searches
    # still decide an infeasible program.  (2, 3, 2) keeps one certificate
    # on five of seeds 0-39 plain (2, 21, 24, 27, 36) and four colored (5,
    # 6, 16, 21), and (2, 4, 3) keeps none on seeds 0 and 1.  The planar
    # cells run on seeds whose searches keep certificates, every other cell
    # on seeds 0 and 1.
    SEEDS = {
        (2, 3, 2, False): (2, 21),
        (2, 3, 2, True): (5, 6, 16, 21),
        (2, 4, 3, False): (2, 4),
    }

    @pytest.mark.parametrize(
        "d, r, mu_size, colored, boxed",
        [
            (2, 3, 2, False, False), (3, 3, 2, False, False),
            (2, 3, 2, True, False), (3, 3, 2, True, False),
            # The unpruned (2, 4) listing has 34105 partitions per seed,
            # about half a minute of LPs: check the walk's own listing.
            (2, 4, 3, False, True),
        ],
    )
    def test_refuted_partitions_have_disjoint_hulls(
        self, monkeypatch, d, r, mu_size, colored, boxed
    ):
        refuted = 0
        for seed in self.SEEDS.get((d, r, mu_size, colored), (0, 1)):
            lift, coloring = lifted(seed, d, r, mu_size, colored)
            points = lift.points
            kept = kept_certificates(monkeypatch)
            search_lift(lift, r, coloring)
            monkeypatch.undo()
            assert kept
            listing = enumerate_partitions(
                len(points), r, coloring, points if boxed else None
            )
            table = certificate_table(kept, len(points), r)
            for blocks in listing:
                if solver._refuted(table, blocks, -1, 0):
                    refuted += 1
                    hit = hulls_intersect([[points[i] for i in b] for b in blocks])
                    assert hit is None, blocks
        assert refuted > 100

    @pytest.mark.parametrize("corruption", ["negated", "no-coupling", "missing"])
    def test_a_corrupted_certificate_is_an_internal_error(
        self, monkeypatch, corruption
    ):
        original = solver._decide

        def corrupting(lp):
            result = original(lp)
            y = result.multipliers
            if y is None:
                return result
            if corruption == "negated":
                y = tuple(-v for v in y)
            elif corruption == "no-coupling":
                # The lift's programs have one sum row, block 0's.
                y = y[:1] + (0,) * (len(y) - 1)
            else:
                y = None
            return LpResult(result.status, result.point, y)

        monkeypatch.setattr(solver, "_decide", corrupting)
        # A search that checks a certificate: on (2, 3, 2) seed 0 the planar
        # walk lists the hit first and decides no infeasible program.
        config = gen.separable_configuration(0, 3, 3, 2)
        with pytest.raises(InternalError, match="multipliers"):
            plus_minus_partition(config)

    # The LP counts were 111 and 110 with one sum row per block; the lift's
    # programs keep block 0's alone, and their certificates refute more.
    # The walk listed 485 and 1155 partitions, with 97 and 92 LPs, while it
    # cut on the coordinates alone; the pairwise sum and difference axes
    # drop more of the partitions whose hulls miss.  While the simplex
    # decided every program there were 62 and 50 of them; the elimination's
    # certificates refute other partitions, and the simplex is left with
    # the singular programs alone.  (2, 4, 3) read 204 listed, 47 programs
    # and 24 LPs while the planar walk cut on the pairwise sums and
    # differences; the normals of the point differences list no partition
    # with two blocks whose hulls miss.
    @pytest.mark.parametrize(
        "d, r, mu_size, partitions, programs, lps",
        [(3, 3, 2, 204, 63, 19), (2, 4, 3, 27, 16, 6)],
        ids=["3-3-2", "2-4-3"],
    )
    def test_lp_counts_over_five_seeds(self, d, r, mu_size, partitions, programs, lps):
        with counting(solver, lp) as counts:
            for seed in range(5):
                config = gen.separable_configuration(seed, d, r, mu_size)
                plus_minus_partition(config)
        assert (
            counts["searches"],
            counts["partitions"],
            counts["programs"],
            counts["lps"],
        ) == (5, partitions, programs, lps)

    @settings(max_examples=400, deadline=None)
    @given(certificates_and_partitions())
    def test_the_table_refutes_as_the_certificates_do(self, case):
        n, r, kept, blocks = case
        table = certificate_table(kept, n, r)
        expected = refuted_by_definition(kept, blocks)
        assert solver._refuted(table, blocks, -1, 0) == expected

    def test_two_block_searches_keep_no_certificate(self, monkeypatch):
        kept = kept_certificates(monkeypatch)
        for seed in range(3):
            plus_minus_partition(gen.separable_configuration(seed, 4, 2, 1))
        assert kept == []

    def test_two_block_certificate_refutes_only_its_own_partition(self):
        # Why two-block searches keep none: h_0 + h_1 < 0 puts no point in
        # both regions, so the regions are the partition itself.
        points = lifted(0, 4, 2, 1, False)[0].points
        q, ints = integer_points(points)
        weights = [q] * len(ints)
        listing = list(enumerate_partitions(len(points), 2))
        certificates = 0
        for blocks in listing[:40]:
            lift = LiftedConfiguration(tuple(ints), tuple(weights), q)
            program = solver._hulls_program(lift, blocks)
            result = lp_solve(program)
            if result.status != INFEASIBLE:
                continue
            certificates += 1
            masks = solver._refuter(weights, ints, blocks, result.multipliers)
            table = certificate_table([masks], len(points), 2)
            assert [b for b in listing if solver._refuted(table, b, -1, 0)] == [blocks]
        assert certificates > 10


class TestHullsIntersect:
    def test_crossing_segments(self):
        first = [(F(0), F(0)), (F(2), F(2))]
        second = [(F(0), F(2)), (F(2), F(0))]
        witness, per_block = hulls_intersect([first, second])
        assert witness == (F(1), F(1))
        assert per_block == [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]

    def test_disjoint_segments_on_axis(self):
        first = [(F(0),), (F(1),)]
        second = [(F(2),), (F(3),)]
        assert hulls_intersect([first, second]) is None

    def test_box_overlap_without_hull_overlap(self):
        # The point's box sits inside the segment's box, but the point is
        # off the segment, so only the exact LP can tell them apart.
        segment = [(F(0), F(0)), (F(2), F(2))]
        point = [(F(2), F(0))]
        assert hulls_intersect([segment, point]) is None

    def test_witness_is_reproduced_by_every_block(self):
        rng_points = gen.separable_configuration("hulls", d=2, r=3, mu_size=0).points
        centroid = tuple(sum(c) / len(rng_points) for c in zip(*rng_points))
        blocks = []
        for j in range(3):
            q1, q2 = rng_points[2 * j], rng_points[2 * j + 1]
            q3 = tuple(3 * centroid[m] - q1[m] - q2[m] for m in range(2))
            blocks.append([q1, q2, q3])
        hit = hulls_intersect(blocks)
        assert hit is not None
        witness, per_block = hit
        for blk, cs in zip(blocks, per_block):
            assert sum(cs) == 1
            assert all(c >= 0 for c in cs)
            for m in range(2):
                assert sum(c * p[m] for c, p in zip(cs, blk)) == witness[m]

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            hulls_intersect([[(F(0),)], []])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="unequal lengths"):
            hulls_intersect([[(F(0), F(0))], [(F(0), F(0), F(5))]])


class TestTverbergPartition:
    def test_three_collinear_points(self):
        points = ((F(0),), (F(1),), (F(2),))
        partition = tverberg_partition(points, 2)
        assert partition.blocks == ((0, 2), (1,))
        assert partition.witness == (F(1),)
        assert partition.coefficients == {0: F(1, 2), 2: F(1, 2), 1: F(1)}

    def test_point_inside_triangle(self):
        points = (
            (F(0), F(0)),
            (F(6), F(0)),
            (F(0), F(6)),
            (F(2), F(2)),
        )
        partition = tverberg_partition(points, 2)
        assert partition.blocks == ((0, 1, 2), (3,))
        assert partition.witness == (F(2), F(2))
        assert partition.coefficients == {
            0: F(1, 3), 1: F(1, 3), 2: F(1, 3), 3: F(1),
        }

    def test_planted_three_block_line(self):
        points = ((F(0),), (F(-1),), (F(1),), (F(-3),), (F(3),))
        partition = tverberg_partition(points, 3)
        union = sorted(i for block in partition.blocks for i in block)
        assert union == list(range(5))
        for block in partition.blocks:
            total = sum(partition.coefficients[i] for i in block)
            assert total == 1
            combo = sum(partition.coefficients[i] * points[i][0] for i in block)
            assert combo == partition.witness[0]

    def test_matches_affine_dependence_sign_split(self):
        for i in range(10):
            d = 1 + (i % 3)
            points = gen.generic_radon_points(f"solver{i}", d)
            partition = tverberg_partition(points, 2)
            dep = affine_dependence(points)
            pos = tuple(sorted(j for j, c in enumerate(dep) if c > 0))
            neg = tuple(sorted(j for j, c in enumerate(dep) if c < 0))
            expected = tuple(sorted((pos, neg), key=min))
            assert partition.blocks == expected

    def test_flat_count_rejected(self):
        # Points on a plane embedded in three-space, (r-1)*dim+1 of them:
        # the search takes the full count only, and names it.
        points = tuple(
            (p[0], p[1], F(1)) for p in gen.separable_configuration(
                "flat", d=2, r=2, mu_size=0
            ).points
        )
        with pytest.raises(ValueError, match="need 5 points .* got 4$"):
            tverberg_partition(points, 2)

    @pytest.mark.parametrize("points, r", [((), 0), (((F(0),),), -1)])
    def test_r_below_one_rejected(self, points, r):
        with pytest.raises(ValueError, match="^r must be at least 1$"):
            tverberg_partition(points, r)

    def test_wrong_count_rejected(self):
        points = ((F(0),), (F(1),), (F(2),), (F(3),))
        with pytest.raises(ValueError, match="points"):
            tverberg_partition(points, 2)

    def test_unequal_lengths_rejected(self):
        # The count fits the first point's dimension; the 7 must not be
        # dropped silently.
        points = ((F(0),), (F(1),), (F(2), F(7)))
        with pytest.raises(ValueError, match="unequal lengths"):
            tverberg_partition(points, 2)

    def test_deterministic(self):
        points = gen.separable_configuration("det", d=2, r=2, mu_size=0).points
        assert tverberg_partition(points, 2) == tverberg_partition(points, 2)


class TestColoredTverbergPartition:
    def test_rainbow_blocks_only(self):
        config = gen.separable_configuration(
            "colored-solver", d=2, r=3, mu_size=0, colored=True
        )
        partition = tverberg_partition(config.points, 3, config.coloring)
        color_of = {
            v: ci for ci, cls in enumerate(config.coloring) for v in cls
        }
        for block in partition.blocks:
            colors = [color_of[v] for v in block]
            assert len(set(colors)) == len(colors)

    def test_composite_r_rejected(self):
        points = tuple((F(i), F(i * i)) for i in range(10))
        coloring = tuple((i,) for i in range(10))
        with pytest.raises(ValueError, match="prime"):
            tverberg_partition(points, 4, coloring)

    def test_oversized_class_rejected(self):
        points = ((F(0),), (F(1),), (F(2),))
        with pytest.raises(ValueError, match="class"):
            tverberg_partition(points, 2, ((0, 1), (2,)))


class TestValidatePartition:
    """The search no longer runs ``validate_partition``; it stays a check
    of its own, kept exported for callers outside the solve."""

    CELLS = [(1, 3, 2, False), (2, 3, 2, False), (4, 2, 1, False), (2, 3, 2, True)]

    @pytest.fixture(params=CELLS, ids=str)
    def found(self, request):
        d, r, mu_size, colored = request.param
        lift, coloring = lifted(0, d, r, mu_size, colored)
        return lift.points, search_lift(lift, r, coloring)

    def test_search_results_pass(self, found):
        validate_partition(*found)

    def test_moved_witness_is_refused(self, found):
        points, partition = found
        moved = tuple(c + 1 for c in partition.witness)
        with pytest.raises(InternalError, match="witness"):
            validate_partition(points, replace(partition, witness=moved))

    def test_negative_weight_is_refused(self, found):
        points, partition = found
        block = next(b for b in partition.blocks if len(b) > 1)
        coefficients = dict(partition.coefficients)
        # The block's sum stays 1; only the sign check can refuse it.
        coefficients[block[0]] -= 2
        coefficients[block[1]] += 2
        with pytest.raises(InternalError, match="negative"):
            validate_partition(
                points, replace(partition, coefficients=coefficients)
            )

    def test_overlapping_blocks_are_refused(self, found):
        points, partition = found
        first, second = partition.blocks[:2]
        blocks = (first + second[:1], second) + partition.blocks[2:]
        with pytest.raises(InternalError, match="overlap"):
            validate_partition(points, replace(partition, blocks=blocks))

    def test_empty_block_is_refused(self, found):
        points, partition = found
        blocks = partition.blocks + ((),)
        with pytest.raises(InternalError, match="empty block"):
            validate_partition(points, replace(partition, blocks=blocks))

    def test_index_out_of_range_is_refused(self, found):
        points, partition = found
        blocks = partition.blocks + ((len(points),),)
        with pytest.raises(InternalError, match="out of range"):
            validate_partition(points, replace(partition, blocks=blocks))

    def test_coefficient_keys_must_match_the_blocks(self, found):
        points, partition = found
        coefficients = dict(partition.coefficients)
        del coefficients[partition.blocks[0][0]]
        with pytest.raises(InternalError, match="coefficient keys"):
            validate_partition(
                points, replace(partition, coefficients=coefficients)
            )

    def test_block_sum_must_be_one(self, found):
        points, partition = found
        coefficients = dict(partition.coefficients)
        coefficients[partition.blocks[0][0]] += 1
        with pytest.raises(InternalError, match="sum to 1"):
            validate_partition(
                points, replace(partition, coefficients=coefficients)
            )
