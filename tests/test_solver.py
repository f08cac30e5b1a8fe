"""Partition enumeration order, hull intersection, and Tverberg search."""

from __future__ import annotations

import gc
import random
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from tvpm import lp, plus_minus_partition, solver
from tvpm.errors import InternalError
from bareiss import affine_dependence
from lift_search import search_lift
from search_counts import counting
from tuple_walk import reference_partitions
from tvpm.lp import INFEASIBLE, LpResult, integer_points, lp_solve
from tvpm.separation import (
    LiftedConfiguration,
    lift_configuration,
    separating_hyperplane,
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
        bits, keys = solver._axes([(0,), (10,), (0,), (10,)])
        block = [bits[0][0] | bits[1][0]]
        pool = [0b1111]
        box = [(0, 10)]
        # The leftover keys alone fail the cut, so no larger block out of
        # the same pool passes it either.
        assert solver._narrow(keys, block, pool, box, 2) is False
        # One block to come: it is the leftover pair, whose box meets.
        assert solver._narrow(keys, block, pool, box, 1) == [(0, 10)]

    def test_a_cut_block_can_still_grow(self):
        # {0} (key 0) leaves {1, 2} (keys 5, 10), whose box misses it; {0, 2}
        # (keys 0, 10) leaves {1}, whose box lies inside it.
        bits, keys = solver._axes([(0,), (5,), (10,)])
        pool = [0b111]
        box = [(0, 10)]
        assert solver._narrow(keys, bits[0], pool, box, 1) is None
        grown = [bits[0][0] | bits[2][0]]
        assert solver._narrow(keys, grown, pool, box, 1) == [(0, 10)]
        assert list(enumerate_partitions(3, 2, points=[(0,), (5,), (10,)])) == [
            ((0, 2), (1,))
        ]

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
    coloring = None
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
        bounds = [0, *cuts, n]
        coloring = [sorted(order[a:b]) for a, b in zip(bounds, bounds[1:])]
    return n, r, coloring, points


class TestBitsetWalk:
    """The walk on point bitmasks lists what the tuple walk it replaced
    lists (``tests/tuple_walk.py``), in the same order."""

    @settings(max_examples=300, deadline=None)
    @given(walk_inputs())
    def test_listing_is_the_tuple_walks(self, args):
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
        # Each sum or difference of coordinates is a linear function of the
        # lifted points, so a partition the search's walk drops beyond the
        # coordinates-only walk has hulls that miss.
        dropped = 0
        for seed in range(2):
            config = gen.separable_configuration(seed, d, r, mu_size, colored)
            lift = lift_configuration(config, separating_hyperplane(config))
            keys = solver._walk_keys(lift.vectors, lift.weights)
            dim = len(lift.vectors[0])
            n = len(keys)
            coloring = config.coloring if colored else None
            coordinates = list(
                enumerate_partitions(n, r, coloring, [k[:dim] for k in keys])
            )
            searched = list(enumerate_partitions(n, r, coloring, keys))
            kept = set(searched)
            assert searched == [b for b in coordinates if b in kept]
            points = lift.points
            for blocks in coordinates:
                if blocks not in kept:
                    dropped += 1
                    hit = hulls_intersect([[points[i] for i in b] for b in blocks])
                    assert hit is None, blocks
        assert dropped > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_a_constant_coordinate_gives_no_axis(self, seed):
        # tverberg_partition's columns (P_t, q) end in the same q for every
        # point: in dimension 2 the keys are the two coordinates, their sum
        # and their difference, and the listing is the one the full set of
        # 9 axes, the constant one and its sums and differences included,
        # gives.
        rng = random.Random(seed)
        q, ints = integer_points([gen.random_point(rng, 2) for _ in range(7)])
        columns = [(*p, q) for p in ints]
        keys = solver._walk_keys(columns, [q] * 7)
        assert keys == solver._walk_keys(ints, [q] * 7)
        assert all(len(key) == 4 for key in keys)
        full = [
            [*c, *(a + b for a, b in combinations(c, 2))]
            + [a - b for a, b in combinations(c, 2)]
            for c in columns
        ]
        assert list(enumerate_partitions(7, 3, None, keys)) == list(
            enumerate_partitions(7, 3, None, full)
        )


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
        for seed in range(2):
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
        config = gen.separable_configuration(0, 2, 3, 2)
        with pytest.raises(InternalError, match="multipliers"):
            plus_minus_partition(config)

    # The LP counts were 111 and 110 with one sum row per block; the lift's
    # programs keep block 0's alone, and their certificates refute more.
    # The walk listed 485 and 1155 partitions, with 97 and 92 LPs, while it
    # cut on the coordinates alone; the pairwise sum and difference axes
    # drop more of the partitions whose hulls miss.  While the simplex
    # decided every program there were 62 and 50 of them; the elimination's
    # certificates refute other partitions, and the simplex is left with
    # the singular programs alone.
    @pytest.mark.parametrize(
        "d, r, mu_size, partitions, programs, lps",
        [(3, 3, 2, 204, 63, 19), (2, 4, 3, 204, 47, 24)],
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
