"""Certificate verification (tamper matrix), the integer verifier against
its ``Fraction`` reference (``tests/fraction_verify.py``), and the
brute-force oracle."""

from __future__ import annotations

import random
import time
from dataclasses import replace
from fractions import Fraction
from functools import cache
from math import inf
from operator import mul
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from fraction_verify import reference_verify
from test_certificate_digests import DIGESTS
from tvpm import Configuration, Hyperplane, plus_minus_partition
from tvpm.linalg import dot
from tvpm.model import (
    CLASSICAL,
    COLORED,
    PlusMinusCertificate,
    parse_certificate,
    parse_configuration,
)
from tvpm.separation import separating_hyperplane, trivial_hyperplane
from tvpm import verifier
from tvpm.lp import (
    FEASIBLE,
    INFEASIBLE,
    Constraint,
    LinearProgram,
    integer_points,
    lp_solve,
)
from tvpm.solver import enumerate_partitions
from tvpm.verifier import (
    oracle_enumerate,
    signed_presentation,
    verify_certificate,
)

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"

LINE3 = parse_configuration((FIXTURES / "line3.txt").read_text())
LINE3_CERT = parse_certificate((FIXTURES / "line3.cert").read_text())
PLANE7 = parse_configuration((FIXTURES / "colored_plane7.txt").read_text())
PLANE7_CERT = parse_certificate((FIXTURES / "colored_plane7.cert").read_text())


def certificate_for_partition(
    config: Configuration,
    blocks,
    hyperplane: Optional[Hyperplane] = None,
) -> Optional[PlusMinusCertificate]:
    """Build a certificate for ``blocks`` from the direct solve, or None.

    The normalizer is pinned by the certificate identity
    beta * (<b, w> - alpha) = 1; it is positive whenever some block avoids
    the marked face, which the face-size precondition guarantees.
    """
    solution = signed_presentation(config, blocks)
    if solution is None:
        return None
    coefficients, b = solution
    if hyperplane is None:
        if config.mu:
            hyperplane = separating_hyperplane(config)
        else:
            hyperplane = trivial_hyperplane(config)
    denom = dot(b, hyperplane.w) - hyperplane.alpha
    if denom <= 0:
        return None
    return PlusMinusCertificate(
        blocks=blocks,
        coefficients=coefficients,
        point_b=b,
        beta=1 / denom,
        hyperplane=hyperplane,
        rainbow=config.mode == COLORED,
    )


def checked(config, cert):
    """``verify_certificate``'s result, which must be the reference's."""
    result = verify_certificate(config, cert)
    assert result == reference_verify(config, cert)
    return result


def reason(config, cert):
    result = checked(config, cert)
    assert not result.accepted
    return result.reason


class TestAcceptance:
    def test_golden_certificates_accepted(self):
        assert checked(LINE3, LINE3_CERT).accepted
        assert checked(PLANE7, PLANE7_CERT).accepted

    def test_accepted_result_has_no_reason(self):
        assert verify_certificate(LINE3, LINE3_CERT).reason is None

    def test_blocks_need_not_cover_every_vertex(self):
        # r disjoint faces are enough; the uncovered vertex simply gets no
        # coefficient.
        points = ((F(0),), (F(1),), (F(1, 2),), (F(1, 2),), (F(2),))
        config = Configuration(d=1, r=3, points=points, mode=CLASSICAL, mu=())
        cert = PlusMinusCertificate(
            blocks=((0, 1), (2,), (3,)),
            coefficients={0: F(1, 2), 1: F(1, 2), 2: F(1), 3: F(1)},
            point_b=(F(1, 2),),
            beta=F(2, 3),
            hyperplane=Hyperplane((F(1),), F(-1)),
            rainbow=False,
        )
        assert checked(config, cert).accepted

    def test_marked_coefficient_of_zero_is_accepted(self):
        # Marked coefficients are nonpositive, 0 included: on this solve the
        # marked point 10 sits in a block with coefficient exactly 0.
        config = gen.separable_configuration(18, 1, 6, 2)
        cert = plus_minus_partition(config)
        assert 10 in config.mu and cert.coefficients[10] == 0
        assert checked(config, cert).accepted


class TestTamperMatrix:
    def test_dimension_mismatch(self):
        assert reason(LINE3, PLANE7_CERT) == "dimension-mismatch"

    def test_certificate_without_a_hyperplane(self):
        # The dataclass defaults ``hyperplane`` to None; that is a missing
        # dimension, not a traceback.
        cert = replace(LINE3_CERT, hyperplane=None)
        result = verify_certificate(LINE3, cert)
        assert result == verifier.VerifyResult(False, "dimension-mismatch")
        assert result == reference_verify(LINE3, cert)

    def test_block_count_mismatch(self):
        cert = replace(LINE3_CERT, blocks=((0,), (1,), (2,)))
        assert reason(LINE3, cert) == "block-count-mismatch"

    def test_block_empty(self):
        cert = replace(LINE3_CERT, blocks=((), (1, 2)))
        assert reason(LINE3, cert) == "block-empty"

    def test_index_out_of_range(self):
        cert = replace(LINE3_CERT, blocks=((0,), (1, 5)))
        assert reason(LINE3, cert) == "index-out-of-range"

    def test_index_equal_to_the_point_count(self):
        # line3 has points 0, 1, 2: index 3 is the first one past the end.
        cert = replace(LINE3_CERT, blocks=((0,), (1, 3)))
        assert reason(LINE3, cert) == "index-out-of-range"

    def test_blocks_not_disjoint(self):
        cert = replace(LINE3_CERT, blocks=((0, 1), (1, 2)))
        assert reason(LINE3, cert) == "blocks-not-disjoint"

    def test_coefficient_key_mismatch(self):
        cert = replace(LINE3_CERT, coefficients={0: F(1), 1: F(1)})
        assert reason(LINE3, cert) == "coefficient-key-mismatch"

    def test_negated_coefficient_breaks_the_combination(self):
        tampered = dict(LINE3_CERT.coefficients)
        tampered[2] = -tampered[2]
        cert = replace(LINE3_CERT, coefficients=tampered)
        assert reason(LINE3, cert) == "affine-combination-mismatch"

    def test_moved_target_point(self):
        cert = replace(LINE3_CERT, point_b=(F(1),))
        assert reason(LINE3, cert) == "affine-combination-mismatch"

    def test_affine_sum_mismatch(self):
        # Vertex 0 presents b = 0 with any weight, so doubling it keeps
        # the combination intact and only breaks the sum.
        tampered = dict(LINE3_CERT.coefficients)
        tampered[0] = F(2)
        cert = replace(LINE3_CERT, coefficients=tampered)
        assert reason(LINE3, cert) == "affine-sum-mismatch"

    def test_sign_violation_from_config_swap(self):
        # Solved for mu={0}, checked against mu={2}: the presentation is
        # still affine but the signs sit on the wrong vertices.
        other = plus_minus_partition(replace(LINE3, mu=(0,)))
        assert other.blocks == ((0, 1), (2,))
        assert other.coefficients == {0: F(-2), 1: F(3), 2: F(1)}
        assert other.point_b == (F(3),)
        assert reason(LINE3, other) == "sign-violation"

    def test_sign_violation_on_marked_vertex(self):
        # A genuine presentation through vertex 2, but with a positive
        # weight on it although mu = {2} demands nonpositive.
        cert = replace(
            LINE3_CERT,
            blocks=((0, 2), (1,)),
            coefficients={0: F(2, 3), 2: F(1, 3), 1: F(1)},
            point_b=(F(1),),
            beta=F(1, 2),
            hyperplane=Hyperplane((F(1),), F(-1)),
        )
        assert reason(LINE3, cert) == "sign-violation"

    def test_rainbow_without_coloring(self):
        cert = replace(LINE3_CERT, rainbow=True)
        assert reason(LINE3, cert) == "rainbow-without-coloring"

    def test_rainbow_violation(self):
        points = ((F(0),), (F(1),), (F(1, 2),), (F(1, 2),), (F(2),))
        config = Configuration(
            d=1,
            r=3,
            points=points,
            mode=COLORED,
            coloring=((0, 1), (2, 3), (4,)),
            mu=(),
        )
        cert = PlusMinusCertificate(
            blocks=((0, 1), (2,), (3,)),
            coefficients={0: F(1, 2), 1: F(1, 2), 2: F(1), 3: F(1)},
            point_b=(F(1, 2),),
            beta=F(2, 3),
            hyperplane=Hyperplane((F(1),), F(-1)),
            rainbow=True,
        )
        assert reason(config, cert) == "rainbow-violation"

    def test_hyperplane_flipped(self):
        cert = replace(LINE3_CERT, hyperplane=Hyperplane((F(1),), F(-2)))
        assert reason(LINE3, cert) == "hyperplane-not-separating"

    def test_hyperplane_zero_normal(self):
        cert = replace(LINE3_CERT, hyperplane=Hyperplane((F(0),), F(-2)))
        assert reason(LINE3, cert) == "hyperplane-not-separating"

    def test_hyperplane_through_a_point(self):
        # Strictness: touching an unmarked vertex is already a rejection.
        cert = replace(LINE3_CERT, hyperplane=Hyperplane((F(-1),), F(0)))
        assert reason(LINE3, cert) == "hyperplane-not-separating"

    def test_hyperplane_through_a_marked_point(self):
        # The marked vertex 2, at 3, must lie strictly on its own side too.
        cert = replace(LINE3_CERT, hyperplane=Hyperplane((F(-1),), F(-3)))
        assert reason(LINE3, cert) == "hyperplane-not-separating"

    def test_beta_not_positive(self):
        cert = replace(
            LINE3_CERT, beta=F(-1, 2), coefficients=dict(LINE3_CERT.coefficients)
        )
        assert reason(LINE3, cert) == "beta-not-positive"
        assert reason(LINE3, replace(LINE3_CERT, beta=F(0))) == "beta-not-positive"

    def test_beta_mismatch(self):
        cert = replace(LINE3_CERT, beta=F(1, 3))
        assert reason(LINE3, cert) == "beta-mismatch"


# Cells whose solved certificates the perturbation test nudges.
PERTURBED_CELLS = (
    (2, 3, 2, False),
    (4, 2, 1, False),
    (1, 5, 2, False),
    (1, 5, 3, True),
)


@cache
def solved_certificates():
    """The goldens and one solved certificate per cell and seed 0–1."""
    solved = [(LINE3, LINE3_CERT), (PLANE7, PLANE7_CERT)]
    for cell in PERTURBED_CELLS:
        for seed in range(2):
            config = gen.separable_configuration(f"perturb{seed}", *cell)
            solved.append((config, plus_minus_partition(config)))
    return solved


def nudged(values, index, delta):
    return tuple(v + delta if t == index else v for t, v in enumerate(values))


@st.composite
def perturbed_certificates(draw):
    """A solved certificate with one coefficient, ``point_b`` entry, ``beta``,
    ``w`` entry or ``alpha`` moved by a rational."""
    config, cert = draw(st.sampled_from(solved_certificates()))
    delta = draw(st.fractions(max_denominator=10**6))
    field = draw(st.sampled_from(("coefficient", "point_b", "beta", "w", "alpha")))
    if field == "coefficient":
        i = draw(st.sampled_from(sorted(cert.coefficients)))
        coefficients = dict(cert.coefficients)
        coefficients[i] += delta
        return config, replace(cert, coefficients=coefficients)
    if field == "point_b":
        m = draw(st.integers(0, config.d - 1))
        return config, replace(cert, point_b=nudged(cert.point_b, m, delta))
    if field == "beta":
        return config, replace(cert, beta=cert.beta + delta)
    w, alpha = cert.hyperplane.w, cert.hyperplane.alpha
    if field == "w":
        m = draw(st.integers(0, config.d - 1))
        return config, replace(cert, hyperplane=Hyperplane(nudged(w, m, delta), alpha))
    return config, replace(cert, hyperplane=Hyperplane(w, alpha + delta))


class TestAgainstFractionReference:
    """The integer verifier returns the reference's ``VerifyResult``, verdict
    and reason alike; the goldens and the tamper matrix above are checked
    through ``checked`` the same way."""

    @pytest.mark.parametrize("case", sorted(DIGESTS), ids=str)
    def test_digest_certificates(self, case):
        d, r, mu_size, colored, seed = case
        config = gen.separable_configuration(seed, d, r, mu_size, colored)
        assert checked(config, plus_minus_partition(config)).accepted

    @settings(max_examples=300, deadline=None)
    @given(perturbed_certificates())
    def test_perturbed_certificates(self, case):
        checked(*case)


# Two blocks in the plane around b = (1/2, 1/3): block j is b + v_j, b and
# b - v_j with coefficients (t_j, 1 - 2 t_j, t_j), which sum to 1 and
# present b for every t_j.  t_0 and t_1 have coprime denominators of
# hundreds of digits.
BIG_0 = 3 * 7**400
BIG_1 = 5 * 11**300
CENTER = (F(1, 2), F(1, 3))


def spread(t, v):
    return (
        tuple(b + c for b, c in zip(CENTER, v)),
        CENTER,
        tuple(b - c for b, c in zip(CENTER, v)),
    ), (t, 1 - 2 * t, t)


def large_certificate():
    points_0, weights_0 = spread(F(1, 3) + F(1, 7**400), (F(1), F(2, 7)))
    points_1, weights_1 = spread(F(1, 5) + F(1, 11**300), (F(3, 5), F(-1)))
    config = Configuration(
        d=2, r=2, points=points_0 + points_1, mode=CLASSICAL, mu=()
    )
    cert = PlusMinusCertificate(
        blocks=((0, 1, 2), (3, 4, 5)),
        coefficients=dict(enumerate(weights_0 + weights_1)),
        point_b=CENTER,
        beta=F(2, 21),
        hyperplane=Hyperplane((F(1), F(0)), F(-10)),
        rainbow=False,
    )
    return config, cert


class TestLargeNumbers:
    def test_large_coprime_denominators_are_accepted(self):
        config, cert = large_certificate()
        assert {c.denominator for c in cert.coefficients.values()} == {BIG_0, BIG_1}
        start = time.process_time()
        assert checked(config, cert).accepted
        assert time.process_time() - start < 1

    def test_each_block_is_scaled_by_its_own_denominator(self, monkeypatch):
        scales = []
        original = verifier.common_denominator

        def recording(values):
            scales.append(original(values))
            return scales[-1]

        monkeypatch.setattr(verifier, "common_denominator", recording)
        config, cert = large_certificate()
        assert verify_certificate(config, cert).accepted
        assert BIG_0 in scales and BIG_1 in scales
        assert not any(s % BIG_0 == 0 and s % BIG_1 == 0 for s in scales)

    @pytest.mark.parametrize("i", range(6))
    def test_nudged_large_coefficient(self, i):
        config, cert = large_certificate()
        coefficients = dict(cert.coefficients)
        coefficients[i] += F(1, 13**250)
        assert reason(config, replace(cert, coefficients=coefficients)) == (
            "affine-combination-mismatch"
        )

    def test_unreachable_point_denominator_is_a_mismatch(self):
        # Block 0 of line3 is vertex 0 alone, at 0 with coefficient 1: its
        # integer combination is a whole number, b's is not.
        for b in (F(1, 3), F(1, 17**300), F(5**200, 17**300)):
            cert = replace(LINE3_CERT, point_b=(b,))
            assert reason(LINE3, cert) == "affine-combination-mismatch"
        config, cert = large_certificate()
        point_b = (CENTER[0], CENTER[1] + F(1, 19**300))
        assert reason(config, replace(cert, point_b=point_b)) == (
            "affine-combination-mismatch"
        )


class TestOracle:
    def test_worked_instance_listing(self):
        assert oracle_enumerate(LINE3) == [((0,), (1, 2))]

    def test_classical_radon_listing(self):
        points = ((F(0),), (F(1),), (F(2),))
        config = Configuration(d=1, r=2, points=points, mode=CLASSICAL, mu=())
        assert oracle_enumerate(config) == [((0, 2), (1,))]

    def test_interior_face_has_empty_listing(self):
        assert oracle_enumerate(replace(LINE3, mu=(1,))) == []

    def test_rainbow_listing_is_the_unique_partition(self):
        assert oracle_enumerate(PLANE7) == [PLANE7_CERT.blocks]

    def test_soundness_every_listed_partition_certifies(self):
        for i in range(6):
            config = gen.separable_configuration(f"sound{i}", d=1, r=3, mu_size=2)
            listing = oracle_enumerate(config)
            assert listing
            for blocks in listing:
                cert = certificate_for_partition(config, blocks)
                assert cert is not None
                assert verify_certificate(config, cert).accepted

    def test_completeness_pipeline_blocks_are_listed(self):
        for i in range(6):
            config = gen.separable_configuration(f"complete{i}", d=2, r=2, mu_size=1)
            cert = plus_minus_partition(config)
            assert cert.blocks in oracle_enumerate(config)


def free_point_program(config: Configuration, blocks) -> LinearProgram:
    """Reference: the oracle's program with the common point ``b`` as ``d``
    free variables of its own, which every block, block 0 included,
    presents.  ``r * (d + 1)`` rows on ``n + 2 * d`` nonnegative variables:
    one per vertex, its column negated on a marked vertex, and each ``b_m``
    as the difference of a column pair."""
    flat = [i for block in blocks for i in block]
    position = {i: t for t, i in enumerate(flat)}
    sign = {i: -1 if i in config.mu else 1 for i in flat}
    d = config.d
    q, points = integer_points(config.points)
    nvar = len(flat) + 2 * d
    cons = []
    for block in blocks:
        coeffs = [0] * nvar
        for i in block:
            coeffs[position[i]] = sign[i] * q
        cons.append(Constraint(tuple(coeffs), q))
    for block in blocks:
        for m in range(d):
            coeffs = [0] * nvar
            for i in block:
                coeffs[position[i]] = sign[i] * points[i][m]
            coeffs[len(flat) + 2 * m] = -q
            coeffs[len(flat) + 2 * m + 1] = q
            cons.append(Constraint(tuple(coeffs), 0))
    return LinearProgram(nvar, tuple(cons))


def oracle_programs(monkeypatch, config):
    """The oracle's listing of ``config`` and every partition it listed, each
    with its program: those its interval test dropped as well as those it
    solved, which must be the same programs in the same order."""
    solved, partitions = [], []

    def recording_solve(lp):
        solved.append(lp)
        return lp_solve(lp)

    def recording_partitions(*args):
        for blocks in enumerate_partitions(*args):
            partitions.append(blocks)
            yield blocks

    monkeypatch.setattr(verifier, "lp_solve", recording_solve)
    monkeypatch.setattr(verifier, "enumerate_partitions", recording_partitions)
    listing = oracle_enumerate(config)
    monkeypatch.undo()
    q, points = integer_points(config.points)
    members = set(config.mu)
    programs = [
        verifier._presentation_program(q, points, members, blocks)
        for blocks in partitions
    ]
    remaining = iter(programs)
    assert all(program in remaining for program in solved)
    return listing, list(zip(partitions, programs, strict=True))


ORACLE_CONFIGS = {
    "plain (2,3,2)": gen.separable_configuration(0, 2, 3, 2),
    "colored (2,3,2)": gen.separable_configuration(0, 2, 3, 2, True),
    "line3": LINE3,
    "colored_plane7": PLANE7,
}


class TestOracleProgram:
    """The oracle couples each block to block 0 instead of to a free point;
    both programs ask the same question of every partition."""

    @pytest.mark.parametrize("name", list(ORACLE_CONFIGS))
    def test_same_verdicts_as_the_free_point_program(self, monkeypatch, name):
        config = ORACLE_CONFIGS[name]
        listing, solved = oracle_programs(monkeypatch, config)
        feasible = []
        for blocks, program in solved:
            verdict = lp_solve(program).status
            assert verdict == lp_solve(free_point_program(config, blocks)).status
            if verdict == FEASIBLE:
                feasible.append(blocks)
        assert feasible == listing
        assert listing
        if config.r > 2:
            assert len(listing) < len(solved)

    @pytest.mark.parametrize("name", list(ORACLE_CONFIGS))
    def test_rows_and_columns(self, monkeypatch, name):
        config = ORACLE_CONFIGS[name]
        n, d, r = len(config.points), config.d, config.r
        _, solved = oracle_programs(monkeypatch, config)
        for blocks, program in solved:
            assert program.num_vars == n
            assert len(program.constraints) == r + (r - 1) * d
            reference = free_point_program(config, blocks)
            assert reference.num_vars == n + 2 * d
            assert len(reference.constraints) == r * (d + 1)

    def test_the_point_is_block_zeros_combination(self):
        config = ORACLE_CONFIGS["plain (2,3,2)"]
        for blocks in oracle_enumerate(config):
            coefficients, b = signed_presentation(config, blocks)
            for block in blocks:
                assert sum(coefficients[i] for i in block) == 1
                assert b == tuple(
                    sum(coefficients[i] * config.points[i][m] for i in block)
                    for m in range(config.d)
                )


# (d, r) cells of the interval test's configurations: every partition goes
# through ``lp_solve`` for the exhaustive listing, so the cells stay at nine
# points or fewer.
SMALL_CELLS = ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2), (3, 3))


def small_integer_configuration(seed) -> Configuration:
    """Coordinates in -2..2, so points tie on an axis and repeat; a random
    marked set, empty or not; colored classes of at most ``r - 1`` vertices
    when ``r`` is prime and a coin says so."""
    rng = random.Random(f"intervals{seed}")
    d, r = rng.choice(SMALL_CELLS)
    n = (r - 1) * (d + 1) + 1
    points = tuple(
        tuple(F(rng.randint(-2, 2)) for _ in range(d)) for _ in range(n)
    )
    mu = tuple(sorted(rng.sample(range(n), rng.randint(0, n // 2))))
    if r in (2, 3) and rng.random() < 0.5:
        order = rng.sample(range(n), n)
        coloring, start = [], 0
        while start < n:
            size = rng.randint(1, r - 1)
            coloring.append(tuple(sorted(order[start : start + size])))
            start += size
        return Configuration(
            d=d, r=r, points=points, mode=COLORED, coloring=tuple(coloring), mu=mu
        )
    return Configuration(d=d, r=r, points=points, mode=CLASSICAL, mu=mu)


def axis_and_pair_directions(d: int) -> list[tuple[int, ...]]:
    """The coordinate axes, then ``e_a + e_b`` and ``e_a - e_b`` for each
    pair of axes ``a < b``."""
    axes = [tuple(int(m == a) for m in range(d)) for a in range(d)]
    return axes + [
        tuple(x + sign * y for x, y in zip(axes[a], axes[b]))
        for a in range(d)
        for b in range(a + 1, d)
        for sign in (1, -1)
    ]


def interval_rule(keys, members, blocks) -> bool:
    """The interval rule of ``verifier._intervals_miss``'s docstring on
    ``keys[i]``, point ``i``'s values on each direction, with infinite
    ends: the reference the bitmasks are checked against."""
    lows, highs = [], []
    for block in blocks:
        unmarked = [keys[i] for i in block if i not in members]
        marked = [keys[i] for i in block if i in members]
        if not unmarked:
            return True
        low = [min(values) for values in zip(*unmarked)]
        high = [max(values) for values in zip(*unmarked)]
        if marked:
            columns = list(zip(*marked))
            low = [u if u >= max(v) else -inf for u, v in zip(low, columns)]
            high = [u if u <= min(v) else inf for u, v in zip(high, columns)]
        lows.append(low)
        highs.append(high)
    return any(max(low) > min(high) for low, high in zip(zip(*lows), zip(*highs)))


def interval_masks(points, directions=None):
    if directions is None:
        directions = verifier._directions(points)
    return verifier._gap_masks(points, directions)


class TestIntervalTest:
    """The oracle drops a partition, before its LP, only when its blocks'
    signed intervals miss on one of its directions, so it lists what
    solving every partition's program lists."""

    @pytest.mark.parametrize("seed", range(40))
    def test_dropped_partitions_are_infeasible(self, seed, monkeypatch):
        config = small_integer_configuration(seed)
        coloring = config.coloring if config.mode == COLORED else None
        q, points = integer_points(config.points)
        masks = interval_masks(points)
        members = set(config.mu)
        ends = {}
        exhaustive = []
        kept = 0
        for blocks in enumerate_partitions(len(config.points), config.r, coloring):
            program = verifier._presentation_program(q, points, members, blocks)
            status = lp_solve(program).status
            if verifier._intervals_miss(masks, members, blocks, ends):
                assert status == INFEASIBLE
            else:
                kept += 1
                if status == FEASIBLE:
                    exhaustive.append(blocks)
        # The oracle solves one LP for each partition its directions keep.
        solved = []
        monkeypatch.setattr(
            verifier, "lp_solve", lambda lp: solved.append(lp) or lp_solve(lp)
        )
        assert oracle_enumerate(config) == exhaustive
        assert len(solved) == kept

    @pytest.mark.parametrize("seed", range(40))
    def test_the_masks_decide_as_the_interval_ends(self, seed):
        # Ties, repeated points and marked vertices on both sides of the
        # unmarked ones, on every direction the oracle tries.
        config = small_integer_configuration(seed)
        _, points = integer_points(config.points)
        directions = verifier._directions(points)
        masks = interval_masks(points, directions)
        keys = [
            [sum(map(mul, direction, p)) for direction in directions]
            for p in points
        ]
        members = set(config.mu)
        ends = {}
        for blocks in enumerate_partitions(len(points), config.r, config.coloring):
            assert verifier._intervals_miss(
                masks, members, blocks, ends
            ) == interval_rule(keys, members, blocks)

    def test_the_configurations_drop_and_list(self):
        # The seeds above cover both modes, empty and nonempty marked sets,
        # and both outcomes of the test; the pairwise directions drop some
        # partitions that the coordinate axes alone keep, and the normals
        # of the point differences some that both keep.  The oracle's
        # directions drop every partition that the pairwise ones drop, so
        # these need not be among them.
        configs = [small_integer_configuration(seed) for seed in range(40)]
        assert {c.mode for c in configs} == {CLASSICAL, COLORED}
        assert {bool(c.mu) for c in configs} == {False, True}
        assert {(c.d, c.r) for c in configs} == set(SMALL_CELLS)
        dropped = kept = pairwise = normals = 0
        for config in configs:
            _, points = integer_points(config.points)
            tried = axis_and_pair_directions(config.d)
            axes = interval_masks(points, tried[: config.d])
            pairs = interval_masks(points, tried)
            every = interval_masks(points)
            members = set(config.mu)
            for blocks in enumerate_partitions(
                len(config.points), config.r, config.coloring
            ):
                if verifier._intervals_miss(pairs, members, blocks, {}):
                    assert verifier._intervals_miss(every, members, blocks, {})
                if verifier._intervals_miss(every, members, blocks, {}):
                    dropped += 1
                    if not verifier._intervals_miss(pairs, members, blocks, {}):
                        normals += 1
                    elif not verifier._intervals_miss(axes, members, blocks, {}):
                        pairwise += 1
                else:
                    kept += 1
        assert dropped and kept and pairwise and normals

    def test_the_directions_are_the_axes_then_the_normals(self):
        directions = verifier._directions([(1, 2, 3), (0, -1, 5)])
        # P_1 - P_0 = (-1, -3, 2): its normals in the planes of axes 0 and
        # 1, 0 and 2, 1 and 2 are (3, -1, 0), (-2, 0, -1) and (0, -2, -3),
        # signed so that the first nonzero entry is positive.
        assert directions == [
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (3, -1, 0),
            (2, 0, 1),
            (0, 2, 3),
        ]
        assert verifier._directions([(4,), (-2,)]) == [(1,)]

    def test_the_directions_are_primitive_and_distinct(self):
        # (2, 4) - (0, 0) has normal (-4, 2), so (2, -1) once made
        # primitive; (1, 2) - (0, 0) and (1, 2) - (2, 4) give it again, and
        # the repeated point a zero vector.
        directions = verifier._directions([(0, 0), (2, 4), (1, 2), (0, 0)])
        assert directions == [(1, 0), (0, 1), (2, -1)]

    def test_the_gap_masks_rank_the_values(self):
        # x takes 0, 1 and 3 on three points, so two gaps in a lane of
        # three bits; y ties on every point, so no gap.
        lt, ge, full = verifier._gap_masks(
            [(0, 5), (3, 5), (1, 5)], [(1, 0), (0, 1)]
        )
        assert full == 0b011_011
        assert lt == [0b000_000, 0b000_011, 0b000_001]
        assert ge == [0b011_011, 0b011_000, 0b011_010]

    def test_a_pairwise_direction_separates_where_the_axes_meet(self):
        # {(0,2), (2,0)} spans [0, 2] on both axes and {(0,0), (1,0)} spans
        # [0, 1] and [0, 0], so the axes meet; on x + y the blocks present
        # [2, 2] and [0, 1], which miss.
        config = Configuration(
            d=2,
            r=2,
            points=((F(0), F(2)), (F(2), F(0)), (F(0), F(0)), (F(1), F(0))),
            mode=CLASSICAL,
        )
        blocks = ((0, 1), (2, 3))
        q, points = integer_points(config.points)
        tried = axis_and_pair_directions(2)
        assert not verifier._intervals_miss(
            interval_masks(points, tried[:2]), set(), blocks, {}
        )
        assert verifier._intervals_miss(
            interval_masks(points, tried), set(), blocks, {}
        )
        program = verifier._presentation_program(q, points, set(), blocks)
        assert lp_solve(program).status == INFEASIBLE
        assert blocks not in oracle_enumerate(config)

    def test_a_difference_normal_separates_where_the_pairs_meet(self):
        # The segment from (0,0) to (4,1) and the point (2,1) meet on x, y,
        # x + y and x - y; on (1, -4), the normal of (4,1) - (0,0), the
        # segment presents 0 and the point -2.
        points = [(0, 0), (4, 1), (2, 1)]
        blocks = ((0, 1), (2,))
        assert not verifier._intervals_miss(
            interval_masks(points, axis_and_pair_directions(2)), set(), blocks, {}
        )
        assert (1, -4) in verifier._directions(points)
        assert verifier._intervals_miss(interval_masks(points), set(), blocks, {})
        program = verifier._presentation_program(1, points, set(), blocks)
        assert lp_solve(program).status == INFEASIBLE

    def test_a_block_of_marked_vertices_presents_nothing(self):
        # Vertex 2 alone, marked, has no weights summing to 1.
        _, points = integer_points(LINE3.points)
        ends = {}
        blocks = ((0, 1), (2,))
        assert verifier._intervals_miss(interval_masks(points), {2}, blocks, ends)
        assert ends[(2,)] == ()

    def test_a_marked_vertex_opens_the_interval(self):
        # line3 with mu = {2}: {1, 2} presents 1 + T * (1 - 3), every value
        # down from 1, which meets {0} at 0; {0, 2} reaches only 0 and down,
        # which misses {1} at 1.
        _, points = integer_points(LINE3.points)
        masks = interval_masks(points)
        lt, ge, _ = masks
        ends = {}
        assert not verifier._intervals_miss(masks, {2}, ((0,), (1, 2)), ends)
        assert verifier._intervals_miss(masks, {2}, ((0, 2), (1,)), ends)
        # The low end of {1, 2} is -inf, no gap below it; its high end is
        # vertex 1's value.
        assert ends[(1, 2)] == (0, ge[1])
        assert ends[(0, 2)] == (lt[0], ge[0])


# The cli-oracle workload's cell: every partition's verdict is compared with
# the pairwise programs, so these stay at seven points.
PLANE_CONFIGS = [
    gen.separable_configuration(seed, 2, 3, 2, colored)
    for seed in range(5)
    for colored in (False, True)
] + [c for c in map(small_integer_configuration, range(200)) if c.d == 2]


@pytest.mark.parametrize("index", range(len(PLANE_CONFIGS)))
def test_the_interval_test_is_exact_for_block_pairs_in_the_plane(index):
    # In d = 2 the oracle drops a partition exactly when a block has no
    # unmarked vertex or two of its blocks present no common point.
    config = PLANE_CONFIGS[index]
    q, points = integer_points(config.points)
    masks = interval_masks(points)
    members = set(config.mu)
    ends = {}

    @cache
    def pair_infeasible(first, second):
        program = verifier._presentation_program(q, points, members, (first, second))
        return lp_solve(program).status == INFEASIBLE

    for blocks in enumerate_partitions(len(points), config.r, config.coloring):
        expected = any(members.issuperset(block) for block in blocks) or any(
            pair_infeasible(blocks[i], blocks[j])
            for i in range(len(blocks))
            for j in range(i + 1, len(blocks))
        )
        assert verifier._intervals_miss(masks, members, blocks, ends) == expected


class TestSignedPresentation:
    def test_contradictory_blocks_have_no_presentation(self):
        assert signed_presentation(LINE3, ((0,), (1,))) is None

    def test_presentation_matches_the_golden_values(self):
        coefficients, b = signed_presentation(LINE3, ((0,), (1, 2)))
        assert coefficients == LINE3_CERT.coefficients
        assert b == LINE3_CERT.point_b


class TestCertificateForPartition:
    def test_explicit_hyperplane_is_respected(self):
        alternate = Hyperplane((F(-2),), F(-4))
        cert = certificate_for_partition(LINE3, ((0,), (1, 2)), alternate)
        assert cert is not None
        assert cert.hyperplane == alternate
        assert cert.beta == F(1, 4)
        assert verify_certificate(LINE3, cert).accepted

    def test_infeasible_partition_yields_none(self):
        assert certificate_for_partition(LINE3, ((0, 1), (2,))) is None

    def test_default_hyperplane_matches_the_pipeline(self):
        cert = certificate_for_partition(LINE3, ((0,), (1, 2)))
        assert cert == LINE3_CERT
