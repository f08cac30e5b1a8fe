"""The integer dictionary simplex against the rational reference kernel.

``fraction_simplex.reference_lp_solve`` runs the same Bland pivots over
``Fraction``s.  The integer kernel must return the identical verdict and
point on every program: random ones in the one form ``A x = b, x >= 0``
with ``int`` and ``Fraction`` entries and right-hand sides of either sign,
the programs the search, the separation step and the oracle build, and the
programs on which the reference's drive-out pivots negatively or drops a
redundant row.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

import fraction_simplex
import gen
from fraction_simplex import reference_lp_solve
from tvpm import lp as lp_module
from tvpm import separation, solver, verifier
from tvpm.lp import (
    FEASIBLE,
    INFEASIBLE,
    Constraint,
    LinearProgram,
    integer_points,
    lp_solve,
    satisfies,
)
from tvpm.pipeline import plus_minus_partition
from tvpm.solver import enumerate_partitions

F = Fraction


def random_scalar(rng: random.Random) -> Fraction:
    return F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 5)))


def random_number(rng: random.Random):
    """An ``int`` or a ``Fraction``: programs come in both."""
    return rng.randint(-4, 4) if rng.random() < 0.3 else random_scalar(rng)


def random_program(rng: random.Random, min_rows: int = 0) -> LinearProgram:
    n = rng.randint(1, 6)
    cons = tuple(
        Constraint(
            tuple(random_number(rng) for _ in range(n)), random_number(rng)
        )
        for _ in range(rng.randint(min_rows, 4))
    )
    return LinearProgram(n, cons)


def test_random_programs_match_the_reference():
    rng = random.Random("integer-kernel")
    seen = {FEASIBLE: 0, INFEASIBLE: 0, "negated": 0}
    for _ in range(600):
        lp = random_program(rng)
        result = lp_solve(lp)
        assert result == reference_lp_solve(lp)
        seen[result.status] += 1
        seen["negated"] += any(con.rhs < 0 for con in lp.constraints)
    # Every verdict, and rows the kernel negates, must occur often enough
    # for the comparison to mean something.
    assert min(seen.values()) >= 30, seen


def _captured_programs(monkeypatch, modules, run) -> list[LinearProgram]:
    captured = []

    def recording_solve(lp):
        captured.append(lp)
        return lp_solve(lp)

    for module in modules:
        monkeypatch.setattr(module, "lp_solve", recording_solve)
    run()
    monkeypatch.undo()
    return captured


@pytest.mark.parametrize(
    "cell", [(2, 3, 2, False), (4, 2, 1, False), (3, 3, 2, False), (2, 3, 2, True)]
)
def test_search_and_separation_programs_match_the_reference(monkeypatch, cell):
    d, r, mu_size, colored = cell

    def run():
        for seed in range(2):
            config = gen.separable_configuration(seed, d, r, mu_size, colored)
            plus_minus_partition(config)

    programs = _captured_programs(monkeypatch, (solver, separation), run)
    # A two-block solve reads its hit off the Radon dependence and runs no
    # search LP, so only its separation LP is left.
    assert len(programs) >= (2 if r == 2 else 3)
    for lp in programs:
        assert lp_solve(lp) == reference_lp_solve(lp)


@pytest.mark.parametrize("colored", [False, True])
def test_oracle_programs_match_the_reference(monkeypatch, colored):
    config = gen.separable_configuration(0, 2, 3, 2, colored)
    coloring = config.coloring if colored else None

    def run():
        partitions = enumerate_partitions(len(config.points), config.r, coloring)
        for blocks in itertools.islice(partitions, 0, None, 4):
            verifier.signed_presentation(config, blocks)

    programs = _captured_programs(monkeypatch, (verifier,), run)
    statuses = set()
    for lp in programs:
        # Built in integers, like the search's and the separation's.
        assert all(type(a) is int for con in lp.constraints for a in con.coeffs)
        assert all(type(con.rhs) is int for con in lp.constraints)
        result = lp_solve(lp)
        assert result == reference_lp_solve(lp)
        statuses.add(result.status)
    assert statuses == {FEASIBLE, INFEASIBLE}


def test_ratio_ties_leave_by_the_lower_basis_index():
    # Phase one's first pivot brings in x, and the first two rows both give
    # the ratio 2.  The row whose basic variable has the lower index leaves;
    # the other choice ends at the vertex (0, 1) instead.  The last three
    # variables are the rows' slacks.
    lp = LinearProgram(
        num_vars=5,
        constraints=(
            Constraint((1, 0, 1, 0, 0), 2),
            Constraint((1, -2, 0, 1, 0), 2),
            Constraint((-1, 1, 0, 0, 1), 1),
        ),
    )
    expected = reference_lp_solve(lp)
    assert expected.point == (F(2), F(3), F(0), F(6), F(0))
    assert lp_solve(lp) == expected


class TestDriveOut:
    """The reference drives zero-valued artificial variables out of the
    basis after phase one; the kernel does not.  The pivots are degenerate,
    so the points must agree."""

    def test_negative_pivot(self):
        # The second row's artificial variable is still basic at zero after
        # phase one, and its first nonzero entry is -5/3: the reference
        # pivots on a negative entry there.  The third variable is the first
        # row's slack.
        lp = LinearProgram(
            num_vars=3,
            constraints=(
                Constraint((F(-1, 3), -1, 1), -2),
                Constraint((2, 1, 0), 2),
            ),
        )
        trace = []
        expected = reference_lp_solve(lp, trace)
        assert trace == [("pivot", F(-5, 3))]
        assert expected == lp_solve(lp)
        assert expected.point == (F(0), F(2), F(0))

    def test_redundant_equality_row_is_dropped(self):
        # The third row is the sum of the first two, so one artificial
        # variable cannot leave the basis and the reference deletes its row.
        lp = LinearProgram(
            num_vars=3,
            constraints=(
                Constraint((1, 1, 1), 1),
                Constraint((F(1, 2), -1, 0), 0),
                Constraint((F(3, 2), 0, 1), 1),
            ),
        )
        trace = []
        expected = reference_lp_solve(lp, trace)
        assert trace == [("drop", 2)]
        assert expected == lp_solve(lp)
        assert expected.point == (F(2, 3), F(1, 3), F(0))

    def test_positive_pivots_keep_the_real_tableau(self):
        # Any sequence of positive pivots, the only ones the ratio test
        # picks, must leave T / D equal to the rational tableau on the
        # nonbasic columns and the right-hand side, with D > 0.  The
        # dictionary starts on the nonbasic columns beside a basis of
        # artificials, so the rational tableau starts as [N | I | rhs].
        rng = random.Random("pivot-signs")
        for _ in range(200):
            rows, cols = rng.randint(1, 4), rng.randint(1, 5)
            tab = [[rng.randint(-5, 5) for _ in range(cols + 1)] for _ in range(rows)]
            obj = [rng.randint(-5, 5) for _ in range(cols + 1)]
            ref_tab = [
                [F(v) for v in row[:-1]]
                + [F(int(k == i)) for k in range(rows)]
                + [F(row[-1])]
                for i, row in enumerate(tab)
            ]
            ref_obj = [F(v) for v in obj[:-1]] + [F(0)] * rows + [F(obj[-1])]
            basis = [cols + i for i in range(rows)]
            nonbasic = list(range(cols))
            ref_basis = list(basis)
            d = 1
            for _ in range(rng.randint(1, 5)):
                pr = rng.randrange(rows)
                candidates = [k for k in range(cols) if tab[pr][k] > 0]
                if not candidates:
                    break
                pk = rng.choice(candidates)
                entering = nonbasic[pk]
                d = lp_module._pivot(tab, obj, basis, nonbasic, pr, pk, d)
                fraction_simplex._pivot(ref_tab, ref_obj, ref_basis, pr, entering)
                assert d > 0
                assert basis == ref_basis
                assert sorted(basis + nonbasic) == list(range(cols + rows))
                columns = nonbasic + [-1]
                assert [[F(v, d) for v in row] for row in tab] == [
                    [row[c] for c in columns] for row in ref_tab
                ]
                assert [F(v, d) for v in obj] == [ref_obj[c] for c in columns]
                # No basic column is stored: the reference's are unit vectors.
                for i, b in enumerate(basis):
                    assert [row[b] for row in ref_tab] == [
                        F(int(k == i)) for k in range(rows)
                    ]


# Large primes as numerators and denominators of the column scales, so
# that no two columns share a factor by accident.
PRIMES = (2, 3, 104729, 998244353, 1000000007, 1000000009, 2**61 - 1)


def scale_columns(lp: LinearProgram, k: list[Fraction]) -> LinearProgram:
    """Column j times k[j] > 0: the same program in the variables
    x_j / k[j], which are nonnegative exactly when the x_j are."""
    cons = tuple(
        Constraint(tuple(a * kj for a, kj in zip(con.coeffs, k)), con.rhs)
        for con in lp.constraints
    )
    return LinearProgram(lp.num_vars, cons)


def test_column_scaling_keeps_the_verdict_and_maps_the_point():
    rng = random.Random("column-scaling")
    seen = {FEASIBLE: 0, INFEASIBLE: 0}
    for _ in range(300):
        lp = random_program(rng, min_rows=1)
        k = [F(rng.choice(PRIMES), rng.choice(PRIMES)) for _ in range(lp.num_vars)]
        scaled_lp = scale_columns(lp, k)
        result = lp_solve(lp)
        scaled_result = lp_solve(scaled_lp)
        assert scaled_result.status == result.status
        if result.point is not None:
            assert scaled_result.point == tuple(x / kj for x, kj in zip(result.point, k))
        assert result == reference_lp_solve(lp)
        assert scaled_result == reference_lp_solve(scaled_lp)
        seen[result.status] += 1
    assert min(seen.values()) >= 20, seen


# Pivots over plus_minus_partition on seeds 0-9: Bland's rule over the
# rationals makes exactly these, whatever the kernel's integer form.  The
# (2, 3, 2) count was 925 until the search began to skip the partitions a
# kept Farkas certificate refutes; the LPs it still runs pivot as before.
# The colored (1, 5, 3) count was 231 while a feasible phase one still
# drove a zero-valued artificial out of the basis, once, on these seeds.
# The counts were 587, 583, 255 and 230 while the search wrote one sum row
# per block; on the lift only block 0's is left, so the programs have
# fewer rows and the Farkas cache skips more of them.  The (4, 2, 1) count
# was 563 while a two-block search ran an LP on every listed partition, and
# 167 while its one Radon dependence ruled out all but the hit, whose LP
# still ran; the dependence now gives the hit's point too, so only each
# solve's separation LP is left.  The (2, 3, 2) count was 472 while the walk
# cut on the coordinates alone; its pairwise sum and difference axes now
# drop partitions before they cost an LP.
SEARCH_PIVOTS = {
    (2, 3, 2, False): 370,
    (4, 2, 1, False): 89,
    (1, 5, 2, False): 205,
    (1, 5, 3, True): 195,
}


@pytest.mark.parametrize("cell", list(SEARCH_PIVOTS), ids=str)
def test_search_pivot_counts_and_tableau_entry_sizes(monkeypatch, cell):
    seen = {"pivots": 0, "bits": 0}
    original = lp_module._pivot

    def counting_pivot(tab, obj, basis, nonbasic, pr, pk, d):
        d = original(tab, obj, basis, nonbasic, pr, pk, d)
        seen["pivots"] += 1
        bits = max(abs(v).bit_length() for row in tab for v in row)
        seen["bits"] = max(seen["bits"], bits)
        return d

    monkeypatch.setattr(lp_module, "_pivot", counting_pivot)
    for seed in range(10):
        plus_minus_partition(gen.separable_configuration(seed, *cell))
    assert seen["pivots"] == SEARCH_PIVOTS[cell]
    # One common denominator for the whole tableau let entries reach 264 to
    # 579 bits on these cells; primitive columns keep them far lower.
    assert seen["bits"] <= 200, seen


# SHA-256 of the Farkas multipliers of every infeasible search LP, one line
# of space-separated integers per LP in solve order, over seeds 0-4 of three
# cells.  The search's refuter cache is built from them, yet ``LpResult``
# equality ignores them; these are the full-tableau kernel's values.  They
# are the multipliers of the lift's programs with block 0's sum row only
# (234 infeasible LPs, digest f43da201..., with every sum row), and of
# fewer of them since the walk cuts on pairwise sums and differences of
# the coordinates too (197 LPs, digest abbba8ad..., on the coordinates
# alone).
SEARCH_MULTIPLIERS = (
    112,
    "788c7a6e66cb01860bf1c547a251939551f32bcfbfe48852ad1157c694fb6675",
)


def test_search_farkas_multipliers_are_pinned(monkeypatch):
    lines = []

    def recording_solve(lp):
        result = lp_solve(lp)
        if result.status == INFEASIBLE:
            lines.append(" ".join(map(str, result.multipliers)))
        return result

    monkeypatch.setattr(solver, "lp_solve", recording_solve)
    for cell in ((2, 3, 2), (3, 3, 2), (2, 4, 3)):
        for seed in range(5):
            plus_minus_partition(gen.separable_configuration(seed, *cell))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == SEARCH_MULTIPLIERS


def integer_program(rng: random.Random) -> LinearProgram:
    n = rng.randint(1, 6)
    cons = tuple(
        Constraint(tuple(rng.randint(-9, 9) for _ in range(n)), rng.randint(-9, 9))
        for _ in range(rng.randint(0, 4))
    )
    return LinearProgram(n, cons)


def as_fractions(lp: LinearProgram) -> LinearProgram:
    return LinearProgram(
        lp.num_vars,
        tuple(
            Constraint(tuple(F(a) for a in con.coeffs), F(con.rhs))
            for con in lp.constraints
        ),
    )


def test_integer_programs_solve_like_their_fraction_twins():
    rng = random.Random("integer-programs")
    seen = {FEASIBLE: 0, INFEASIBLE: 0}
    for _ in range(300):
        lp = integer_program(rng)
        assert all(type(a) is int for con in lp.constraints for a in con.coeffs)
        result = lp_solve(lp)
        assert result == lp_solve(as_fractions(lp))
        assert result == reference_lp_solve(lp)
        if result.point is not None:
            assert all(type(x) is Fraction for x in result.point)
        seen[result.status] += 1
    assert min(seen.values()) >= 20, seen


def test_integer_programs_start_without_a_denominator_pass(monkeypatch):
    """An all-``int`` program is its own integer form: its starting
    dictionary is its ``Fraction`` twin's, built without ``L``."""
    rng = random.Random("integer-start")
    programs = [integer_program(rng) for _ in range(300)]
    expected = [lp_module._dictionary(as_fractions(lp)) for lp in programs]

    def refused(*args):
        raise AssertionError("an int program went through a common denominator")

    monkeypatch.setattr(lp_module, "common_denominator", refused)
    monkeypatch.setattr(lp_module, "scaled", refused)
    assert [lp_module._dictionary(lp) for lp in programs] == expected


def test_infeasible_search_programs_create_no_fraction(monkeypatch):
    def run():
        for seed in range(3):
            plus_minus_partition(gen.separable_configuration(seed, 2, 3, 2))

    programs = _captured_programs(monkeypatch, (solver, separation), run)
    for lp in programs:
        assert all(type(a) is int for con in lp.constraints for a in con.coeffs)
        assert all(type(con.rhs) is int for con in lp.constraints)

    def no_fraction(*args):
        raise AssertionError("an infeasible program created a Fraction")

    infeasible = [lp for lp in programs if lp_solve(lp).status == INFEASIBLE]
    assert infeasible
    monkeypatch.setattr(lp_module, "Fraction", no_fraction)
    for lp in infeasible:
        assert lp_solve(lp) == lp_module.LpResult(INFEASIBLE)


def test_satisfies_rejects_each_violation_of_an_integer_program():
    lp = LinearProgram(
        num_vars=3,
        constraints=(
            Constraint((2, 1, 1), 4),
            Constraint((1, 1, 0), 2),
        ),
    )
    assert satisfies(lp, (F(1), F(1), F(1)))
    assert satisfies(lp, (F(1, 2), F(3, 2), F(3, 2)))
    assert not satisfies(lp, (F(1), F(1)))  # wrong length
    assert not satisfies(lp, (F(-1, 3), F(7, 3), F(7, 3)))  # a negative value
    assert not satisfies(lp, (F(1), F(1), F(1) + F(1, 10**9)))  # first row broken
    assert not satisfies(lp, (F(1), F(1) - F(1, 10**12), F(1) + F(1, 10**12)))


def test_integer_points_scale_by_the_least_common_denominator():
    q, points = integer_points([(F(1, 2), F(-2, 3)), (F(0), F(5, 4))])
    assert q == 12
    assert points == [[6, -8], [0, 15]]
    assert all(type(c) is int for p in points for c in p)
    assert integer_points(iter([(F(3), F(-1))])) == (1, [[3, -1]])
    assert integer_points([]) == (1, [])


@pytest.mark.parametrize("seed", range(20))
def test_integer_points_programs_pivot_like_the_rational_ones(monkeypatch, seed):
    """A separation-style program over the rational points and the same one
    over ``integer_points``, constants times ``q``: same pivots, the same
    ``(w, alpha)``, and every slack times ``q``."""
    rng = random.Random(f"integer-points-{seed}")
    d = rng.randint(1, 3)
    pts = [tuple(random_scalar(rng) for _ in range(d)) for _ in range(rng.randint(2, 7))]
    members = set(rng.sample(range(len(pts)), rng.randint(1, len(pts) - 1)))
    q, ints = integer_points(pts)

    def program(points, one):
        # Free (w, alpha) as column pairs, then one slack per point.
        n = len(points)
        cons = []
        for i, p in enumerate(points):
            pairs = [v for a in (*p, -one) for v in (a, -a)]
            slacks = [0] * n
            slacks[i] = 1 if i in members else -1
            rhs = -one if i in members else one
            cons.append(Constraint(tuple(pairs + slacks), rhs))
        return LinearProgram(2 * (d + 1) + n, tuple(cons))

    original = lp_module._pivot

    def solve_recording(lp):
        pivots = []

        def recording_pivot(tab, obj, basis, nonbasic, pr, pk, den):
            pivots.append((pr, nonbasic[pk]))
            return original(tab, obj, basis, nonbasic, pr, pk, den)

        monkeypatch.setattr(lp_module, "_pivot", recording_pivot)
        return lp_solve(lp), pivots

    rational, rational_pivots = solve_recording(program(pts, F(1)))
    integer, integer_pivots = solve_recording(program(ints, q))
    assert integer.status == rational.status
    assert integer_pivots == rational_pivots
    if rational.point is not None:
        width = 2 * (d + 1)
        slacks = tuple(q * t for t in rational.point[width:])
        assert integer.point == rational.point[:width] + slacks


def test_infeasible_verdicts_carry_a_farkas_certificate():
    """``y . A_j <= 0`` and ``y . b > 0``, on integer and rational programs
    with right-hand sides of either sign."""
    rng = random.Random("farkas")
    infeasible = negated = 0
    for trial in range(800):
        n = rng.randint(1, 4)

        def number():
            return rng.randint(-6, 6) if trial % 2 else random_scalar(rng)

        cons = tuple(
            Constraint(tuple(number() for _ in range(n)), number())
            for _ in range(rng.randint(1, 5))
        )
        lp = LinearProgram(n, cons)
        result = lp_solve(lp)
        assert result == reference_lp_solve(lp)
        if result.status != INFEASIBLE:
            assert result.multipliers is None
            continue
        infeasible += 1
        y = result.multipliers
        assert len(y) == len(cons) and all(type(v) is int for v in y)
        for j in range(n):
            assert sum(v * con.coeffs[j] for v, con in zip(y, cons)) <= 0
        assert sum(v * con.rhs for v, con in zip(y, cons)) > 0
        negated += any(con.rhs < 0 for con in cons)
        # The multipliers take no part in equality.
        assert result == lp_module.LpResult(INFEASIBLE)
    assert infeasible >= 100 and negated >= 50, (infeasible, negated)
