"""The integer dictionary simplex against the rational reference kernel.

``fraction_simplex.reference_lp_solve`` runs the same Bland pivots over
``Fraction``s.  The integer kernel must return the identical verdict and
point on every program: random ones in the one form ``A x = b, x >= 0``
with ``int`` and ``Fraction`` entries and right-hand sides of either sign,
programs with planted twin columns that the kernel folds, the programs the
search, the separation step and the oracle build, and the programs on which
the reference's drive-out pivots negatively or drops a redundant row.
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


def reference_multipliers(lp: LinearProgram):
    """Phase one's duals at the reference's last tableau, ``u_i`` one minus
    artificial ``i``'s reduced cost and negated back on a row the reference
    negated, or ``None`` when phase one reaches 0.  The tableau is built
    and minimized as ``reference_lp_solve`` does."""
    width, m = lp.num_vars, len(lp.constraints)
    signs = [-1 if con.rhs < 0 else 1 for con in lp.constraints]
    tab = [
        [F(sign * v) for v in con.coeffs]
        + [F(int(k == i)) for k in range(m)]
        + [F(sign * con.rhs)]
        for i, (con, sign) in enumerate(zip(lp.constraints, signs))
    ]
    basis = [width + i for i in range(m)]
    obj = fraction_simplex._reduced_costs(tab, basis, [F(0)] * width + [F(1)] * m)
    fraction_simplex._minimize(tab, obj, basis)
    if obj[-1] == 0:
        return None
    return [sign * (1 - obj[width + i]) for i, sign in enumerate(signs)]


def twinned_program(rng: random.Random) -> LinearProgram:
    """A random program with planted twin columns, in shuffled order:
    opposite pairs (a column and a positive multiple of its negation),
    slacks that are ``-e_i`` once the rows are signed, on rows of either
    right-hand-side sign, and near misses: a second slack in one row, a
    ``+e_i`` column, zero columns and pairs of zero-sum columns."""
    m = rng.randint(1, 5)
    rhs = [random_number(rng) for _ in range(m)]

    def column():
        return [random_number(rng) for _ in range(m)]

    def unit(i, value):
        return [value if k == i else 0 for k in range(m)]

    def zero_sum():
        col = column()
        col[-1] -= sum(col)
        return col

    cols = [column() for _ in range(rng.randint(0, 3))]
    for _ in range(rng.randint(0, 3)):
        col = column()
        k = rng.choice((1, 1, 2, 3, F(1, 3), F(5, 2)))
        cols += [col, [-k * a for a in col]]
    slack_rows = rng.sample(range(m), rng.randint(0, m))
    if slack_rows and rng.random() < 0.3:
        slack_rows.append(slack_rows[0])
    for i in slack_rows:
        sign = 1 if rhs[i] < 0 else -1
        cols.append(unit(i, sign * rng.choice((1, 1, 2, F(1, 2)))))
    if rng.random() < 0.3:
        i = rng.randrange(m)
        cols.append(unit(i, -1 if rhs[i] < 0 else 1))
    cols += [[0] * m for _ in range(rng.choice((0, 0, 1, 2)))]
    if rng.random() < 0.3:
        cols += [zero_sum(), zero_sum()]
    if not cols:
        cols.append(column())
    rng.shuffle(cols)
    cons = tuple(
        Constraint(tuple(col[i] for col in cols), rhs[i]) for i in range(m)
    )
    return LinearProgram(len(cols), cons)


def test_twin_columns_fold_without_changing_the_answer(monkeypatch):
    """Programs with planted twins: the verdict, the point and the Farkas
    multipliers (a positive multiple of the reference's duals) are the
    rational reference's, and stored columns are flipped to their twins
    often, for both kinds of twin."""
    rng = random.Random("twin-columns")
    seen = dict.fromkeys((FEASIBLE, INFEASIBLE, "structural", "slack"), 0)
    flips = {0: 0, 1: 0}
    entering_twin = lp_module._entering_twin

    def counting(cols, nonbasic, twins, d):
        before = list(nonbasic)
        pk = entering_twin(cols, nonbasic, twins, d)
        if pk is not None and nonbasic[pk] != before[pk]:
            flips[twins[nonbasic[pk]][1]] += 1
        return pk

    monkeypatch.setattr(lp_module, "_entering_twin", counting)
    for _ in range(800):
        lp = twinned_program(rng)
        result = lp_solve(lp)
        assert result == reference_lp_solve(lp)
        u = reference_multipliers(lp)
        if u is None:
            assert result.multipliers is None
        else:
            scale = next(F(y, v) for y, v in zip(result.multipliers, u) if v)
            assert scale > 0
            assert list(result.multipliers) == [scale * v for v in u]
        twins = lp_module._dictionary(lp)[3]
        seen[result.status] += 1
        seen["structural"] += any(shift == 0 for _, shift in twins.values())
        seen["slack"] += any(shift == 1 for _, shift in twins.values())
    assert min(seen.values()) >= 200, seen
    assert min(flips.values()) >= 200, flips


def _captured_programs(monkeypatch, targets, run) -> list:
    """``(decide, lp)`` for every program that ``run`` passes to one of the
    ``(module, name)`` targets, ``decide`` being the function it wraps."""
    captured = []

    def recording(module, name):
        original = getattr(module, name)

        def record(lp):
            captured.append((original, lp))
            return original(lp)

        return record

    for module, name in targets:
        monkeypatch.setattr(module, name, recording(module, name))
    run()
    monkeypatch.undo()
    return captured


# The search decides its programs through ``solver._decide`` (elimination,
# else the simplex), the separation step through ``lp_solve``.
SEARCH_AND_SEPARATION = ((solver, "_decide"), (separation, "lp_solve"))


@pytest.mark.parametrize(
    "cell", [(2, 3, 2, False), (4, 2, 1, False), (3, 3, 2, False), (2, 3, 2, True)]
)
def test_search_and_separation_programs_match_the_reference(monkeypatch, cell):
    d, r, mu_size, colored = cell

    def run():
        for seed in range(2):
            config = gen.separable_configuration(seed, d, r, mu_size, colored)
            plus_minus_partition(config)

    programs = _captured_programs(monkeypatch, SEARCH_AND_SEPARATION, run)
    # A two-block solve reads its hit off the Radon dependence and poses no
    # search program, so only its separation LP is left.
    assert len(programs) >= (2 if r == 2 else 3)
    for decide, lp in programs:
        expected = reference_lp_solve(lp)
        assert lp_solve(lp) == expected
        assert decide(lp) == expected


@pytest.mark.parametrize("colored", [False, True])
def test_oracle_programs_match_the_reference(monkeypatch, colored):
    config = gen.separable_configuration(0, 2, 3, 2, colored)
    coloring = config.coloring if colored else None

    def run():
        partitions = enumerate_partitions(len(config.points), config.r, coloring)
        for blocks in itertools.islice(partitions, 0, None, 4):
            verifier.signed_presentation(config, blocks)

    programs = _captured_programs(monkeypatch, ((verifier, "lp_solve"),), run)
    statuses = set()
    for _, lp in programs:
        # Built in integers, like the search's and the separation's.
        assert all(type(a) is int for con in lp.constraints for a in con.coeffs)
        assert all(type(con.rhs) is int for con in lp.constraints)
        result = lp_solve(lp)
        assert result == reference_lp_solve(lp)
        statuses.add(result.status)
    assert statuses == {FEASIBLE, INFEASIBLE}


def recorded_widths(monkeypatch) -> list:
    """Wrap ``lp._pivot`` so that each pivot records ``(stored columns,
    rows)``: the dictionary's width, and every column's length less its
    objective entry."""
    widths = []
    original = lp_module._pivot

    def recording(cols, rhs, basis, nonbasic, pr, pk, d):
        assert {len(col) for col in (*cols, rhs)} == {len(basis) + 1}
        widths.append((len(cols), len(basis)))
        return original(cols, rhs, basis, nonbasic, pr, pk, d)

    monkeypatch.setattr(lp_module, "_pivot", recording)
    return widths


@pytest.mark.parametrize("cell", [(1, 5, 2), (2, 3, 2), (4, 2, 1)], ids=str)
def test_separation_pivots_on_one_column_per_free_unknown(monkeypatch, cell):
    # The separation's w and alpha are column pairs and each of its n rows
    # has a slack -e_i: the dictionary keeps d + 1 columns, not 2(d+1) + n.
    d = cell[0]
    widths = recorded_widths(monkeypatch)
    for seed in range(3):
        config = gen.separable_configuration(seed, *cell)
        separation.separating_hyperplane(config)
        n = len(config.points)
        assert widths and set(widths) == {(d + 1, n)}
        widths.clear()


def test_oracle_and_search_programs_keep_every_column(monkeypatch):
    # Neither has twins, so every structural column stays in the dictionary.
    config = gen.separable_configuration(0, 2, 3, 2, True)

    def oracle():
        partitions = enumerate_partitions(len(config.points), 3, config.coloring)
        for blocks in itertools.islice(partitions, 0, None, 4):
            verifier.signed_presentation(config, blocks)

    def search():
        for seed in range(2):
            plus_minus_partition(gen.separable_configuration(seed, 3, 3, 2))

    for run, target in ((oracle, (verifier, "lp_solve")), (search, (solver, "lp_solve"))):
        programs = _captured_programs(monkeypatch, (target,), run)
        widths = recorded_widths(monkeypatch)
        pivoted = 0
        for _, lp in programs:
            assert lp_module._dictionary(lp)[3] == {}
            lp_solve(lp)
            assert set(widths) <= {(lp.num_vars, len(lp.constraints))}
            pivoted += bool(widths)
            widths.clear()
        monkeypatch.undo()
        assert pivoted >= 2


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
        # dictionary is stored by column, each column's objective entry
        # last, and starts on the nonbasic columns beside a basis of
        # artificials, so the rational tableau starts as [N | I | rhs].
        rng = random.Random("pivot-signs")
        for _ in range(200):
            rows, width = rng.randint(1, 4), rng.randint(1, 5)
            tab = [[rng.randint(-5, 5) for _ in range(width + 1)] for _ in range(rows)]
            obj = [rng.randint(-5, 5) for _ in range(width + 1)]
            ref_tab = [
                [F(v) for v in row[:-1]]
                + [F(int(k == i)) for k in range(rows)]
                + [F(row[-1])]
                for i, row in enumerate(tab)
            ]
            ref_obj = [F(v) for v in obj[:-1]] + [F(0)] * rows + [F(obj[-1])]
            cols, rhs = (
                [[row[k] for row in tab] + [obj[k]] for k in range(width)],
                [row[-1] for row in tab] + [obj[-1]],
            )
            basis = [width + i for i in range(rows)]
            nonbasic = list(range(width))
            ref_basis = list(basis)
            d = 1
            for _ in range(rng.randint(1, 5)):
                pr = rng.randrange(rows)
                candidates = [k for k in range(width) if cols[k][pr] > 0]
                if not candidates:
                    break
                pk = rng.choice(candidates)
                entering = nonbasic[pk]
                d = lp_module._pivot(cols, rhs, basis, nonbasic, pr, pk, d)
                fraction_simplex._pivot(ref_tab, ref_obj, ref_basis, pr, entering)
                assert d > 0
                assert basis == ref_basis
                assert sorted(basis + nonbasic) == list(range(width + rows))
                assert len(cols) == width
                for col, c in zip((*cols, rhs), nonbasic + [-1]):
                    assert [F(v, d) for v in col] == (
                        [row[c] for row in ref_tab] + [ref_obj[c]]
                    )
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
# drop partitions before they cost an LP.  The counts were 370, 89, 205 and
# 195 while every search program went to the simplex; a square nonsingular
# one is now decided by elimination (``solver._decide``), so what is left
# is the separation LPs and the search's singular programs.  The (2, 3, 2)
# count was 134 while the planar walk cut on the pairwise sums and
# differences of the coordinates; on the normals of the point differences
# it lists no partition whose singular program the simplex decided, and
# the separation LPs' pivots are left.
SEARCH_PIVOTS = {
    (2, 3, 2, False): 95,
    (4, 2, 1, False): 89,
    (1, 5, 2, False): 93,
    (1, 5, 3, True): 99,
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


# SHA-256 of the Farkas multipliers of every infeasible search program, one
# line of space-separated integers per program in solve order, over seeds
# 0-4 of four cells, whether the elimination or the simplex decided it.
# The search's refuter cache is built from them, yet ``LpResult`` equality
# ignores them.  While the simplex decided every search program they were
# 234 LPs (digest f43da201...) with every sum row, 197 (abbba8ad...) with
# block 0's sum row alone, and 112 (788c7a6e...) once the walk also cut on
# pairwise sums and differences of the coordinates.  The elimination's
# certificates are tight at one column, so they refute other partitions
# than Bland's did; over the first three cells they were 108 (5de0e480...).
# The planar walk now cuts on the normals of the point differences and
# lists no partition with two blocks whose hulls miss, so (2, 3, 2) and (2,
# 4, 3) decide 1 and 11 infeasible programs where they decided 8 and 42;
# the fourth cell, (2, 5, 4), adds 22 more planar ones.
SEARCH_MULTIPLIERS = (
    92,
    "a234b4ede87d566cdf391054e8fc84d554b359e117ba969a8228a7f55221f2db",
)


def test_search_farkas_multipliers_are_pinned(monkeypatch):
    lines = []

    decide = solver._decide

    def recording_solve(lp):
        result = decide(lp)
        if result.status == INFEASIBLE:
            lines.append(" ".join(map(str, result.multipliers)))
        return result

    monkeypatch.setattr(solver, "_decide", recording_solve)
    for cell in ((2, 3, 2), (3, 3, 2), (2, 4, 3), (2, 5, 4)):
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

    programs = _captured_programs(monkeypatch, SEARCH_AND_SEPARATION, run)
    for _, lp in programs:
        assert all(type(a) is int for con in lp.constraints for a in con.coeffs)
        assert all(type(con.rhs) is int for con in lp.constraints)

    def no_fraction(*args):
        raise AssertionError("an infeasible program created a Fraction")

    infeasible = [
        (decide, lp) for decide, lp in programs if lp_solve(lp).status == INFEASIBLE
    ]
    # Search programs the elimination decides are among them.
    assert any(decide is solver._decide for decide, _ in infeasible)
    monkeypatch.setattr(lp_module, "Fraction", no_fraction)
    monkeypatch.setattr(solver, "Fraction", no_fraction)
    for decide, lp in infeasible:
        assert decide(lp) == lp_module.LpResult(INFEASIBLE)


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
    assert rational_pivots
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
