"""The fraction-free integer simplex against the rational reference kernel.

``fraction_simplex.reference_lp_solve`` runs the same Bland pivots over
``Fraction``s.  The integer kernel must return the identical verdict and
point on every program: random ones with every kind of bound, the programs
the search, the separation step and the oracle build, and the drive-out
cases where a pivot is negative or a redundant row is dropped.
"""

from __future__ import annotations

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
    UNBOUNDED,
    LinearProgram,
    constraint,
    lp_solve,
)
from tvpm.pipeline import plus_minus_partition
from tvpm.solver import enumerate_partitions

F = Fraction


def random_scalar(rng: random.Random) -> Fraction:
    return F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 5)))


def random_program(rng: random.Random) -> LinearProgram:
    n = rng.randint(1, 4)
    cons = []
    for _ in range(rng.randint(0, 4)):
        coeffs = [random_scalar(rng) for _ in range(n)]
        relation = rng.choice(("<=", ">=", "="))
        cons.append(constraint(coeffs, relation, random_scalar(rng)))
    bounds = []
    for _ in range(n):
        kind = rng.randrange(4)
        lo = random_scalar(rng) if kind in (1, 3) else None
        hi = random_scalar(rng) if kind in (2, 3) else None
        bounds.append((lo, hi))
    objective = None
    if rng.random() < 0.6:
        objective = tuple(random_scalar(rng) for _ in range(n))
    return LinearProgram(
        num_vars=n,
        constraints=tuple(cons),
        objective=objective,
        bounds=tuple(bounds) if rng.random() < 0.8 else None,
    )


def test_random_programs_match_the_reference():
    rng = random.Random("integer-kernel")
    seen = {FEASIBLE: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(600):
        lp = random_program(rng)
        result = lp_solve(lp)
        assert result == reference_lp_solve(lp)
        seen[result.status] += 1
    # Every verdict must occur often enough for the comparison to mean
    # something.
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
    assert len(programs) >= 3
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
        result = lp_solve(lp)
        assert result == reference_lp_solve(lp)
        statuses.add(result.status)
    assert statuses == {FEASIBLE, INFEASIBLE}


def test_ratio_ties_leave_by_the_lower_basis_index():
    # Phase one's first pivot brings in x, and both rows give the ratio 1
    # (2 / 2 and 1 / 1).  The row whose basic variable has the lower index
    # leaves; the other choice ends at the vertex (0, 0, 1) instead.
    lp = LinearProgram(
        num_vars=3,
        constraints=(
            constraint([2, 2, 2], "<=", 2),
            constraint([1, -2, -1], "<=", 1),
        ),
        objective=(F(-1), F(2), F(2)),
        bounds=((F(0), None),) * 3,
    )
    expected = reference_lp_solve(lp)
    assert expected.point == (F(0), F(1), F(0))
    assert lp_solve(lp) == expected


class TestDriveOut:
    def test_negative_pivot(self):
        # The second row's artificial variable is still basic at zero after
        # phase one, and its first nonzero entry is -5/3: the kernel must
        # flip the sign to keep its denominator positive.
        lp = LinearProgram(
            num_vars=2,
            constraints=(
                constraint([F(-1, 3), -1], "<=", -2),
                constraint([2, 1], "=", 2),
            ),
            objective=(F(0), F(1)),
            bounds=((F(0), None), (F(0), None)),
        )
        trace = []
        expected = reference_lp_solve(lp, trace)
        assert trace == [("pivot", F(-5, 3))]
        assert expected == lp_solve(lp)
        assert expected.point == (F(0), F(2))

    def test_redundant_equality_row_is_dropped(self):
        # The third row is the sum of the first two, so one artificial
        # variable cannot leave the basis and its row is deleted.
        lp = LinearProgram(
            num_vars=3,
            constraints=(
                constraint([1, 1, 1], "=", 1),
                constraint([F(1, 2), -1, 0], "=", 0),
                constraint([F(3, 2), 0, 1], "=", 1),
            ),
            objective=(F(1), F(0), F(0)),
            bounds=((F(0), None),) * 3,
        )
        trace = []
        expected = reference_lp_solve(lp, trace)
        assert trace == [("drop", 2)]
        assert expected == lp_solve(lp)
        assert expected.point == (F(2, 3), F(1, 3), F(0))

    def test_pivots_of_either_sign_keep_the_real_tableau(self):
        # Any sequence of nonzero pivots, positive or negative, must leave
        # T / D equal to the rational tableau, with D > 0.
        rng = random.Random("pivot-signs")
        for _ in range(200):
            rows, cols = rng.randint(1, 4), rng.randint(2, 6)
            tab = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            obj = [rng.randint(-5, 5) for _ in range(cols)]
            ref_tab = [[F(v) for v in row] for row in tab]
            ref_obj = [F(v) for v in obj]
            basis, ref_basis = [0] * rows, [0] * rows
            d = 1
            for _ in range(rng.randint(1, 5)):
                pr = rng.randrange(rows)
                candidates = [j for j in range(cols) if tab[pr][j]]
                if not candidates:
                    break
                pc = rng.choice(candidates)
                d = lp_module._pivot(tab, obj, basis, pr, pc, d)
                fraction_simplex._pivot(ref_tab, ref_obj, ref_basis, pr, pc)
                assert d > 0
                assert basis == ref_basis
                assert [[F(v, d) for v in row] for row in tab] == ref_tab
                assert [F(v, d) for v in obj] == ref_obj
