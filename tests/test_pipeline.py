"""End-to-end solve: separate, lift, search, pull back, and the induced
coloring of the corollary mode."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import gen
from search_counts import load
from tvpm import (
    Configuration,
    Hyperplane,
    pipeline,
    separation,
    solver,
    verify_certificate,
)
from tvpm.cli import main as cli_main
from tvpm.errors import InternalError, MuTooLarge, ParseError, SeparationInfeasible
from tvpm.model import CLASSICAL, parse_certificate, parse_configuration
from tvpm.pipeline import (
    corollary_coloring,
    plus_minus_partition,
    pull_back_coefficients,
    run_corollary,
)
from tvpm.separation import lift_configuration

tracing = load("perfbench/tracing.py", "perfbench_tracing")

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"

LINE3 = parse_configuration((FIXTURES / "line3.txt").read_text())
LINE3_CERT = parse_certificate((FIXTURES / "line3.cert").read_text())
PLANE7 = parse_configuration((FIXTURES / "colored_plane7.txt").read_text())
PLANE7_CERT = parse_certificate((FIXTURES / "colored_plane7.cert").read_text())


class TestPullBack:
    def test_worked_instance_by_hand(self):
        # The lift of 0, 1, 3 by s = 2, 1, -1; block 0's convex weight 1
        # on the lifted point is |s_0| * u_0, and block 1's 3/4 and 1/4 are
        # |s_1| * u_1 and |s_2| * u_2.
        lifted = lift_configuration(LINE3, Hyperplane((F(-1),), F(-2)))
        hit = (((0,), (1, 2)), (F(1, 2), F(3, 4), F(1, 4)))
        beta, coefficients, b = pull_back_coefficients(hit, lifted)
        assert beta == F(1, 2)
        assert coefficients == {0: F(1), 1: F(3, 2), 2: F(-1, 2)}
        assert b == (F(0),)

    def test_result_does_not_depend_on_the_hyperplane(self):
        # Any strictly separating hyperplane must pull back to the same
        # signed presentation; only beta reflects the choice.
        alternate = Hyperplane((F(-2),), F(-4))
        lifted = lift_configuration(LINE3, alternate)
        hit = solver._first_hit(lifted, LINE3.r)
        beta, coefficients, b = pull_back_coefficients(hit, lifted)
        assert hit[0] == LINE3_CERT.blocks
        assert coefficients == LINE3_CERT.coefficients
        assert b == LINE3_CERT.point_b
        assert beta == F(1, 4)
        assert beta != LINE3_CERT.beta


class TestPlusMinusPartition:
    def test_worked_instance_matches_golden(self):
        assert plus_minus_partition(LINE3) == LINE3_CERT

    def test_colored_fixture_matches_golden(self):
        assert plus_minus_partition(PLANE7) == PLANE7_CERT

    def test_empty_face_runs_classical(self):
        cert = plus_minus_partition(replace(LINE3, mu=()))
        assert cert.blocks == ((0, 2), (1,))
        assert cert.coefficients == {0: F(2, 3), 2: F(1, 3), 1: F(1)}
        assert cert.point_b == (F(1),)
        assert cert.beta == F(1, 2)
        assert cert.hyperplane == Hyperplane((F(1),), F(-1))
        assert not cert.rainbow
        assert all(c >= 0 for c in cert.coefficients.values())

    def test_non_separable_face(self):
        with pytest.raises(SeparationInfeasible):
            plus_minus_partition(replace(LINE3, mu=(1,)))

    def test_oversized_face(self):
        with pytest.raises(MuTooLarge):
            plus_minus_partition(replace(LINE3, mu=(0, 2)))

    def test_invalid_configuration_rejected_first(self):
        bad = replace(LINE3, points=LINE3.points[:2])
        with pytest.raises(ParseError):
            plus_minus_partition(bad)

    @pytest.mark.parametrize(
        "d, r, colored",
        [
            (1, 3, False),
            (2, 3, False),
            (1, 5, False),
            (2, 4, False),
            (3, 3, False),
            (4, 2, False),
            (2, 3, True),
            (3, 3, True),
            (2, 5, True),
        ],
    )
    def test_empty_face_solve_is_the_classical_search(self, d, r, colored):
        # The trivial hyperplane's lift and the lift with every factor 1
        # both give every point a positive factor, so a partition's hulls
        # meet on one exactly when they meet on the other: the two searches
        # stop at the same partition, and the pull-back reads the same
        # convex weights and common point off either hit.
        for seed in range(10):
            config = gen.separable_configuration(seed, d, r, 0, colored)
            partition = solver.tverberg_partition(config.points, r, config.coloring)
            cert = plus_minus_partition(config)
            assert cert.blocks == partition.blocks
            assert cert.coefficients == partition.coefficients
            assert cert.point_b == partition.witness

    def test_certificates_verify_on_random_instances(self):
        for i in range(8):
            config = gen.separable_configuration(f"pipe{i}", d=2, r=3, mu_size=2)
            cert = plus_minus_partition(config)
            assert verify_certificate(config, cert).accepted
            marked = set(config.mu)
            for v, c in cert.coefficients.items():
                assert c <= 0 if v in marked else c >= 0

    def test_the_solve_composes_the_public_separation_and_lift(self):
        # The benchmark's tracer times the lift by wrapping the name the
        # pipeline looks up, so that name must be the lift the solve runs.
        assert pipeline.lift_configuration is separation.lift_configuration
        assert pipeline.separating_hyperplane is separation.separating_hyperplane
        assert pipeline.pull_back_coefficients is separation.pull_back_coefficients
        tracer = tracing.Tracer()
        with tracer.installed():
            cert = plus_minus_partition(LINE3)
        assert cert == LINE3_CERT
        assert tracer.calls["separation.lift_configuration"] == 1
        assert tracer.calls["lp.separation"] == 1


def swap_coefficients_one_and_two(monkeypatch):
    """Make the pull-back swap the coefficients of vertices 1 and 2, which
    share LINE3's block (1, 2): its sum stays 1, its combination moves."""
    original = pipeline.pull_back_coefficients

    def swapped(partition, lifted):
        beta, coefficients, b = original(partition, lifted)
        coefficients[1], coefficients[2] = coefficients[2], coefficients[1]
        return beta, coefficients, b

    monkeypatch.setattr(pipeline, "pull_back_coefficients", swapped)


class TestPostCondition:
    """verify_certificate is the solve's one post-condition: a certificate
    it rejects is an internal error, never output."""

    def test_rejected_certificate_is_an_internal_error(self, monkeypatch):
        swap_coefficients_one_and_two(monkeypatch)
        with pytest.raises(InternalError, match="affine-combination-mismatch"):
            plus_minus_partition(LINE3)

    def test_cli_exits_one_with_one_line(self, monkeypatch, capsys):
        swap_coefficients_one_and_two(monkeypatch)
        code = cli_main(["solve", "--input", str(FIXTURES / "line3.txt")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("internal error: ")
        assert "affine-combination-mismatch" in captured.err
        assert captured.err.count("\n") == 1


class TestCorollary:
    def test_induced_coloring_chunks_the_complement(self):
        assert corollary_coloring(PLANE7) == ((0, 1), (2, 3), (4, 5), (6,))

    def test_induced_coloring_singleton_face(self):
        assert corollary_coloring(LINE3) == ((2,), (0,), (1,))

    def test_empty_face_rejected(self):
        with pytest.raises(ParseError, match="nonempty"):
            corollary_coloring(replace(LINE3, mu=()))

    def test_composite_r_rejected(self):
        points = tuple((F(i), F(i * i), F(0)) for i in range(13))
        config = Configuration(
            d=3, r=4, points=points, mode=CLASSICAL, mu=(0,)
        )
        with pytest.raises(ParseError, match="prime"):
            run_corollary(config)

    def test_oversized_face_rejected(self):
        config = gen.separable_configuration("cor-mu", d=1, r=3, mu_size=2)
        with pytest.raises(MuTooLarge):
            corollary_coloring(replace(config, mu=(0, 1, 2)))

    def test_worked_instance(self):
        cert = run_corollary(LINE3)
        assert cert == replace(LINE3_CERT, rainbow=True)

    def test_blocks_meet_the_face_at_most_once(self):
        for i in range(6):
            config = gen.separable_configuration(f"coro{i}", d=2, r=3, mu_size=2)
            cert = run_corollary(config)
            marked = set(config.mu)
            for block in cert.blocks:
                assert len(marked.intersection(block)) <= 1
            assert verify_certificate(
                replace(config, mode="colored", coloring=corollary_coloring(config)),
                cert,
            ).accepted
