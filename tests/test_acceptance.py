"""Acceptance suite: ten exact criteria, one pass/fail line each.

Every check is exact rational equality (zero tolerance).  Random corpora
are seed-frozen, so the suite is deterministic end to end.  Criteria that
share the 100-instance plus-minus corpus reuse one module-scoped fixture;
its solve and verify runs go through the command-line entry point, the
same route a user takes.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest

import gen
from tvpm import Configuration
from tvpm.cli import main as cli_main
from bareiss import affine_dependence
from lift_search import search_lift
from tvpm.linalg import dot
from tvpm.model import (
    CLASSICAL,
    PlusMinusCertificate,
    parse_certificate,
    parse_configuration,
    serialize_configuration,
)
from tvpm.separation import (
    lift_configuration,
    separating_hyperplane,
    trivial_hyperplane,
)
from tvpm.solver import tverberg_partition

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"

PLUSMINUS_COUNT = 100
ORACLE_COUNT = 50
COLORED_COUNT = 50
COROLLARY_COUNT = 25
RADON_COUNT = 25

DR_CYCLE = [(1, 2), (1, 3), (2, 2), (2, 3)]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def run_cli(*args: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(args))
    return code, out.getvalue(), err.getvalue()


@dataclass
class Run:
    config: Configuration
    config_path: Path
    cert_path: Path
    solve_code: int
    verify_code: Optional[int]
    cert: Optional[PlusMinusCertificate]


@pytest.fixture(scope="module")
def plusminus_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("plusminus")
    runs = []
    start = time.monotonic()
    for i in range(PLUSMINUS_COUNT):
        d, r = DR_CYCLE[i % 4]
        mu_size = 1 + (i // 4) % (r - 1)
        config = gen.separable_configuration(i, d=d, r=r, mu_size=mu_size)
        config_path = root / f"config{i:03d}.txt"
        cert_path = root / f"config{i:03d}.cert"
        config_path.write_text(serialize_configuration(config))
        solve_code, _, _ = run_cli(
            "solve", "--mode", "plusminus",
            "--input", str(config_path), "--output", str(cert_path),
        )
        verify_code = None
        cert = None
        if solve_code == 0:
            verify_code, _, _ = run_cli(
                "verify", "--input", str(config_path), "--cert", str(cert_path)
            )
            cert = parse_certificate(cert_path.read_text())
        runs.append(Run(config, config_path, cert_path, solve_code, verify_code, cert))
    elapsed = time.monotonic() - start
    return runs, elapsed


def test_criterion_01_worked_instance_regression():
    start = time.monotonic()
    code, out, _ = run_cli("solve", "--input", str(FIXTURES / "line3.txt"))
    elapsed = time.monotonic() - start
    golden = (FIXTURES / "line3.cert").read_text()
    cert = parse_certificate(out) if code == 0 else None
    ok = (
        code == 0
        and out == golden
        and cert.blocks == ((0,), (1, 2))
        and cert.point_b == (F(0),)
        and cert.beta == F(1, 2)
        and cert.coefficients == {0: F(1), 1: F(3, 2), 2: F(-1, 2)}
        and elapsed < 1.0
    )
    report(1, ok, f"exact golden match, {elapsed:.3f}s")


def test_criterion_02_existence_on_random_separable_corpus(plusminus_corpus):
    runs, elapsed = plusminus_corpus
    solved = sum(1 for run in runs if run.solve_code == 0)
    verified = sum(1 for run in runs if run.verify_code == 0)
    ok = (
        len(runs) == PLUSMINUS_COUNT
        and solved == PLUSMINUS_COUNT
        and verified == PLUSMINUS_COUNT
        and elapsed < 60.0
    )
    report(
        2,
        ok,
        f"{solved}/{len(runs)} solved, {verified}/{len(runs)} verified, "
        f"{elapsed:.1f}s",
    )


def test_criterion_03_pipeline_blocks_appear_in_oracle_listing(plusminus_corpus):
    runs, _ = plusminus_corpus
    start = time.monotonic()
    contained = 0
    for run in runs[:ORACLE_COUNT]:
        code, out, _ = run_cli("oracle", "--input", str(run.config_path))
        assert code == 0
        listing = {
            tuple(
                tuple(int(v) for v in chunk.strip("{}").split(","))
                for chunk in line.split()
            )
            for line in out.splitlines()
        }
        if listing and run.cert.blocks in listing:
            contained += 1
    elapsed = time.monotonic() - start
    ok = contained == ORACLE_COUNT and elapsed < 120.0
    report(3, ok, f"{contained}/{ORACLE_COUNT} listed and nonempty, {elapsed:.1f}s")


def test_criterion_04_lift_invariants(plusminus_corpus):
    runs, _ = plusminus_corpus
    checked = 0
    for run in runs:
        config = run.config
        if config.mu:
            hyperplane = separating_hyperplane(config)
        else:
            hyperplane = trivial_hyperplane(config)
        assert hyperplane == run.cert.hyperplane
        lifted = lift_configuration(config, hyperplane)
        w_prime = hyperplane.w + (-hyperplane.alpha,)
        marked = set(config.mu)
        for i, q in enumerate(lifted.points):
            assert dot(q, w_prime) == 1
            assert (lifted.sign_factors[i] < 0) == (i in marked)
        checked += 1
    ok = checked == len(runs)
    report(4, ok, f"{checked}/{len(runs)} instances, unit products and sign parity")


def test_criterion_05_per_block_normalizer_agreement(plusminus_corpus):
    runs, _ = plusminus_corpus
    checked = 0
    for run in runs:
        config = run.config
        lifted = lift_configuration(config, run.cert.hyperplane)
        partition = search_lift(lifted, config.r)
        betas = [
            sum(partition.coefficients[i] / lifted.sign_factors[i] for i in block)
            for block in partition.blocks
        ]
        assert len(set(betas)) == 1
        assert betas[0] > 0
        assert betas[0] == run.cert.beta
        checked += 1
    ok = checked == len(runs)
    report(5, ok, f"{checked}/{len(runs)} instances, all blocks share a positive value")


def test_criterion_06_rainbow_suite(tmp_path_factory):
    root = tmp_path_factory.mktemp("colored")
    rainbow_ok = 0
    discrete_ok = 0
    for i in range(COLORED_COUNT):
        d = 1 + (i % 2)
        r = 2 + (i % 2)
        config = gen.separable_configuration(
            f"col{i}", d=d, r=r, mu_size=0, colored=True
        )
        config_path = root / f"colored{i:03d}.txt"
        config_path.write_text(serialize_configuration(config))
        code, out, _ = run_cli(
            "solve", "--mode", "colored", "--input", str(config_path)
        )
        assert code == 0
        cert = parse_certificate(out)
        if all(
            len(set(cls) & set(block)) <= 1
            for cls in config.coloring
            for block in cert.blocks
        ):
            rainbow_ok += 1
        # Discrete coloring relaxes nothing: the rainbow filter is vacuous,
        # so the search must land on the classical result.
        n = len(config.points)
        discrete = replace(config, coloring=gen.discrete_coloring(n))
        classical = replace(config, mode=CLASSICAL, coloring=None)
        discrete_path = root / f"discrete{i:03d}.txt"
        classical_path = root / f"classical{i:03d}.txt"
        discrete_path.write_text(serialize_configuration(discrete))
        classical_path.write_text(serialize_configuration(classical))
        dcode, dout, _ = run_cli(
            "solve", "--mode", "colored", "--input", str(discrete_path)
        )
        ccode, cout, _ = run_cli(
            "solve", "--mode", "classical", "--input", str(classical_path)
        )
        assert dcode == 0 and ccode == 0
        dcert = parse_certificate(dout)
        ccert = parse_certificate(cout)
        if (
            dcert.blocks == ccert.blocks
            and dcert.coefficients == ccert.coefficients
            and dcert.point_b == ccert.point_b
            and dcert.beta == ccert.beta
            and dcert.hyperplane == ccert.hyperplane
        ):
            discrete_ok += 1
    ok = rainbow_ok == COLORED_COUNT and discrete_ok == COLORED_COUNT
    report(
        6,
        ok,
        f"{rainbow_ok}/{COLORED_COUNT} rainbow, "
        f"{discrete_ok}/{COLORED_COUNT} discrete equals classical",
    )


def test_criterion_07_corollary_suite(tmp_path_factory):
    root = tmp_path_factory.mktemp("corollary")
    face_ok = 0
    slot_ok = 0
    for i in range(COROLLARY_COUNT):
        d = 1 + (i % 2)
        r = 2 + (i % 2)
        mu_size = 1 if r == 2 else 1 + (i % 2)
        config = gen.separable_configuration(f"cor{i}", d=d, r=r, mu_size=mu_size)
        config_path = root / f"corollary{i:03d}.txt"
        cert_path = root / f"corollary{i:03d}.cert"
        config_path.write_text(serialize_configuration(config))
        code, _, _ = run_cli(
            "solve", "--mode", "corollary",
            "--input", str(config_path), "--output", str(cert_path),
        )
        assert code == 0
        vcode, _, _ = run_cli(
            "verify", "--input", str(config_path), "--cert", str(cert_path)
        )
        assert vcode == 0
        cert = parse_certificate(cert_path.read_text())
        marked = set(config.mu)
        if all(len(marked & set(block)) <= 1 for block in cert.blocks):
            face_ok += 1
        if all(
            sum(1 for v in block if cert.coefficients[v] <= 0) <= 1
            for block in cert.blocks
        ):
            slot_ok += 1
    ok = face_ok == COROLLARY_COUNT and slot_ok == COROLLARY_COUNT
    report(
        7,
        ok,
        f"{face_ok}/{COROLLARY_COUNT} meet the face at most once, "
        f"{slot_ok}/{COROLLARY_COUNT} have at most one nonpositive slot per block",
    )


def test_criterion_08_seven_point_rainbow_fixture():
    config_path = FIXTURES / "colored_plane7.txt"
    config = parse_configuration(config_path.read_text())
    combinatorics_ok = (
        config.coloring == ((0, 4), (1, 6), (2, 5), (3,))
        and config.mu == (0, 1)
        and config.d == 2
        and config.r == 3
    )
    code, out, _ = run_cli("solve", "--mode", "colored", "--input", str(config_path))
    golden = (FIXTURES / "colored_plane7.cert").read_text()
    cert = parse_certificate(out) if code == 0 else None
    ocode, oout, _ = run_cli("oracle", "--input", str(config_path))
    listing = oout.splitlines()
    ok = (
        combinatorics_ok
        and code == 0
        and out == golden
        and cert.rainbow
        and ocode == 0
        and len(listing) >= 1
        and "{0,6} {1,2,4} {3,5}" in listing
    )
    report(8, ok, f"accepted rainbow certificate, oracle lists {len(listing)} partition(s)")


def test_criterion_09_negative_hypotheses(tmp_path):
    line3 = (FIXTURES / "line3.txt").read_text()
    interior = tmp_path / "interior.txt"
    interior.write_text(line3.replace("mu : 2", "mu : 1"))
    separation_code, _, _ = run_cli("solve", "--input", str(interior))

    wide = tmp_path / "wide.txt"
    wide.write_text(line3.replace("mu : 2", "mu : 0 2"))
    wide_code, _, _ = run_cli("solve", "--input", str(wide))

    composite = tmp_path / "composite.txt"
    n = 3 * 2 + 1
    lines = ["tvpm-config v1", "d 1", "r 4", "mode colored", f"points {n}"]
    lines += [f"{i} : {i}" for i in range(n)]
    lines += [f"colors {n}"] + [f"C{i} : {i}" for i in range(n)]
    composite.write_text("\n".join(lines) + "\n")
    composite_code, _, _ = run_cli(
        "solve", "--mode", "colored", "--input", str(composite)
    )

    ok = separation_code == 3 and wide_code == 4 and composite_code == 2
    report(
        9,
        ok,
        f"exit codes: separation {separation_code}, oversized face {wide_code}, "
        f"composite r {composite_code}",
    )


def test_criterion_10_radon_sign_split_cross_check():
    matched = 0
    for i in range(RADON_COUNT):
        d = 1 + (i % 3)
        points = gen.generic_radon_points(i, d)
        partition = tverberg_partition(points, 2)
        dependence = affine_dependence(points)
        assert dependence is not None and all(c != 0 for c in dependence)
        positive = tuple(sorted(j for j, c in enumerate(dependence) if c > 0))
        negative = tuple(sorted(j for j, c in enumerate(dependence) if c < 0))
        expected = tuple(sorted((positive, negative), key=min))
        if partition.blocks == expected:
            matched += 1
    ok = matched == RADON_COUNT
    report(10, ok, f"{matched}/{RADON_COUNT} partitions coincide with the sign split")
