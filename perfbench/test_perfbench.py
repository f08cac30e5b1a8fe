"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pin  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

assert run.use_program()

from tvpm import oracle_enumerate, parse_configuration, plus_minus_partition  # noqa: E402
import tvpm.lp  # noqa: E402
import tvpm.solver  # noqa: E402


def test_lp_calls_are_split_by_caller():
    config = parse_configuration(workloads.config_text("tiny", 2, 3, 2, False))
    tracer = tracing.Tracer()
    original = tvpm.solver.lp_solve
    with tracer.installed():
        plus_minus_partition(config)
        oracle_enumerate(config)
    assert tvpm.solver.lp_solve is original
    metrics = tracer.metrics()
    for name in (
        "lp.solver.calls",
        "lp.separation.calls",
        "lp.verifier.calls",
        "solver.partitions",
        "verifier.partitions",
        "solver.hulls_intersect.calls",
    ):
        assert metrics[name] > 0, name
    assert metrics["lp.verifier.calls"] == metrics["verifier.partitions"]
    assert metrics["solver.hulls_intersect.calls"] == metrics["solver.partitions"]
    assert (
        metrics["solver.bbox_rejects"] + metrics["lp.solver.calls"]
        == metrics["solver.hulls_intersect.calls"]
    )


def test_patching_lp_module_alone_records_nothing():
    calls = []
    original = tvpm.lp.lp_solve
    tvpm.lp.lp_solve = lambda lp: calls.append(lp) or original(lp)
    try:
        plus_minus_partition(
            parse_configuration(workloads.config_text("tiny", 2, 3, 2, False))
        )
    finally:
        tvpm.lp.lp_solve = original
    assert calls == []


def test_pinned_counts_and_inputs_repeat_exactly():
    recorded = json.loads(run.PINNED.read_text())
    assert recorded["reference_seed"] == pin.REFERENCE_SEED
    for name in workloads.WORKLOADS:
        first, second = pin.entry(name), pin.entry(name)
        assert first == second, name
        assert first == recorded["workloads"][name], name


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in workloads.WORKLOADS:
        fixtures = run.ROOT / "tests" / "fixtures"
        a = workloads.instance_texts(name, 7, fixtures)
        assert a == workloads.instance_texts(name, 7, fixtures)
        assert a != workloads.instance_texts(name, 8, fixtures)


class _Broken:
    round_length = 3

    def calls(self):
        def boom():
            raise ValueError("boom")

        return itertools.cycle(
            [
                workloads.Call("raises", boom, lambda _: None),
                workloads.Call("wrong", lambda: 1, lambda _: "wrong answer"),
                workloads.Call("right", lambda: 1, lambda _: None),
            ]
        )


def test_failures_are_counted_and_the_run_goes_on():
    ticks = []
    result = run.closed_loop(
        _Broken(), 0, min_samples=8, between=lambda: ticks.append(1), ticks=4
    )
    assert len(result["samples"]) == 9
    assert len(ticks) == 4
    assert len(result["failures"]) == 6
    assert result["failures"][0] == "raises: ValueError: boom"


def test_cli_plan_expects_documented_exit_codes():
    workdir, _ = workloads.prepare("cli-oracle", 3, run.ROOT)
    try:
        workload = workloads.Workload("cli-oracle", workdir)
        result = run.closed_loop(workload, 0, min_samples=1)
    finally:
        workloads.discard(workdir)
    assert len(result["samples"]) == 17
    assert result["failures"] == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-lp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
