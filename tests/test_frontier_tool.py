"""``tools/frontier.py`` end to end, on a grid cut down to one small cell."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import gen
from tvpm import plus_minus_partition, solver

ROOT = Path(__file__).resolve().parent.parent
SEEDS_RUN = range(2)


def load_frontier():
    spec = importlib.util.spec_from_file_location(
        "frontier_tool", ROOT / "tools" / "frontier.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_small_grid_prints_one_row_per_cell(monkeypatch, capsys):
    frontier = load_frontier()
    monkeypatch.setattr(frontier, "GRID", ((2, 3, 2), (4, 2, 1)))
    monkeypatch.setattr(frontier, "SEEDS", SEEDS_RUN)
    # main() wraps these names and sets these for the process it runs in;
    # give them back after.
    monkeypatch.setattr(solver, "enumerate_partitions", solver.enumerate_partitions)
    monkeypatch.setattr(solver, "lp_solve", solver.lp_solve)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    assert frontier.main([str(ROOT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"frontier of {ROOT}, seeds 0-1"
    rows = [line.split("|")[1:-1] for line in lines[3:]]
    assert [tuple(int(c) for c in row[:4]) for row in rows] == [
        (2, 3, 2, 7),
        (4, 2, 1, 6),
    ]
    assert lines[1].endswith("| partitions (sum) | LPs (sum) |")
    assert 2 <= int(rows[0][7]) <= int(rows[0][6])
    # Two blocks: the Radon dependence gives the hit, without a walk or an LP.
    assert (int(rows[1][6]), int(rows[1][7])) == (0, 0)
    # The counts are sums over the seeds, whichever seed ran slowest.
    counts = {"partitions": 0, "lps": 0}
    frontier.counting(solver, counts)
    for seed in SEEDS_RUN:
        plus_minus_partition(gen.separable_configuration(seed, 2, 3, 2))
    assert (int(rows[0][6]), int(rows[0][7])) == (counts["partitions"], counts["lps"])


def test_a_directory_without_the_package_is_refused(tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "frontier.py"), str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert "no src/tvpm package" in result.stderr


def test_more_than_one_directory_is_a_usage_error():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "frontier.py"), str(ROOT), str(ROOT)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert "usage" in result.stderr
