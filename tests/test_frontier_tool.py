"""``tools/frontier.py`` end to end, on a grid cut down to one small cell."""

from __future__ import annotations

import re
import subprocess
import sys

import gen
from search_counts import ROOT, load
from tvpm import lp, plus_minus_partition, solver

SEEDS_RUN = range(2)


def test_a_small_grid_prints_one_row_per_cell(monkeypatch, capsys):
    frontier = load("tools/frontier.py", "frontier_tool")
    monkeypatch.setattr(
        frontier, "GRID", ((2, 3, 2, False), (4, 2, 1, False), (2, 3, 2, True))
    )
    monkeypatch.setattr(frontier, "SEEDS", SEEDS_RUN)
    # main() sets these for the process it runs in; give them back after.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    wrapped = (
        solver.enumerate_partitions,
        solver._decide,
        solver.lp_solve,
        solver._narrow,
        lp._pivot,
    )
    assert frontier.main([str(ROOT)]) == 0
    # The names it counts through are given back.
    assert (
        solver.enumerate_partitions,
        solver._decide,
        solver.lp_solve,
        solver._narrow,
        lp._pivot,
    ) == wrapped
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"frontier of {ROOT}, seeds 0-1"
    rows = [line.split("|")[1:-1] for line in lines[3:-1]]
    assert [tuple(c.strip() for c in row[:5]) for row in rows] == [
        ("2", "3", "2", "classical", "7"),
        ("4", "2", "1", "classical", "6"),
        ("2", "3", "2", "colored", "7"),
    ]
    assert lines[1].startswith("| d | r | \\|mu\\| | mode | n |")
    assert lines[1].endswith(
        "| partitions (sum) | programs (sum) | LPs (sum) | pivots (sum) "
        "| walk nodes (sum) |"
    )
    # The last line is the whole grid's time, every cell and seed.
    assert re.fullmatch(r"grid total: [0-9.]+ m?s thread time", lines[-1])
    partitions, programs, lps, pivots, nodes = (int(c) for c in rows[0][7:12])
    assert 2 <= programs <= partitions
    # Each listed partition ends one node of the walk's last grown block.
    assert nodes >= partitions
    # The simplex decides only what elimination leaves over.
    assert lps <= programs
    # Every solve's separation LP pivots at least once.
    assert pivots >= len(SEEDS_RUN)
    # Two blocks: the Radon dependence gives the hit, without a walk, a
    # program or an LP; the separation LP's pivots are left.
    assert tuple(int(c) for c in rows[1][7:10]) == (0, 0, 0)
    assert int(rows[1][10]) >= len(SEEDS_RUN)
    assert int(rows[1][11]) == 0
    # The colored cell runs the rainbow search: it lists partitions and
    # decides programs too.
    colored_partitions, colored_programs = (int(c) for c in rows[2][7:9])
    assert 1 <= colored_programs <= colored_partitions
    # The counts are sums over the seeds, whichever seed ran slowest.
    with frontier.counting(solver, lp) as counts:
        for seed in SEEDS_RUN:
            plus_minus_partition(gen.separable_configuration(seed, 2, 3, 2))
    assert counts["searches"] == len(SEEDS_RUN)
    assert (partitions, programs, lps, pivots, nodes) == tuple(
        counts[c] for c in frontier.COUNTS
    )


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
