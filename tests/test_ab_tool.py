"""``tools/ab.py`` end to end: a checkout compared with itself, and the
differences it must catch."""

from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

from search_counts import ROOT, load


@pytest.fixture
def ab(monkeypatch):
    """``tools/ab.py`` on two instances and one pass; the interpreter state
    it sets for its own process is given back after."""
    module = load("tools/ab.py", "ab_tool")
    monkeypatch.setattr(module, "INSTANCES", 2)
    monkeypatch.setattr(module, "PASSES", 1)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    before = set(sys.modules)
    yield module
    for name in set(sys.modules) - before:
        del sys.modules[name]


def test_a_checkout_against_itself_gives_every_ratio(ab, capsys):
    assert ab.main([str(ROOT), str(ROOT)]) == 0
    out = capsys.readouterr().out
    ratios = [line for line in out.splitlines() if "A/B speed ratio" in line]
    assert [line.split(":")[0] for line in ratios] == [
        "search-lp", "search-enum", "cli-oracle", "cli-round", "frontier-round"
    ]
    assert out.count("2 instances x 1 passes") == 4
    assert out.count("17 commands x 1 passes") == 1


def test_the_frontier_round_solves_the_frontier_grid(ab):
    frontier = load("tools/frontier.py", "frontier_grid")
    texts = ab.frontier_texts()
    assert len(texts) == len(frontier.GRID) * len(frontier.SEEDS) == 80
    tvpm, _, _, gen = frontier.load(ROOT)
    cells = [(cell, seed) for cell in frontier.GRID for seed in frontier.SEEDS]
    for i in (0, 1, 41, 79):
        (d, r, mu_size, colored), seed = cells[i]
        config = gen.separable_configuration(seed, d, r, mu_size, colored)
        assert tvpm.parse_configuration(texts[i]) == config
    # The grid ends on colored (2, 5, 4), which no benchmark input reaches.
    assert "mode colored" in texts[-1] and "r 5" in texts[-1]


class _Solver:
    """A stand-in package whose solve of any input serializes to ``text``."""

    def __init__(self, text):
        self.text = text

    def parse_configuration(self, text):
        return text

    def plus_minus_partition(self, config):
        return self.text

    def serialize_certificate(self, cert):
        return cert


def test_differing_frontier_certificates_exit_one(ab, capsys):
    texts = ab.frontier_texts()[:2]
    packages = [_Solver("cert\n"), _Solver("other\n")]
    assert ab.compare(packages, "frontier-round", texts) == 1
    assert capsys.readouterr().out == (
        "frontier-round instance 0: the certificates differ\n"
    )


def test_the_oracle_runs_on_the_generated_pairs(ab):
    workloads = ab.load_workloads()
    texts = ab.inputs(workloads, "cli-oracle")
    assert ["mode classical" in t for t in texts] == [True, False]
    assert "mode colored" in texts[1]


class _Oracle:
    """A stand-in package whose oracle lists ``listing`` for every input."""

    def __init__(self, listing):
        self.listing = listing

    def parse_configuration(self, text):
        return text

    def oracle_enumerate(self, config):
        return self.listing


def test_differing_oracle_listings_exit_one(ab, capsys):
    workloads = ab.load_workloads()
    packages = [_Oracle([((0,), (1, 2))]), _Oracle([])]
    texts = ab.inputs(workloads, "cli-oracle")
    assert ab.compare(packages, "cli-oracle", texts) == 1
    assert "cli-oracle instance 0: the oracle listings differ" in capsys.readouterr().out


def test_the_round_is_the_benchmark_round_with_relative_paths(ab):
    commands = ab.round_commands(ab.load_workloads())
    assert len(commands) == 17
    assert commands[0] == ["solve", "--input", "line3.txt", "--output", "l.cert"]
    assert commands[-1] == ["oracle", "--input", "c0.txt"]


class _Cli:
    """A stand-in package whose ``cli.main`` prints ``stderr`` and writes
    ``written``, unless it is None, to the ``--output`` file, if any, and
    exits 0."""

    def __init__(self, stderr="", written="cert\n"):
        self.cli = self
        self.stderr = stderr
        self.written = written

    def main(self, argv):
        sys.stderr.write(self.stderr)
        if self.written is not None and "--output" in argv:
            with open(argv[argv.index("--output") + 1], "w") as handle:
                handle.write(self.written)
        return 0


@pytest.mark.parametrize(
    "b, field",
    [
        (_Cli(stderr="solved\n"), "stderr"),
        (_Cli(written="other\n"), "written certificate"),
        (_Cli(written=None), "written certificate"),
    ],
    ids=["stderr", "written", "unwritten"],
)
def test_differing_commands_exit_one(ab, capsys, b, field):
    assert ab.compare_round(ab.load_workloads(), [_Cli(), b]) == 1
    assert capsys.readouterr().out == (
        f"cli-round command 0 (solve --input line3.txt --output l.cert): "
        f"the {field} differ\n"
    )


def test_a_checkout_whose_cli_prints_other_bytes_exits_one(ab, capsys, tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    cli = tmp_path / "src" / "tvpm" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    cli.write_text(text.replace('"certificate accepted"', '"certificate ok"'))
    assert ab.main([str(ROOT), str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert out.endswith(
        "cli-round command 1 (verify --input line3.txt --cert l.cert): "
        "the stderr differ\n"
    )


def test_a_directory_without_the_package_is_refused(tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert "no src/tvpm package" in result.stderr


def test_anything_but_two_directories_is_a_usage_error():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert "usage" in result.stderr
