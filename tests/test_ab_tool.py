"""``tools/ab.py`` end to end: a checkout compared with itself."""

from __future__ import annotations

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
        "search-lp", "search-enum", "cli-oracle"
    ]
    assert out.count("2 instances x 1 passes") == 3


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
    assert ab.compare(workloads, packages, "cli-oracle") == 1
    assert "cli-oracle instance 0: the oracle listings differ" in capsys.readouterr().out


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
