"""``tools/ab.py`` end to end: a checkout compared with itself."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_ab():
    spec = importlib.util.spec_from_file_location("ab_tool", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_checkout_against_itself_gives_both_ratios(monkeypatch, capsys):
    ab = load_ab()
    monkeypatch.setattr(ab, "INSTANCES", 2)
    monkeypatch.setattr(ab, "PASSES", 1)
    # main() sets these for the process it runs in; give them back after.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    before = set(sys.modules)
    try:
        assert ab.main([str(ROOT), str(ROOT)]) == 0
    finally:
        for name in set(sys.modules) - before:
            del sys.modules[name]
    out = capsys.readouterr().out
    ratios = [line for line in out.splitlines() if "A/B speed ratio" in line]
    assert [line.split(":")[0] for line in ratios] == ["search-lp", "search-enum"]
    assert "2 instances x 1 passes" in out


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
