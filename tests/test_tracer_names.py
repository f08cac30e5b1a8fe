"""The benchmark's tracer wraps names it looks up in ``tvpm`` modules: each
one must still exist, or a traced run stops with AttributeError."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    """``perfbench/tracing.py`` as a module, loaded from its path alone."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "module_name, attr",
    [entry[:2] for entry in tracing.SPANS + tracing.GENERATORS],
    ids=lambda value: value,
)
def test_every_traced_name_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))
