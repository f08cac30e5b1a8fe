"""The benchmark's tracer wraps names it looks up in ``tvpm`` modules: each
one must still exist, or a traced run stops with AttributeError."""

from __future__ import annotations

import importlib

import pytest

from search_counts import load

tracing = load("perfbench/tracing.py", "perfbench_tracing")


@pytest.mark.parametrize(
    "module_name, attr",
    [entry[:2] for entry in tracing.SPANS + tracing.GENERATORS],
    ids=lambda value: value,
)
def test_every_traced_name_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))
