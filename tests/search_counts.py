"""Repository scripts loaded by path, and ``tools/frontier.py``'s
search-count wrapper.

``load(relative_path, name)`` runs the file at ``relative_path`` under the
repository root as a new module called ``name``; the tools and the
benchmark's tracer are scripts, not packages, so they are loaded this way.

``counting(solver, lp)`` is a context manager: inside it the searches,
listed partitions, programs decided, simplex LPs and pivots made through
``tvpm.solver``'s and ``tvpm.lp``'s globals are counted, and on exit the
wrapped names are given back.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(relative_path: str, name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / relative_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


counting = load("tools/frontier.py", "frontier_tool").counting
