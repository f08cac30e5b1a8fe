"""``tools/frontier.py``, loaded by path, and its search-count wrapper.

``counting(solver, lp)`` is a context manager: inside it the searches,
listed partitions, programs decided, simplex LPs and pivots made through
``tvpm.solver``'s and ``tvpm.lp``'s globals are counted, and on exit the
wrapped names are given back.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "frontier.py"


def load_frontier():
    spec = importlib.util.spec_from_file_location("frontier_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


counting = load_frontier().counting
