"""Per-module counters and timers, installed from outside the program.

Every ``tvpm`` module imports the functions it calls by name (``from .lp
import lp_solve``), so a call is intercepted by replacing the name in the
*caller's* module: ``tvpm.solver.lp_solve`` and ``tvpm.verifier.lp_solve``
are wrapped separately, which is what splits the LP work by caller.
Patching ``tvpm.lp.lp_solve`` alone would record nothing.

Spans are aggregated as they close instead of being stored: for each name
the tracer keeps the call count, the total time and the self time (total
minus the time of spans opened inside it).
"""

from __future__ import annotations

import contextlib
import importlib
from collections import defaultdict
from time import perf_counter
from typing import Iterator

# (module the caller lives in, name it looks up, span name)
SPANS = (
    ("tvpm.solver", "lp_solve", "lp.solver"),
    ("tvpm.separation", "lp_solve", "lp.separation"),
    ("tvpm.verifier", "lp_solve", "lp.verifier"),
    ("tvpm.solver", "hulls_intersect", "solver.hulls_intersect"),
    ("tvpm.solver", "validate_partition", "solver.validate_partition"),
    ("tvpm.pipeline", "lift_configuration", "separation.lift_configuration"),
    ("tvpm.pipeline", "pull_back_coefficients", "pipeline.pull_back_coefficients"),
    ("tvpm.cli", "parse_configuration", "model.parse_configuration"),
    ("tvpm.cli", "parse_certificate", "model.parse_certificate"),
    ("tvpm.cli", "serialize_certificate", "model.serialize_certificate"),
    ("tvpm.cli", "verify_certificate", "verifier.verify_certificate"),
    ("tvpm.cli", "oracle_enumerate", "verifier.oracle_enumerate"),
    ("tvpm.cli", "cmd_solve", "cli.solve"),
    ("tvpm.cli", "cmd_verify", "cli.verify"),
    ("tvpm.cli", "cmd_oracle", "cli.oracle"),
    ("tvpm.cli", "main", "cli.main"),
)
# Generators: each next() is a span; the count is of the items produced.
GENERATORS = (
    ("tvpm.solver", "enumerate_partitions", "solver.enumerate", "solver.partitions"),
    ("tvpm.verifier", "enumerate_partitions", "verifier.enumerate", "verifier.partitions"),
)
LP_CALLERS = ("solver", "separation", "verifier")

# The metrics ``metrics()`` returns, in order, with their units.
METRICS = {
    **{f"lp.{c}.calls": "count" for c in LP_CALLERS},
    **{f"lp.{c}.s": "s" for c in LP_CALLERS},
    **{f"lp.{c}.infeasible": "count" for c in LP_CALLERS},
    "lp.cells": "count",
    "lp.max_bits": "bits",
    "solver.partitions": "count",
    "solver.enumerate.s": "s",
    "solver.hulls_intersect.calls": "count",
    "solver.hulls_intersect.self_s": "s",
    "solver.bbox_rejects": "count",
    "solver.lp_hit_ratio": "ratio",
    "separation.lift_configuration.s": "s",
    "pipeline.pull_back_coefficients.s": "s",
    "solver.validate_partition.s": "s",
    "model.parse_configuration.s": "s",
    "model.parse_certificate.s": "s",
    "model.serialize_certificate.s": "s",
    "model.cert_bytes": "bytes",
    "verifier.verify_certificate.s": "s",
    "verifier.oracle_enumerate.s": "s",
    "verifier.oracle_hits": "count",
    "verifier.partitions": "count",
    "cli.solve.s": "s",
    "cli.verify.s": "s",
    "cli.oracle.s": "s",
    "cli.exit_nonzero": "count",
}
# Exact counts: equal inputs and equal program behaviour give equal values.
COUNTS = tuple(
    name for name, unit in METRICS.items() if unit in ("count", "bits", "bytes")
)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.extra: dict[str, int] = defaultdict(int)
        self._open: list[list[float]] = []

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every traced name for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span, counter in GENERATORS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._generator(span, counter, original))
            for module_name, attr, span in SPANS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                if attr == "lp_solve":
                    wrapper = self._lp(span, original)
                elif attr == "hulls_intersect":
                    wrapper = self._hulls(span, original)
                elif attr == "oracle_enumerate":
                    wrapper = self._counted(span, original, "verifier.oracle_hits", len)
                elif attr == "serialize_certificate":
                    wrapper = self._counted(
                        span, original, "model.cert_bytes", lambda t: len(t.encode())
                    )
                elif attr == "main":
                    wrapper = self._counted(
                        span, original, "cli.exit_nonzero", lambda code: int(code != 0)
                    )
                else:
                    wrapper = self._span(span, original)
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- spans --

    def _enter(self) -> list[float]:
        frame = [0.0]
        self._open.append(frame)
        return frame

    def _leave(self, name: str, frame: list[float], elapsed: float) -> None:
        self._open.pop()
        self.calls[name] += 1
        self.total[name] += elapsed
        self.self_time[name] += elapsed - frame[0]
        if self._open:
            self._open[-1][0] += elapsed

    def _span(self, name, fn):
        def traced(*args, **kwargs):
            frame = self._enter()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(name, frame, perf_counter() - start)

        return traced

    def _counted(self, name, fn, counter, measure):
        def traced(*args, **kwargs):
            frame = self._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, frame, perf_counter() - start)
            self.extra[counter] += measure(result)
            return result

        return traced

    def _lp(self, name, fn):
        from tvpm.lp import INFEASIBLE

        def traced(lp):
            frame = self._enter()
            start = perf_counter()
            try:
                result = fn(lp)
            finally:
                self._leave(name, frame, perf_counter() - start)
            self.extra["lp.cells"] += len(lp.constraints) * lp.num_vars
            if result.status == INFEASIBLE:
                self.extra[f"{name}.infeasible"] += 1
            if result.point:
                bits = max(
                    max(v.numerator.bit_length(), v.denominator.bit_length())
                    for v in result.point
                )
                self.extra["lp.max_bits"] = max(self.extra["lp.max_bits"], bits)
            return result

        return traced

    def _hulls(self, name, fn):
        def traced(point_blocks):
            before = self.calls["lp.solver"]
            frame = self._enter()
            start = perf_counter()
            try:
                return fn(point_blocks)
            finally:
                self._leave(name, frame, perf_counter() - start)
                if self.calls["lp.solver"] == before:
                    self.extra["solver.bbox_rejects"] += 1

        return traced

    def _generator(self, name, counter, fn):
        tracer = self

        class Timed:
            def __init__(self, inner):
                self.inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                frame = tracer._enter()
                start = perf_counter()
                try:
                    item = next(self.inner)
                finally:
                    tracer._leave(name, frame, perf_counter() - start)
                tracer.extra[counter] += 1
                return item

        def traced(*args, **kwargs):
            return Timed(fn(*args, **kwargs))

        return traced

    # -- results --

    def metrics(self) -> dict[str, float]:
        """Every metric in METRICS, from what has been recorded so far.

        ``<span>.calls``, ``<span>.s`` and ``<span>.self_s`` come from the
        span; every other name is a counter of its own."""
        out: dict[str, float] = {}
        for name in METRICS:
            span, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self.calls[span]
            elif kind == "s":
                out[name] = self.total[span]
            elif kind == "self_s":
                out[name] = self.self_time[span]
            else:
                out[name] = self.extra[name]
        lps = self.calls["lp.solver"]
        feasible = lps - self.extra["lp.solver.infeasible"]
        out["solver.lp_hit_ratio"] = feasible / lps if lps else 0.0
        return out
