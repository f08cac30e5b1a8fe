"""The tvpm benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload search-lp --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.  One
client makes one top-level call at a time (``plus_minus_partition`` for the
search workloads, ``tvpm.cli.main`` for cli-oracle) until the calls have
taken ``--seconds`` and at least MIN_SAMPLES have been made.  Every output is
checked after its call, outside the timed region.

The last line of stdout is the result: end-to-end metrics with ``--trace 0``,
per-module metrics with ``--trace 1``.  The line before it records the run's
conditions (workload, seed, input digest, Python version, nproc, failures).
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

PINNED = HERE / "pinned.json"
# p90 needs ten samples beyond it.
MIN_SAMPLES = 100
# Fresh interpreters started to time set-up, spread over the run so that
# they see the same machine as the calls; one more before the run only warms
# the disk and bytecode caches and is not counted.
SETUP_PROBES = 7
# Plan cycles traced into the per-module metrics: a fixed prefix of the plan
# (60, 60 and 17 calls), so that its counts repeat exactly for a seed.
TRACE_ROUNDS = {"search-lp": 30, "search-enum": 12, "cli-oracle": 1}
# Per-module metrics of a traced run: the window's wall time, which the
# module times are shares of, then the tracer's.
PER_LAYER = {"window.s": "s", **tracing.METRICS}
EXIT_NO_PROGRAM = 2
EXIT_INPUTS_CHANGED = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe", metavar="DIR", help="load the inputs in DIR, print 'ready' and exit"
    )
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so that the inputs written under the checkout
    # are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not use_program():
        return EXIT_NO_PROGRAM

    if args.probe:
        import tvpm  # noqa: F401

        workloads.Workload(args.workload, Path(args.probe))
        print("ready", time.process_time(), flush=True)
        return 0

    pinned = json.loads(PINNED.read_text())
    reference = workloads.instance_texts(
        args.workload, pinned["reference_seed"], ROOT / "tests" / "fixtures"
    )
    expected = pinned["workloads"][args.workload]["inputs_sha256"]
    if workloads.inputs_sha256(reference) != expected:
        print(
            f"perfbench: the {args.workload} inputs for seed "
            f"{pinned['reference_seed']} no longer match pinned.json; "
            "the workload has changed",
            file=sys.stderr,
        )
        return EXIT_INPUTS_CHANGED

    workdir, texts = workloads.prepare(args.workload, args.seed, ROOT)
    setup: list[float] = []
    try:
        workload = workloads.Workload(args.workload, workdir)
        if args.trace:
            run = closed_loop(workload, args.seconds, tracing.Tracer())
        else:
            probe = functools.partial(probe_setup, args.workload, args.seed, workdir)
            probe()
            run = closed_loop(
                workload,
                args.seconds,
                between=lambda: setup.append(probe()),
                ticks=SETUP_PROBES,
            )
    finally:
        workloads.discard(workdir)

    samples = run["samples"]
    attempted, failed = len(samples), len(run["failures"])
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha256": workloads.inputs_sha256(texts),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "samples": attempted,
        "failed_ratio": failed / attempted,
        "instances_per_s": attempted / sum(samples),
        "wall_instances_per_s": attempted / sum(run["wall"]),
        "wall_solve_s.p50": statistics.median(run["wall"]),
        "failures": run["failures"][:5],
    }
    if not args.trace:
        deciles = statistics.quantiles(samples, n=10)
        metrics = {
            "solve_s.p50": (deciles[4], "s"),
            "solve_s.p90": (deciles[8], "s"),
            "instances_per_s": (attempted / sum(samples), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB",
            ),
        }
    else:
        window = run["window"]
        metrics = {name: (window[name], unit) for name, unit in PER_LAYER.items()}
        if args.seed == pinned["reference_seed"]:
            counts = {name: window[name] for name in tracing.COUNTS}
            info["counts_match_pinned"] = (
                counts == pinned["workloads"][args.workload]["counts"]
            )
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


def use_program() -> bool:
    """Put the checkout's ``src/`` first on the import path; False, with a
    message, when the program or its fixtures are not there."""
    for path in (ROOT / "src" / "tvpm" / "__init__.py", ROOT / "tests" / "fixtures"):
        if not path.exists():
            print(f"perfbench: program sources not found: {path}", file=sys.stderr)
            return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    """CPU time a fresh interpreter spends until it is ready for the first
    call: interpreter start, ``import tvpm`` and loading the inputs from
    ``workdir`` (for the search workloads, parsing every instance)."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--probe", str(workdir),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=60)
    word, _, cpu = done.stdout.partition(" ")
    if done.returncode != 0 or word != "ready":
        raise RuntimeError(f"set-up probe failed with exit {done.returncode}")
    return float(cpu)


def window_calls(workload) -> int:
    return TRACE_ROUNDS[workload.name] * workload.round_length


def closed_loop(
    workload,
    seconds: float,
    tracer=None,
    min_samples: int = MIN_SAMPLES,
    between: Optional[Callable[[], None]] = None,
    ticks: int = 0,
) -> dict:
    """Make calls one after another until they have taken ``seconds``, there
    are ``min_samples`` of them and the plan's current cycle is complete.  A
    call that raises or fails its check is counted as failed and the run
    goes on.  ``between()`` runs ``ticks`` times, spread evenly over the
    ``seconds``, outside the calls.

    ``samples`` holds each call's CPU time and ``wall`` its wall time.  With
    a tracer, ``window`` holds the per-module metrics of the first
    ``window_calls(workload)`` calls (wall time, like the tracer's spans)."""
    samples: list[float] = []
    wall: list[float] = []
    failures: list[str] = []
    window = None
    busy = 0.0
    ticked = 0
    calls = workload.calls()
    with tracer.installed() if tracer else contextlib.nullcontext():
        while (
            busy < seconds
            or len(samples) < min_samples
            or len(samples) % workload.round_length
        ):
            call = next(calls)
            start, cpu_start = time.perf_counter(), time.thread_time()
            try:
                result = call.run()
            except Exception as exc:  # the run reports it and goes on
                cpu, elapsed = time.thread_time() - cpu_start, time.perf_counter() - start
                reason = f"{type(exc).__name__}: {exc}"
            else:
                cpu, elapsed = time.thread_time() - cpu_start, time.perf_counter() - start
                try:
                    reason = call.check(result)
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
            samples.append(cpu)
            wall.append(elapsed)
            busy += elapsed
            if reason is not None:
                failures.append(f"{call.label}: {reason}")
            if tracer is not None and len(samples) == window_calls(workload):
                window = {"window.s": sum(wall), **tracer.metrics()}
            while ticked < ticks and busy >= seconds * (ticked + 1) / ticks:
                between()
                ticked += 1
    for _ in range(ticked, ticks):
        between()
    return {"samples": samples, "wall": wall, "failures": failures, "window": window}


if __name__ == "__main__":
    sys.exit(main())
