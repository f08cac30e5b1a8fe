"""Interleaved A/B timing of two checkouts on the benchmark workloads' inputs.

    python3 tools/ab.py DIR_A DIR_B

Each checkout's ``src/tvpm`` is copied into a temporary directory under its
own package name (``tvpm_a``, ``tvpm_b``), so both load into one process.
The inputs are the first ``INSTANCES`` instances of each workload at the
benchmark's reference seed 0, as ``perfbench/workloads.py`` of the checkout
this script lives in generates them (imported, never written); the whole
list is run ``PASSES`` times.  Each search workload instance is solved by
``plus_minus_partition``, and the two certificates must serialize to the
same text.  For cli-oracle the instances are the generated plain and
colored configurations its rounds pass to ``tvpm oracle`` (the fixtures
left out), each listed by ``oracle_enumerate``, and the two listings must
be the same.  A difference stops the script with exit 1.  Every instance
is run by A and by B back to back, the order alternating from one instance
to the next, so a drift in the machine's speed falls on both sides alike.
Times are thread CPU time.

Per workload the script prints the totals, each side's p50 and p90 per
instance (``statistics.quantiles(n=10)``, as ``perfbench/run.py`` takes
them), and last the speed ratio: A's total time over B's, so a ratio above
1 means B is faster.

Then ``cli-round`` runs the 17 commands of the cli-oracle plan's
round 0 (``perfbench/workloads.py``) through each checkout's ``cli.main``,
``PASSES`` times, in one temporary copy of that workload's inputs
(``workloads.prepare``, under ``.perfbench-work/``, removed after).  Each
command is run by A and by B back to back, the order alternating as above,
and the two must agree on the exit code, stdout, stderr and the bytes of
the certificate written to ``--output`` (removed before each run); a
difference stops the script with exit 1.  This line times the whole
command: argument parsing, reading, solving, verifying, the oracle and
printing.

Then ``cli-plan`` runs the whole cli-oracle plan the same way: the 17
commands of every one of its ``CLI_ROUNDS`` rounds, in plan order, each
once per pass.  Its speed ratio is B's calls per second over A's, and its
p50 and p90 show a change that slows the many short commands, which the
total, led by the few long ones, can hide.

Last, ``frontier-round`` solves the inputs of ``tools/frontier.py``:
every cell of its ``GRID`` at every seed of its ``SEEDS`` (the first
``INSTANCES`` of them), built by this checkout's ``tests/gen.py`` and handed
to both checkouts as configuration text, ``PASSES`` times as above.  The
two certificates must serialize to the same text; a difference stops the
script with exit 1.  These cells reach what the benchmark's inputs never
do: four and five blocks, colored planar inputs, and two-block inputs up to
dimension 10.

This complements ``perfbench/run.py``, which measures one checkout per
process in a closed loop: the A/B here cancels drift between runs, but
measures neither set-up nor memory.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("search-lp", "search-enum", "cli-oracle")
SEED = 0
INSTANCES = 200
PASSES = 3


def load_script(relative_path: str, name: str):
    """The script at ``relative_path`` under this checkout as a module
    called ``name``, without writing bytecode next to it."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(name, ROOT / relative_path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads():
    """``perfbench/workloads.py`` as a module."""
    return load_script("perfbench/workloads.py", "perfbench_workloads")


def frontier_texts() -> list[str]:
    """The inputs of ``tools/frontier.py`` as configuration text: each cell
    of its ``GRID``, each seed of its ``SEEDS``, in that order, built by the
    ``tests/gen.py`` and written by the ``tvpm`` of this checkout, which
    that script's ``load`` puts on ``sys.path``."""
    frontier = load_script("tools/frontier.py", "frontier_tool")
    tvpm, _, _, gen = frontier.load(ROOT)
    return [
        tvpm.serialize_configuration(gen.separable_configuration(seed, *cell))
        for cell in frontier.GRID
        for seed in frontier.SEEDS
    ]


def load_package(checkout: Path, name: str, into: Path):
    source = checkout / "src" / "tvpm"
    if not (source / "__init__.py").is_file():
        raise SystemExit(f"no src/tvpm package in {checkout}")
    shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    importlib.import_module(f"{name}.cli")
    return importlib.import_module(name)


def solve(package, config) -> tuple[float, str]:
    start = time.thread_time()
    cert = package.plus_minus_partition(config)
    elapsed = time.thread_time() - start
    return elapsed, package.serialize_certificate(cert)


def oracle(package, config) -> tuple[float, str]:
    start = time.thread_time()
    listing = package.oracle_enumerate(config)
    elapsed = time.thread_time() - start
    return elapsed, repr(listing)


def inputs(workloads, workload: str) -> list[str]:
    texts = workloads.instance_texts(workload, SEED, ROOT / "tests" / "fixtures")
    if workload == "cli-oracle":
        # The generated pairs follow the fixtures.
        texts = texts[len(workloads.FIXTURES) :]
    return texts[:INSTANCES]


def compare(packages, name: str, texts: list[str]) -> int:
    """Each configuration of ``texts`` run by both packages: listed by the
    oracle for cli-oracle, solved otherwise (``interleave``)."""
    if name == "cli-oracle":
        run, outputs = oracle, "oracle listings"
    else:
        run, outputs = solve, "certificates"
    configs = [[p.parse_configuration(t) for t in texts] for p in packages]

    def differs(i, a, b):
        return None if a == b else f"instance {i}: the {outputs} differ"

    return interleave(
        name,
        "instance",
        len(texts),
        lambda side, i: run(packages[side], configs[side][i]),
        differs,
    )


def interleave(name: str, noun: str, count: int, run, differs) -> int:
    """``run(side, i) -> (time, result)`` for each ``i < count``, ``PASSES``
    times over, by A (side 0) and B back to back, the order alternating from
    one ``i`` to the next.  The first ``differs(i, a, b)`` message about the
    two results is printed and returns 1; otherwise the totals, each side's
    p50 and p90 and the speed ratio are printed and 0 is returned."""
    samples: list[list[float]] = [[], []]
    ratios = []
    for _ in range(PASSES):
        for i in range(count):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            times, results = [0.0, 0.0], [None, None]
            for side in order:
                times[side], results[side] = run(side, i)
            difference = differs(i, *results)
            if difference:
                print(f"{name} {difference}")
                return 1
            samples[0].append(times[0])
            samples[1].append(times[1])
            if times[1] > 0:
                ratios.append(times[0] / times[1])
    totals = [sum(side) for side in samples]
    print(
        f"{name}: A {totals[0]:.3f} s, B {totals[1]:.3f} s over "
        f"{count} {noun}s x {PASSES} passes; "
        f"median per-{noun} A/B {statistics.median(ratios):.3f}"
    )
    (a50, a90), (b50, b90) = (
        (deciles[4], deciles[8])
        for deciles in (statistics.quantiles(side, n=10) for side in samples)
    )
    print(
        f"{name}: p50 A {a50 * 1000:.3f} ms, B {b50 * 1000:.3f} ms; "
        f"p90 A {a90 * 1000:.3f} ms, B {b90 * 1000:.3f} ms"
    )
    print(f"{name}: A/B speed ratio {totals[0] / totals[1]:.3f}")
    return 0


def round_commands(workloads, k: int = 0) -> list[list[str]]:
    """The argument lists of the cli-oracle plan's round ``k``, with paths
    relative to the directory that holds the inputs.  The plan is read from
    ``Workload._cli_round`` without loading ``tvpm``; every argument is
    free of spaces, so each call's label splits back into its arguments."""
    plan = workloads.Workload.__new__(workloads.Workload)
    plan.workdir = Path()
    return [call.label.split(" ") for call in plan._cli_round(k)]


def plan_commands(workloads) -> list[list[str]]:
    """The argument lists of every round of the cli-oracle plan, in order."""
    return [
        argv
        for k in range(workloads.CLI_ROUNDS)
        for argv in round_commands(workloads, k)
    ]


def command(package, argv: list[str]) -> tuple[float, tuple]:
    """One ``cli.main`` call in the current directory: its time, and its exit
    code, stdout, stderr and the bytes written to ``--output`` (None when
    the file was not written)."""
    output = Path(argv[argv.index("--output") + 1]) if "--output" in argv else None
    if output is not None:
        output.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.thread_time()
        try:
            code = package.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        elapsed = time.thread_time() - start
    written = output.read_bytes() if output is not None and output.exists() else None
    return elapsed, (code, out.getvalue(), err.getvalue(), written)


def compare_round(workloads, packages) -> int:
    return compare_commands(workloads, packages, "cli-round", round_commands(workloads))


def compare_plan(workloads, packages) -> int:
    return compare_commands(workloads, packages, "cli-plan", plan_commands(workloads))


def compare_commands(workloads, packages, name: str, commands) -> int:
    """Each argument list of ``commands`` run through both packages'
    ``cli.main`` (``interleave``), in one temporary copy of the cli-oracle
    inputs; a difference in exit code, stdout, stderr or written
    certificate is one."""
    fields = ("exit code", "stdout", "stderr", "written certificate")

    def differs(i, a, b):
        for field, x, y in zip(fields, a, b):
            if x != y:
                return f"command {i} ({' '.join(commands[i])}): the {field} differ"
        return None

    workdir, _ = workloads.prepare("cli-oracle", SEED, ROOT)
    cwd = os.getcwd()
    try:
        os.chdir(workdir)
        return interleave(
            name,
            "command",
            len(commands),
            lambda side, i: command(packages[side], commands[i]),
            differs,
        )
    finally:
        os.chdir(cwd)
        workloads.discard(workdir)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 tools/ab.py DIR_A DIR_B", file=sys.stderr)
        return 2
    dir_a, dir_b = (Path(a).resolve() for a in argv)
    workloads = load_workloads()
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        packages = [
            load_package(dir_a, "tvpm_a", Path(tmp)),
            load_package(dir_b, "tvpm_b", Path(tmp)),
        ]
        for workload in WORKLOADS:
            if compare(packages, workload, inputs(workloads, workload)):
                return 1
        if compare_round(workloads, packages) or compare_plan(workloads, packages):
            return 1
        return compare(packages, "frontier-round", frontier_texts()[:INSTANCES])


if __name__ == "__main__":
    sys.exit(main())
