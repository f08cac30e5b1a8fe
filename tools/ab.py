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

The last line per workload is the speed ratio: A's total time over B's, so
a ratio above 1 means B is faster.  This complements ``perfbench/run.py``,
which measures one checkout per process in a closed loop: the A/B here
cancels drift between runs, but measures neither set-up nor memory, nor
the CLI's parsing, verifying and printing around the oracle.
"""

from __future__ import annotations

import importlib
import importlib.util
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


def load_workloads():
    """``perfbench/workloads.py`` as a module, without writing bytecode
    next to it."""
    sys.dont_write_bytecode = True
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_package(checkout: Path, name: str, into: Path):
    source = checkout / "src" / "tvpm"
    if not (source / "__init__.py").is_file():
        raise SystemExit(f"no src/tvpm package in {checkout}")
    shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
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


def compare(workloads, packages, workload: str) -> int:
    if workload == "cli-oracle":
        run, outputs = oracle, "oracle listings"
    else:
        run, outputs = solve, "certificates"
    texts = inputs(workloads, workload)
    configs = [[p.parse_configuration(t) for t in texts] for p in packages]
    totals = [0.0, 0.0]
    ratios = []
    for _ in range(PASSES):
        for i in range(len(texts)):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            times, results = [0.0, 0.0], ["", ""]
            for side in order:
                times[side], results[side] = run(packages[side], configs[side][i])
            if results[0] != results[1]:
                print(f"{workload} instance {i}: the {outputs} differ")
                return 1
            totals[0] += times[0]
            totals[1] += times[1]
            if times[1] > 0:
                ratios.append(times[0] / times[1])
    print(
        f"{workload}: A {totals[0]:.3f} s, B {totals[1]:.3f} s over "
        f"{len(texts)} instances x {PASSES} passes; "
        f"median per-instance A/B {statistics.median(ratios):.3f}"
    )
    print(f"{workload}: A/B speed ratio {totals[0] / totals[1]:.3f}")
    return 0


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
            if compare(workloads, packages, workload):
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
