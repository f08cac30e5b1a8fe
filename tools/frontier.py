"""Time the partition search on the fixed grid of ROADMAP's frontier table.

    python3 tools/frontier.py [DIR]

For every cell ``(d, r, |mu|)`` of ``GRID`` it solves
``plus_minus_partition`` on ``tests/gen.separable_configuration`` seeds
``SEEDS``, with the ``src/tvpm`` of the checkout DIR (default: the checkout
this script lives in) and the ``tests/gen.py`` of this one, so that two
checkouts are timed on the same inputs.  It prints one row per cell with the
columns of ROADMAP's table: the median and the largest solve time over the
seeds, and, summed over all the seeds, the partitions the search listed
(items its ``enumerate_partitions`` yielded) and the LPs it ran (its
``lp_solve`` calls).  The sums do not depend on which seed ran slowest, so
rows compare from run to run and between checkouts.  Both counts come from
wrapping those names in ``tvpm.solver``, the module the search looks them
up in.  Times are thread CPU time and include the wrappers' small cost.

It uses the standard library only, writes nothing, and takes no options.
A whole run takes about 6 s on a 2-core machine (Python 3.11.7) with the
bitset walk cutting on the coordinates and their pairwise sums and
differences, and about 20 s with the tuple walk it replaced, which cut on
the coordinates alone.  With the two cuts that the walk's one box cut
replaced, (1,10,4) alone does not finish in ten minutes.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (d, r, |mu|): ROADMAP's frontier table.  The d = 1 cells run one search LP
# each, so they time the partition walk; the two-block cells list no
# partition and run no search LP, their Radon dependence naming the hit.
GRID = (
    (2, 3, 2),
    (3, 3, 2),
    (1, 5, 2),
    (2, 4, 3),
    (4, 3, 2),
    (3, 4, 3),
    (2, 5, 4),
    (1, 8, 3),
    (1, 10, 4),
    (6, 2, 1),
    (8, 2, 1),
    (10, 2, 1),
)
SEEDS = range(5)


def load(checkout: Path):
    """``tvpm`` from ``checkout/src``, ``tvpm.solver`` and this checkout's
    ``gen``, without writing bytecode into either checkout."""
    source = checkout / "src"
    if not (source / "tvpm" / "__init__.py").is_file():
        raise SystemExit(f"no src/tvpm package in {checkout}")
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(source), str(ROOT / "tests")]
    tvpm = importlib.import_module("tvpm")
    return tvpm, importlib.import_module("tvpm.solver"), importlib.import_module("gen")


def counting(solver, counts: dict[str, int]) -> None:
    """Wrap the search's two names in ``solver`` so that they count."""
    enumerate_partitions = solver.enumerate_partitions
    lp_solve = solver.lp_solve

    def listed(*args, **kwargs):
        for blocks in enumerate_partitions(*args, **kwargs):
            counts["partitions"] += 1
            yield blocks

    def solved(lp):
        counts["lps"] += 1
        return lp_solve(lp)

    solver.enumerate_partitions = listed
    solver.lp_solve = solved


def seconds(value: float) -> str:
    return f"{value * 1000:.3g} ms" if value < 1 else f"{value:.3g} s"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print("usage: python3 tools/frontier.py [DIR]", file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve() if argv else ROOT
    tvpm, solver, gen = load(checkout)
    counts = {"partitions": 0, "lps": 0}
    counting(solver, counts)
    print(f"frontier of {checkout}, seeds {SEEDS.start}-{SEEDS.stop - 1}")
    print("| d | r | \\|mu\\| | n | median | max | partitions (sum) | LPs (sum) |")
    print("|---|---|---|---|---|---|---|---|")
    for d, r, mu_size in GRID:
        runs = []
        for seed in SEEDS:
            config = gen.separable_configuration(seed, d, r, mu_size)
            counts["partitions"] = counts["lps"] = 0
            start = time.thread_time()
            tvpm.plus_minus_partition(config)
            runs.append((time.thread_time() - start, counts["partitions"], counts["lps"]))
        times, partitions, lps = zip(*runs)
        n = len(config.points)
        print(
            f"| {d} | {r} | {mu_size} | {n} | {seconds(statistics.median(times))} | "
            f"{seconds(max(times))} | {sum(partitions)} | {sum(lps)} |",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
