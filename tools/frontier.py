"""Time the partition search on the fixed grid of ROADMAP's frontier table.

    python3 tools/frontier.py [DIR]

For every cell ``(d, r, |mu|, colored)`` of ``GRID`` it solves
``plus_minus_partition`` on ``tests/gen.separable_configuration`` seeds
``SEEDS``, plain or colored, with the ``src/tvpm`` of the checkout DIR
(default: the checkout this script lives in) and the ``tests/gen.py`` of
this one, so that two checkouts are timed on the same inputs.  It prints
one row per cell with the columns of ROADMAP's table: the configurations'
mode, the median and the largest solve time over the seeds, and, summed
over all the seeds, the partitions the search listed (items its
``enumerate_partitions`` yielded), the programs it decided (its
``_decide`` calls), the simplex LPs among them (its ``lp_solve`` calls:
the programs that elimination could not decide), the simplex pivots of
the whole solve (``tvpm.lp._pivot`` calls): those of the separation LP and
of the search's LPs, and the nodes of the partition walk (its ``_narrow``
calls, one per block it grows), which move when a change to the walk's axes
moves a cut.  The sums do not depend on which seed ran slowest, so rows
compare from run to run and between checkouts.  The counts come from
``counting``, which wraps those names in ``tvpm.solver``, the module the
search and its walk look them up in, and ``_pivot`` in ``tvpm.lp``, where
the simplex loop looks it up, and gives them back when the grid is done;
the tests count through it too.  Times are thread CPU time and include
the wrappers' small cost.
The last line is the whole grid's thread time, every cell and seed.

It uses the standard library only, writes nothing, and takes no options.
On a 2-core machine (Python 3.11.7) that last line read 4.78 s and 3.98 s
in two runs with the bitset walk, its pairwise axes, the table of Farkas
certificates and the elimination, against 5.71 s and 4.12 s without the
elimination in the same session; the tuple walk before them, which cut on
the coordinates alone, took about 20 s.  With the two cuts that the walk's one
box cut replaced, (1,10,4) alone does not finish in ten minutes.  On the same
machine the grid with its four colored cells read 3.86 s, the colored cells
about 0.5 s of it, and none of their solves took more than 0.15 s.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
# (d, r, |mu|, colored): ROADMAP's frontier table.  The d = 1 cells decide
# one search program each, so they time the partition walk; the two-block
# cells list no partition and pose no search program, their Radon dependence
# naming the hit.  The colored cells, last, time the rainbow walk of the
# paper's colored analogue; colored mode needs a prime r.
GRID = (
    (2, 3, 2, False),
    (3, 3, 2, False),
    (1, 5, 2, False),
    (2, 4, 3, False),
    (4, 3, 2, False),
    (3, 4, 3, False),
    (2, 5, 4, False),
    (1, 8, 3, False),
    (1, 10, 4, False),
    (6, 2, 1, False),
    (8, 2, 1, False),
    (10, 2, 1, False),
    (2, 3, 2, True),
    (3, 3, 2, True),
    (4, 3, 2, True),
    (2, 5, 4, True),
)
SEEDS = range(5)
# The counted columns, in table order.
COUNTS = ("partitions", "programs", "lps", "pivots", "nodes")


def load(checkout: Path):
    """``tvpm`` from ``checkout/src``, ``tvpm.solver``, ``tvpm.lp`` and this
    checkout's ``gen``, without writing bytecode into either checkout."""
    source = checkout / "src"
    if not (source / "tvpm" / "__init__.py").is_file():
        raise SystemExit(f"no src/tvpm package in {checkout}")
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(source), str(ROOT / "tests")]
    tvpm = importlib.import_module("tvpm")
    return (
        tvpm,
        importlib.import_module("tvpm.solver"),
        importlib.import_module("tvpm.lp"),
        importlib.import_module("gen"),
    )


@contextmanager
def counting(solver, lp) -> Iterator[dict[str, int]]:
    """Counts of the searches (``enumerate_partitions`` calls) and of
    ``COUNTS`` made inside the ``with`` block, through ``solver``'s
    ``enumerate_partitions``, ``_decide``, ``lp_solve`` and ``_narrow`` and
    ``lp``'s ``_pivot``; every name is given back on exit."""
    counts = dict.fromkeys(("searches", *COUNTS), 0)
    enumerate_partitions = solver.enumerate_partitions
    decide = solver._decide
    lp_solve = solver.lp_solve
    narrow = solver._narrow
    pivot = lp._pivot

    def listed(*args, **kwargs):
        counts["searches"] += 1
        for blocks in enumerate_partitions(*args, **kwargs):
            counts["partitions"] += 1
            yield blocks

    def decided(program):
        counts["programs"] += 1
        return decide(program)

    def solved(program):
        counts["lps"] += 1
        return lp_solve(program)

    def narrowed(*args):
        counts["nodes"] += 1
        return narrow(*args)

    def pivoted(*args):
        counts["pivots"] += 1
        return pivot(*args)

    solver.enumerate_partitions = listed
    solver._decide = decided
    solver.lp_solve = solved
    solver._narrow = narrowed
    lp._pivot = pivoted
    try:
        yield counts
    finally:
        solver.enumerate_partitions = enumerate_partitions
        solver._decide = decide
        solver.lp_solve = lp_solve
        solver._narrow = narrow
        lp._pivot = pivot


def seconds(value: float) -> str:
    return f"{value * 1000:.3g} ms" if value < 1 else f"{value:.3g} s"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print("usage: python3 tools/frontier.py [DIR]", file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve() if argv else ROOT
    tvpm, solver, lp, gen = load(checkout)
    print(f"frontier of {checkout}, seeds {SEEDS.start}-{SEEDS.stop - 1}")
    print(
        "| d | r | \\|mu\\| | mode | n | median | max "
        "| partitions (sum) | programs (sum) | LPs (sum) | pivots (sum) "
        "| walk nodes (sum) |"
    )
    print("|---|---|---|---|---|---|---|---|---|---|---|---|")
    total = 0.0
    with counting(solver, lp) as counts:
        for d, r, mu_size, colored in GRID:
            runs = []
            for seed in SEEDS:
                config = gen.separable_configuration(seed, d, r, mu_size, colored)
                counts.update(dict.fromkeys(COUNTS, 0))
                start = time.thread_time()
                tvpm.plus_minus_partition(config)
                elapsed = time.thread_time() - start
                runs.append((elapsed, *(counts[c] for c in COUNTS)))
            times, *sums = zip(*runs)
            total += sum(times)
            n = len(config.points)
            print(
                f"| {d} | {r} | {mu_size} | {config.mode} | {n} | "
                f"{seconds(statistics.median(times))} | {seconds(max(times))} | "
                f"{' | '.join(str(sum(c)) for c in sums)} |",
                flush=True,
            )
    print(f"grid total: {seconds(total)} thread time")
    return 0


if __name__ == "__main__":
    sys.exit(main())
