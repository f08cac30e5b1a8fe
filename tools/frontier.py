"""Time the partition search on the fixed grid of ROADMAP's frontier table.

    python3 tools/frontier.py [DIR]

For every cell ``(d, r, |mu|)`` of ``GRID`` it solves
``plus_minus_partition`` on ``tests/gen.separable_configuration`` seeds
``SEEDS``, with the ``src/tvpm`` of the checkout DIR (default: the checkout
this script lives in) and the ``tests/gen.py`` of this one, so that two
checkouts are timed on the same inputs.  It prints one row per cell with the
columns of ROADMAP's table: the median and the largest solve time over the
seeds, and, summed over all the seeds, the partitions the search listed
(items its ``enumerate_partitions`` yielded), the programs it decided (its
``_decide`` calls), the simplex LPs among them (its ``lp_solve`` calls:
the programs that elimination could not decide), and the simplex pivots of
the whole solve (``tvpm.lp._pivot`` calls): those of the separation LP and
of the search's LPs.  In a checkout without ``_decide`` every program is an
LP, and the two columns agree.  The sums do not depend on which seed ran
slowest, so rows compare from run to run and between checkouts.  The
counts come from wrapping those names in ``tvpm.solver``, the module the
search looks them up in, and ``_pivot`` in ``tvpm.lp``, where the simplex
loop looks it up.  Times are thread CPU time and include the wrappers'
small cost.
The last line is the whole grid's thread time, every cell and seed.

It uses the standard library only, writes nothing, and takes no options.
On a 2-core machine (Python 3.11.7) that last line read 4.78 s and 3.98 s
in two runs with the bitset walk, its pairwise axes, the table of Farkas
certificates and the elimination, against 5.71 s and 4.12 s without the
elimination in the same session; the tuple walk before them, which cut on
the coordinates alone, took about 20 s.  With the two cuts that the walk's one
box cut replaced, (1,10,4) alone does not finish in ten minutes.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (d, r, |mu|): ROADMAP's frontier table.  The d = 1 cells decide one search
# program each, so they time the partition walk; the two-block cells list no
# partition and pose no search program, their Radon dependence naming the
# hit.
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
# The counted columns, in table order.
COUNTS = ("partitions", "programs", "lps", "pivots")


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


def counting(solver, lp, counts: dict[str, int]) -> None:
    """Wrap the search's names in ``solver``, and the pivot in ``lp``, so
    that they count.  Without ``_decide`` every program goes to
    ``lp_solve`` and counts as both."""
    enumerate_partitions = solver.enumerate_partitions
    lp_solve = solver.lp_solve
    decide = getattr(solver, "_decide", None)

    def listed(*args, **kwargs):
        for blocks in enumerate_partitions(*args, **kwargs):
            counts["partitions"] += 1
            yield blocks

    def decided(lp):
        counts["programs"] += 1
        return decide(lp)

    def solved(lp):
        counts["lps"] += 1
        if decide is None:
            counts["programs"] += 1
        return lp_solve(lp)

    pivot = lp._pivot

    def pivoted(*args):
        counts["pivots"] += 1
        return pivot(*args)

    solver.enumerate_partitions = listed
    lp._pivot = pivoted
    solver.lp_solve = solved
    if decide is not None:
        solver._decide = decided


def seconds(value: float) -> str:
    return f"{value * 1000:.3g} ms" if value < 1 else f"{value:.3g} s"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print("usage: python3 tools/frontier.py [DIR]", file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve() if argv else ROOT
    tvpm, solver, lp, gen = load(checkout)
    counts = dict.fromkeys(COUNTS, 0)
    counting(solver, lp, counts)
    print(f"frontier of {checkout}, seeds {SEEDS.start}-{SEEDS.stop - 1}")
    print(
        "| d | r | \\|mu\\| | n | median | max "
        "| partitions (sum) | programs (sum) | LPs (sum) | pivots (sum) |"
    )
    print("|---|---|---|---|---|---|---|---|---|---|")
    total = 0.0
    for d, r, mu_size in GRID:
        runs = []
        for seed in SEEDS:
            config = gen.separable_configuration(seed, d, r, mu_size)
            counts.update(dict.fromkeys(COUNTS, 0))
            start = time.thread_time()
            tvpm.plus_minus_partition(config)
            runs.append((time.thread_time() - start, *(counts[c] for c in COUNTS)))
        times, *sums = zip(*runs)
        total += sum(times)
        n = len(config.points)
        print(
            f"| {d} | {r} | {mu_size} | {n} | {seconds(statistics.median(times))} | "
            f"{seconds(max(times))} | {' | '.join(str(sum(c)) for c in sums)} |",
            flush=True,
        )
    print(f"grid total: {seconds(total)} thread time")
    return 0


if __name__ == "__main__":
    sys.exit(main())
