"""Recompute what pinned.json records, and compare or rewrite it.

    python3 perfbench/pin.py           # exit 1 and show the differences
    python3 perfbench/pin.py --write   # record the current values

For each workload and the reference seed: the SHA-256 of the instance set,
and the exact counts of the traced window (the first calls of the plan).
Rewrite it only in a change that deliberately alters a workload.
"""

from __future__ import annotations

import json
import sys

import run
import tracing
import workloads

REFERENCE_SEED = 0


def entry(name: str) -> dict:
    workdir, texts = workloads.prepare(name, REFERENCE_SEED, run.ROOT)
    try:
        workload = workloads.Workload(name, workdir)
        window = run.window_calls(workload)
        result = run.closed_loop(workload, 0, tracing.Tracer(), min_samples=window)
    finally:
        workloads.discard(workdir)
    if result["failures"]:
        raise RuntimeError(f"{name}: {result['failures'][0]}")
    return {
        "inputs_sha256": workloads.inputs_sha256(texts),
        "counts": {k: result["window"][k] for k in tracing.COUNTS},
    }


def main(argv: list[str]) -> int:
    if not run.use_program():
        return run.EXIT_NO_PROGRAM
    current = {
        "reference_seed": REFERENCE_SEED,
        "workloads": {name: entry(name) for name in workloads.WORKLOADS},
    }
    if "--write" in argv:
        run.PINNED.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        return 0
    recorded = json.loads(run.PINNED.read_text())
    if recorded == current:
        print("pinned.json is current")
        return 0
    for name in workloads.WORKLOADS:
        old, new = recorded["workloads"].get(name, {}), current["workloads"][name]
        if old.get("inputs_sha256") != new["inputs_sha256"]:
            print(f"{name}: inputs_sha256 {old.get('inputs_sha256')} -> {new['inputs_sha256']}")
        for key, value in new["counts"].items():
            if old.get("counts", {}).get(key) != value:
                print(f"{name}: {key} {old.get('counts', {}).get(key)} -> {value}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
