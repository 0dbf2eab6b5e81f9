"""Regenerate bench/pinned.json, the per-op output digests the benchmark checks.

    python3 bench/pin.py

Digests are pinned for seeds 7 and 11 only; other seeds rely on the exact
checks alone.  Run it only on a tree whose outputs are known good: a failed
check aborts before anything is written.
"""
from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS, Hooks

PINNED_SEEDS = (7, 11)


def main() -> int:
    if not run.use_source():
        print(f"error: package source not found at {run.SRC}", file=sys.stderr)
        return 2
    pinned: dict = {}
    for seed in PINNED_SEEDS:
        for name, workload in WORKLOADS.items():
            dh, prepared, _, _ = run.set_up(workload, workload.inputs(seed))
            result = workload.execute(dh, prepared, Hooks())
            if result.failed:
                print(f"error: {name} seed {seed}: {result.failed} failed checks; nothing pinned",
                      file=sys.stderr)
                return 1
            pinned.setdefault(str(seed), {})[name] = result.digests
            print(f"{name} seed {seed}: {len(result.digests)} digests", file=sys.stderr)
    with open(run.HERE / "pinned.json", "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
