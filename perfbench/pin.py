"""Recompute ``pins.json``: output digests of the first samples at the default seed.

Run from the root of a checkout, only when a change is meant to alter the
program's output::

    PYTHONPATH=src python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent

# Covers every sample of a timed run at the default seed, with room for a
# faster program; later samples are checked by invariants only.
PINNED = {"simopt-20y": 10, "ppo-train": 40, "greedy-eval": 10, "sac-train": 10}


def main() -> int:
    pins = {}
    for name, n in PINNED.items():
        wl = WORKLOADS[name](HERE.parent, HERE.parent / ".perfbench_out")
        pins[name] = []
        for i in range(n):
            output = wl.run(i, DEFAULT_SEED)
            problems = wl.invariants(output)
            if problems:
                print(f"{name} sample {i}: {problems}", file=sys.stderr)
                return 1
            pins[name].append(wl.digest(output))
        print(f"{name}: pinned {n} samples", file=sys.stderr)
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
