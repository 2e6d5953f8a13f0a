"""Record the pinned outputs of the default seed into ``expected.json``.

Run from the repository root:

    python3 bench/record.py

Each workload is set up at full size with the default seed and its command
run once; the outputs must pass every seed-independent check before they
are pinned.  Outputs are never allowed to change for speed, so re-record
only when a workload's inputs change on purpose, and say so.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS, pin


def main() -> int:
    sys.path.insert(0, run.SRC)
    pinned = {}
    for name, workload in WORKLOADS.items():
        prog, ctx, _ = run.set_up(workload, DEFAULT_SEED, "full")
        run.describe_inputs(workload, ctx, DEFAULT_SEED, "full", expect=None)
        ctx.expected, ctx.seed_free = None, {}
        res = run.run_op(prog, workload, ctx, workload.argv(ctx, DEFAULT_SEED, "full"))
        problems = run.check_op(workload, ctx, res)
        if problems:
            print(f"{name}: {'; '.join(problems)}", file=sys.stderr)
            return 1
        pinned[name] = pin(workload, ctx, res)
        print(f"{name}: pinned {sorted(pinned[name])}")
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "size": "full", "workloads": pinned}, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
