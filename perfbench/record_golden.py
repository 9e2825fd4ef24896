"""Record golden.json: digests of each workload's outputs at DEFAULT_SEED.

    python3 perfbench/record_golden.py

Run it only when a change is meant to alter kvlab's outputs, and say so in
that change; the benchmark's output check compares against these digests.
"""

from __future__ import annotations

import json
import sys

from check import GOLDEN, field_digests
from run import Runner
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    recorded = {}
    for name, wl in WORKLOADS.items():
        runner = Runner(name, DEFAULT_SEED, golden=None)
        try:
            sample = runner.command(traced=False)
        finally:
            runner.close()
        if sample.errors:
            print(f"{name}: {sample.errors}", file=sys.stderr)
            return 1
        recorded[name] = field_digests(wl.command, runner.cfg, runner.out / wl.output)
        print(f"{name}: {len(recorded[name])} fields in {sample.run_s:.2f} s")
    GOLDEN.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": recorded}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
