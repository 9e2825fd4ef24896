"""Run one kvlab CLI command in a fresh interpreter and write its measurements.

Usage (started by run.py, one process per command):

    python3 perfbench/child.py --root DIR --facts FILE --trace 0|1 \
        --command simulate --config CFG --out OUT [--setup-only]

Set-up ends once ``kvlab`` is imported from ``DIR/src`` and the config is
loaded; the parent measures set-up from just before it started this process.
The command itself runs through ``kvlab.cli.main``.  With ``--trace 1`` the
tracer wraps kvlab's cross-module names first, and the facts file gets the
per-layer table; the raw spans go to ``FILE.spans.json``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _trace_summary(tracer, run_s: float) -> dict:
    from tracer import layer_table, reuse_costs

    table = layer_table(tracer)
    costs = reuse_costs(tracer)
    summary = {
        "run_s": run_s,
        "layers": table,
        "missing": tracer.missing,
        "unmeasured": tracer.unmeasured_layers(),
        "reuse": costs,
        "speedup_analytic": 0.0,
        "speedup_measured": 0.0,
    }
    loops = {int(k): v for k, v in costs["loop_s_by_n_reuse"].items()}
    per_layer = list(costs["compress_s_by_layer"].values())
    copied = table["reuse.run"].get("copied_layers", 0)
    if loops and per_layer:
        try:
            from kvlab.reuse import speedup_estimate
        except ImportError:
            summary["unmeasured"].append("reuse.speedup_estimate")
        else:
            t_select = table["reuse.run"]["self_s"] / copied if copied else 0.0
            summary["speedup_analytic"] = speedup_estimate(
                costs["n_layers"], max(loops), sum(per_layer) / len(per_layer), t_select
            )
    if 1 in loops and max(loops) > 1:
        summary["speedup_measured"] = loops[1] / loops[max(loops)]
    return summary


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--facts", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--command", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    src = Path(args.root, "src")
    sys.path.insert(0, str(src))
    import kvlab.cli
    from kvlab.experiments import load_config

    load_config(args.config)
    setup_done = time.monotonic()
    cpu0 = _cpu_s()
    if not Path(kvlab.__file__).resolve().is_relative_to(src.resolve()):
        print(f"kvlab imported from {kvlab.__file__}, not from {src}", file=sys.stderr)
        return 3

    import numpy

    facts = {
        "setup_done": setup_done,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "exit_code": 0,
    }
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        code = kvlab.cli.main([args.command, "--config", args.config, "--out", args.out])
        run_s = time.perf_counter() - t0
        facts.update(run_s=run_s, cpu_s=_cpu_s() - cpu0, exit_code=code)
        if tracer is not None:
            tracer.uninstall()
            facts["trace"] = _trace_summary(tracer, run_s)
            Path(args.facts + ".spans.json").write_text(json.dumps(tracer.dump()))
    Path(args.facts).write_text(json.dumps(facts))
    return facts["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
