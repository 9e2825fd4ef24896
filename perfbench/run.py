"""kvlab benchmark: run one workload through the kvlab CLI and print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a kvlab checkout; the program is imported from the
checkout's ``src``.  Each command runs in a fresh child process (child.py)
with BLAS and OpenMP pinned to one thread.  Commands repeat until S seconds
have passed; every output is checked (check.py) and a command that exits
non-zero or fails its check counts as failed.

--trace 0 reports the end-to-end metrics: set-up time, wall and CPU time of
one command, peak resident memory and the share of commands that succeeded.
Wall and CPU time are means over the run's commands: a shared host can
switch between a fast and a slow speed within seconds, and a mean moves
smoothly with the share of time spent slow where a median jumps between the
two.
--trace 1 alternates untraced and traced commands and reports the per-layer
metrics from the traced ones (tracer.py) plus the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Scratch files go to
``.perfbench_work/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import check_output, load_golden
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"

# Set-up is measured in every command, topped up with set-up-only processes
# until there are this many samples, and reported as their median.
MIN_SETUP_SAMPLES = 15
# A run must end within 180 s; no command may outlive this.
RUN_LIMIT_S = 150.0

CHILD_ENV = {
    **os.environ,
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_ok_frac", "fraction"),
)

# (metric, layer named in tracer.BOUNDARIES, key in the layer table, unit)
LAYER_METRICS = (
    ("numerics.mm_t.self_s", "numerics.mm_t", "self_s", "s"),
    ("numerics.mm_t.calls", "numerics.mm_t", "calls", "count"),
    ("numerics.mm_t.madds", "numerics.mm_t", "madds", "count"),
    ("numerics.softmax.self_s", "numerics.softmax", "self_s", "s"),
    ("numerics.softmax.calls", "numerics.softmax", "calls", "count"),
    ("numerics.softmax.elems", "numerics.softmax", "elems", "count"),
    ("model.prefill.self_s", "model.prefill", "self_s", "s"),
    ("model.prefill.total_s", "model.prefill", "total_s", "s"),
    ("model.prefill.calls", "model.prefill", "calls", "count"),
    ("model.init.self_s", "model.init", "self_s", "s"),
    ("cache.kept.self_s", "cache.kept", "self_s", "s"),
    ("cache.kept.calls", "cache.kept", "calls", "count"),
    ("cache.kept.positions", "cache.kept", "positions", "count"),
    ("policies.compress.self_s", "policies.compress", "self_s", "s"),
    ("policies.compress.total_s", "policies.compress", "total_s", "s"),
    ("policies.compress.calls", "policies.compress", "calls", "count"),
    ("policies.observe.self_s", "policies.observe", "self_s", "s"),
    ("policies.observe.calls", "policies.observe", "calls", "count"),
    ("policies.observe.rows", "policies.observe", "rows", "count"),
    ("policies.select.self_s", "policies.select", "self_s", "s"),
    ("policies.select.calls", "policies.select", "calls", "count"),
    ("reuse.run.self_s", "reuse.run", "self_s", "s"),
    ("reuse.anchor_layers", "reuse.run", "anchor_layers", "count"),
    ("reuse.copied_layers", "reuse.run", "copied_layers", "count"),
    ("reuse.similarity.self_s", "reuse.similarity", "self_s", "s"),
    ("metrics.fidelity.self_s", "metrics.fidelity", "self_s", "s"),
    ("metrics.fidelity.total_s", "metrics.fidelity", "total_s", "s"),
    ("metrics.fidelity.calls", "metrics.fidelity", "calls", "count"),
    ("metrics.needle.self_s", "metrics.needle", "self_s", "s"),
    ("metrics.needle.calls", "metrics.needle", "calls", "count"),
    ("experiments.self_s", "experiments", "self_s", "s"),
    ("experiments.write_s", "experiments.write", "self_s", "s"),
    ("experiments.cells", "experiments", "cells", "count"),
)

# Per-layer metrics derived from the whole traced run rather than one layer.
DERIVED_METRICS = (
    ("policies.observe.repeat_frac", "fraction"),
    ("reuse.speedup_analytic", "x"),
    ("reuse.speedup_measured", "x"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "fraction"),
    ("trace.unmeasured", "count"),
)


@dataclass
class Sample:
    traced: bool
    setup_s: float
    errors: list[str] = field(default_factory=list)
    run_s: float = 0.0
    cpu_s: float = 0.0
    wall_s: float = 0.0  # the whole child process, start to exit
    rss_mib: float = 0.0
    trace: dict | None = None


def machine_facts(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def spawn(args: list[str], log, timeout: float) -> tuple[int, float, float]:
    """Run child.py to completion: (exit code, start time, peak RSS in MiB)."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), *args],
        cwd=ROOT, env=CHILD_ENV, stdout=subprocess.DEVNULL, stderr=log,
    )
    watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, usage.ru_maxrss / 1024.0


class Runner:
    def __init__(self, workload: str, seed: int, golden: dict | None):
        self.wl = WORKLOADS[workload]
        self.cfg = self.wl.config(seed)
        self.golden = golden
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(self.cfg, indent=2))
        self.out = self.dir / "out"
        self.facts = self.dir / "facts.json"
        self.log = open(self.dir / "child.log", "w")
        self.started = time.monotonic()
        self.versions: dict = {}

    def close(self):
        self.log.close()

    def _child(self, traced: bool, setup_only: bool) -> tuple[int, float, float, dict | None]:
        shutil.rmtree(self.out, ignore_errors=True)
        self.facts.unlink(missing_ok=True)
        args = [
            "--root", str(ROOT), "--facts", str(self.facts), "--trace", str(int(traced)),
            "--command", self.wl.command, "--config", str(self.config_path), "--out", str(self.out),
        ]
        if setup_only:
            args.append("--setup-only")
        self.log.flush()
        timeout = RUN_LIMIT_S - (time.monotonic() - self.started)
        code, start, rss = spawn(args, self.log, timeout)
        facts = json.loads(self.facts.read_text()) if self.facts.exists() else None
        if facts:
            self.versions = {"python": facts["python"], "numpy": facts["numpy"]}
        return code, start, rss, facts

    def command(self, traced: bool) -> Sample:
        code, start, rss, facts = self._child(traced, setup_only=False)
        wall_s = time.monotonic() - start
        if code != 0 or facts is None:
            return Sample(traced, float("nan"), [f"exit code {code}; see {self.log.name}"], wall_s=wall_s)
        errors = check_output(self.wl.command, self.cfg, self.out / self.wl.output, self.golden)
        return Sample(
            traced, facts["setup_done"] - start, errors,
            facts["run_s"], facts["cpu_s"], wall_s, rss, facts.get("trace"),
        )

    def setup_only(self) -> float | None:
        code, start, _, facts = self._child(False, setup_only=True)
        return facts["setup_done"] - start if code == 0 and facts else None


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def end_to_end(samples: list[Sample], setups: list[float]) -> dict:
    ok = [s for s in samples if not s.errors]
    return {
        "setup_s": _median(setups),
        "run_s": _mean(s.run_s for s in ok),
        "cpu_s": _mean(s.cpu_s for s in ok),
        "peak_rss_mib": _median(s.rss_mib for s in ok),
        "ops_ok_frac": len(ok) / len(samples),
    }


def per_layer(samples: list[Sample]) -> dict:
    traced = [s for s in samples if s.traced and s.trace]
    plain = [s.run_s for s in samples if not s.traced and not s.errors]
    values: dict[str, float] = {}
    for name, layer, key, _ in LAYER_METRICS:
        values[name] = _median(s.trace["layers"][layer].get(key, 0) for s in traced)

    def derived(s: Sample) -> dict:
        t = s.trace
        observe = t["layers"]["policies.observe"]
        return {
            "policies.observe.repeat_frac": observe.get("repeat", 0) / max(observe["spans"], 1),
            "reuse.speedup_analytic": t["speedup_analytic"],
            "reuse.speedup_measured": t["speedup_measured"],
            "trace.run_s": t["run_s"],
            "trace.coverage": sum(row["self_s"] for row in t["layers"].values()) / t["run_s"],
            "trace.unmeasured": len(t["missing"]),
        }

    rows = [derived(s) for s in traced]
    for name, _ in DERIVED_METRICS:
        if name != "trace.overhead_s":
            values[name] = _median(r[name] for r in rows)
    values["trace.overhead_s"] = values["trace.run_s"] - _median(plain) if plain else 0.0
    return values


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "kvlab" / "cli.py").is_file():
        print(f"error: no kvlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, load_golden(args.workload, args.seed))
    try:
        # Warm-up: the first interpreter compiles kvlab's bytecode and reads
        # the files into the page cache; its set-up time is not a sample.
        runner.setup_only()
        deadline = time.monotonic() + args.seconds
        samples: list[Sample] = []
        # No command starts that would, at the mean length so far, end past
        # the deadline, so a run lasts about --seconds whatever a command takes.
        while len(samples) < 1 + args.trace or (
            time.monotonic() + _mean(s.wall_s for s in samples) < deadline
        ):
            samples.append(runner.command(traced=bool(args.trace) and len(samples) % 2 == 1))
        setups = [s.setup_s for s in samples if not s.errors]
        while len(setups) < MIN_SETUP_SAMPLES:
            setup = runner.setup_only()
            if setup is None:
                break
            setups.append(setup)
    finally:
        runner.close()

    failed = [s for s in samples if s.errors]
    for s in failed:
        print(f"failed: {'; '.join(s.errors[:5])}", file=sys.stderr)
    if len(failed) == len(samples) and not runner.versions:
        print("error: no command ran; the kvlab program could not be started", file=sys.stderr)
        return 2

    if args.trace:
        values = per_layer(samples)
        units = {name: unit for name, *_, unit in LAYER_METRICS} | dict(DERIVED_METRICS)
    else:
        values = end_to_end(samples, setups)
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    facts = machine_facts(args.seed) | runner.versions | {
        "workload": args.workload,
        "commands": len(samples),
        "setup_samples": len(setups),
    }
    traced = [s.trace for s in samples if s.traced and s.trace]
    if traced:
        t = traced[0]
        facts["unmeasured_layers"] = t["unmeasured"]
        facts["missing_boundaries"] = t["missing"]
        facts["reuse"] = t["reuse"]
    print("facts " + json.dumps(facts, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6f} {m['unit']}")
    if traced:
        run_s = values["trace.run_s"] or 1.0
        shares = {layer: values[f"{layer}.self_s"] / run_s for layer in
                  ("numerics.mm_t", "numerics.softmax", "model.prefill", "policies.compress",
                   "policies.observe", "policies.select", "metrics.fidelity", "metrics.needle")}
        print("shares " + json.dumps({k: round(v, 4) for k, v in shares.items()}))

    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }
    commands = [{"traced": s.traced, "run_s": s.run_s, "setup_s": s.setup_s, "errors": s.errors} for s in samples]
    (WORK / args.workload / "result.json").write_text(
        json.dumps({"facts": facts, **result, "commands": commands}, indent=2)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
