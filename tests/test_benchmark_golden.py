"""Every benchmark workload's output must match what perfbench/golden.json records.

Each workload named in BENCHMARK.json or recorded in golden.json (needle_scores,
the one pin of ``kvlab needle`` at T=16384) is run in-process through ``kvlab.cli.main``
at the recorded seed and checked by ``perfbench/check.py``: the rules that hold
at every seed, plus the recorded digests of kept sets, fidelity values and sweep
rows.  A change that moves one kept position fails here with the named field.
"""

import json
from pathlib import Path

import pytest

from kvlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
RECORDED = list(json.loads((ROOT / "perfbench" / "golden.json").read_text())["workloads"])
WORKLOADS = list(dict.fromkeys(BENCHMARKED + RECORDED))


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_output_matches_golden(load_perfbench, tmp_path, capsys, name):
    workloads, check = load_perfbench("workloads"), load_perfbench("check")
    seed = json.loads(check.GOLDEN.read_text())["seed"]
    workload = workloads.WORKLOADS[name]
    cfg = workload.config(seed)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([workload.command, "--config", str(path), "--out", str(out)]) == 0
    golden = check.load_golden(name, seed)
    assert golden
    assert check.check_output(workload.command, cfg, out / workload.output, golden) == []
