"""Tests of the benchmark itself (not collected by the repository's test run).

    python3 -m pytest perfbench/selftest.py -q

They run the workloads at reduced sizes, so the whole file takes well under a
minute.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from check import check_output, field_digests, load_golden
from run import DERIVED_METRICS, END_TO_END, LAYER_METRICS, ROOT, spawn
from tracer import BOUNDARIES, Boundary, Span, Tracer, layer_table
from workloads import DEFAULT_SEED, WORKLOADS


def _small(name: str, seed: int) -> dict:
    """The workload's config at a size that runs in about a second."""
    cfg = WORKLOADS[name].config(seed)
    prompt = cfg["prompt"]
    if prompt["kind"] == "needle":
        prompt["seq_len"] = 4096
    elif name == "sweep_grid":
        prompt["length"] = 64
    else:
        prompt["length"] = 400  # the smallest size where PyramidStyle skew 0.5 stays legal
    return cfg


def _run(tmp_path: Path, name: str, cfg: dict, trace: bool) -> tuple[dict, Path]:
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    facts, out = tmp_path / "facts.json", tmp_path / "out"
    with open(tmp_path / "child.log", "w") as log:
        code, _, _ = spawn(
            ["--root", str(ROOT), "--facts", str(facts), "--trace", str(int(trace)),
             "--command", WORKLOADS[name].command, "--config", str(cfg_path), "--out", str(out)],
            log, 120.0,
        )
    assert code == 0, (tmp_path / "child.log").read_text()
    return json.loads(facts.read_text()), out / WORKLOADS[name].output


def _counts(trace: dict) -> dict:
    return {
        metric: trace["layers"][layer].get(key, 0)
        for metric, layer, key, unit in LAYER_METRICS
        if unit == "count"
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(tmp_path, name):
    cfg = _small(name, seed=3)
    first, _ = _run(tmp_path, name, cfg, trace=True)
    second, out = _run(tmp_path, name, cfg, trace=True)
    assert _counts(first["trace"]) == _counts(second["trace"])
    assert first["trace"]["missing"] == []
    assert check_output(WORKLOADS[name].command, cfg, out, None) == []
    if name == "needle_scores":
        assert first["trace"]["layers"]["numerics.mm_t"]["calls"] == 0
    if name == "sweep_grid":
        axes = cfg["sweep"].values()
        assert _counts(first["trace"])["experiments.cells"] == math.prod(len(a) for a in axes)
        assert first["trace"]["speedup_measured"] > 0


def test_changed_kept_set_fails_the_output_check(tmp_path):
    cfg = _small("policy_mix", seed=DEFAULT_SEED)
    _, out = _run(tmp_path, "policy_mix", cfg, trace=False)
    golden = field_digests("simulate", cfg, out)
    assert check_output("simulate", cfg, out, golden) == []

    report = json.loads(out.read_text())
    report["policies"][1]["layers"][2]["heads"][0]["digest"] = "0" * 12
    out.write_text(json.dumps(report))
    errors = check_output("simulate", cfg, out, golden)
    assert errors == ["1:ChunkKV.kept differs from the recorded output"]

    # At a seed without recorded digests the budget rule still catches a
    # kept set that grew past its budget.
    report["policies"][1]["layers"][2]["heads"][0]["retained"] = 400
    out.write_text(json.dumps(report))
    assert any("> budget" in e for e in check_output("simulate", cfg, out, None))


def test_golden_covers_every_workload():
    for name in WORKLOADS:
        assert load_golden(name, DEFAULT_SEED)
        assert load_golden(name, DEFAULT_SEED + 1) is None


def test_missing_boundary_is_reported_not_raised():
    sys.path.insert(0, str(ROOT / "src"))
    import kvlab.experiments

    original = kvlab.experiments.run_policy
    tracer = Tracer((
        Boundary("kvlab.experiments", "no_such_function", "policies.compress"),
        Boundary("kvlab.no_such_module", "f", "policies.select"),
        Boundary("kvlab.experiments", "run_policy", "policies.observe"),
    ))
    tracer.install()
    try:
        assert kvlab.experiments.run_policy is not original
        assert tracer.missing == ["kvlab.experiments.no_such_function", "kvlab.no_such_module.f"]
        assert tracer.unmeasured_layers() == ["policies.compress", "policies.select"]
    finally:
        tracer.uninstall()
    assert kvlab.experiments.run_policy is original


def test_self_time_and_attribution_by_parent():
    index = {b.attr: i for i, b in enumerate(BOUNDARIES) if b.module == "kvlab.experiments"}
    observe = next(i for i, b in enumerate(BOUNDARIES) if b.layer == "policies.observe")
    tracer = Tracer()
    tracer.spans = [
        Span(index["compress_from_scores"], 0.0, 10.0, -1, None),  # Hybrid outer call
        Span(index["compress_from_scores"], 1.0, 9.0, 0, None),    # its recursion
        Span(index["topk_from_scores"], 2.0, 5.0, 1, None),
        Span(index["_final_row_attention"], 11.0, 14.0, -1, None),
        Span(observe, 12.0, 13.0, 3, {"rows": 1, "repeat": 0}),
    ]
    table = layer_table(tracer)
    assert table["policies.compress"]["self_s"] == 7.0
    assert table["policies.compress"]["calls"] == 1
    assert table["policies.select"]["self_s"] == 3.0
    assert table["metrics.fidelity"]["self_s"] == 3.0
    assert table["metrics.fidelity"]["calls"] == 1
    assert table["policies.observe"]["calls"] == 0
    assert sum(row["self_s"] for row in table.values()) == 13.0


def test_benchmark_json_matches_the_metrics_printed():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    # needle_scores runs only when named: its speed swings too far on a shared
    # host for it to gate a change (NOTES.md, "Noise on this host").
    assert [w["name"] for w in doc["workloads"]] == [n for n in WORKLOADS if n != "needle_scores"]
    assert [m["name"] for m in doc["end_to_end"]] == [n for n, _ in END_TO_END]
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (n, u) for n, *_, u in LAYER_METRICS
    ] + list(DERIVED_METRICS)
