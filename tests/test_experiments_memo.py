"""A score source's memo and the layer pass: each kept set is selected and measured once per trace.

Each layer is ranked once per scoring rule and selection runs once per
(layer, spec) anchor, across every cell of a sweep on one trace: the trace's
memo holds its rankings and kept sets (and a sweep's needles), no measures.
The memo is a field of its source and never outlives it: `needle`'s policies
share the needle source's, and reuse-bench, which times fresh selection,
runs each reuse loop on a copy of the trace with an empty memo.  A command
measures every run on a trace in one pass over the layers, which builds each
layer's |K| and |V| stack once, with one stack alive at a time, and takes the
KV L1 once per (layer, kept set) and the attention cosine once per (layer,
head, kept set).
"""

import collections
import csv
import json
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

import kvlab.experiments
import kvlab.policies
import kvlab.reuse
from kvlab.cache import BudgetSpec
from kvlab.cli import main
from kvlab.experiments import _cell_spec, _mean, _source, _sweep_cells, parse_config
from kvlab.model import ModelConfig, PrefillTrace, init_model, prefill
from kvlab.policies import PolicySpec, ScoreMatrices, _scoring_rule
from kvlab.reuse import ReusePlan, run_with_reuse

from test_cli import NEEDLE_PROMPT, base_config, write_config


def _count(monkeypatch, module, name) -> list:
    """The arguments after the first of every call to module.name from now on."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(a[1:]) or real(*a, **kw))
    return calls


def _run(tmp_path, command: str, cfg: dict, name: str = "out"):
    """The tmp_path / name directory that `kvlab command` on cfg writes."""
    out = tmp_path / name
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    return out


def _distinct_work(cfg) -> tuple[set, set, set]:
    """(layer, spec) anchors, (layer, kept set) and (layer, head, kept set) of a
    one-seed sweep, from fresh reuse loops on its trace."""
    trace = _source(cfg)
    anchors, sets, head_sets = set(), set(), set()
    for c, r, n, _ in _sweep_cells(cfg):
        plan = ReusePlan(cfg.model.n_layers, n)
        for spec in cfg.policies:
            spec = _cell_spec(spec, c, r)
            anchors |= {(l, spec) for l in range(0, plan.n_layers, n)}
            for l, heads in enumerate(run_with_reuse(trace, spec, plan)):
                sets |= {(l, k) for k in heads}
                head_sets |= {(l, h, k) for h, k in enumerate(heads)}
    return anchors, sets, head_sets


def test_sweep_grid_selects_and_measures_each_kept_set_once(load_perfbench, tmp_path, monkeypatch):
    workloads = load_perfbench("workloads")
    doc = workloads.WORKLOADS["sweep_grid"].config(0)
    cfg = parse_config(doc)
    anchors, sets, head_sets = _distinct_work(cfg)
    # 3 policies x 6 (c, ratio) cells x (8 + 2) anchor layers is 180 unshared calls,
    # and 36 cell policies x 8 layers x 4 heads is 1152 fidelity triples
    assert (len(anchors), len(sets), len(head_sets)) == (144, 591, 613)

    compress = _count(monkeypatch, kvlab.reuse, "compress_layer")
    l1 = _count(monkeypatch, kvlab.experiments, "kv_l1_loss")
    cos = _count(monkeypatch, kvlab.experiments, "attention_cosine")
    _run(tmp_path, "sweep", doc)
    assert sorted(compress, key=repr) == sorted(anchors, key=repr)  # each one once
    assert len(l1) == len(sets)
    assert {k for (k,) in l1} == {k for _, k in sets}
    assert len(cos) == len(head_sets)
    assert {k for (k,) in cos} == {k for _, _, k in head_sets}


@pytest.mark.parametrize("workload", ["sweep_grid", "policy_mix", "prefill_long"])
def test_each_layer_is_stacked_once_per_trace_one_stack_at_a_time(
    load_perfbench, tmp_path, monkeypatch, workload
):
    # one kv_magnitudes stack per layer, in layer order, each built after the
    # last one died; the memo keeps rankings, kept sets and needles, no measures
    wl = load_perfbench("workloads").WORKLOADS[workload]
    traces, stacked, stacks, alive = [], [], [], []
    real_source, real_stack = kvlab.experiments._source, kvlab.experiments.kv_magnitudes

    def stack(keys, values):
        alive.append(sum(ref() is not None for ref in stacks))
        stacked.append(keys)
        mags = real_stack(keys, values)
        stacks.append(weakref.ref(mags))
        return mags

    monkeypatch.setattr(
        kvlab.experiments, "_source", lambda cfg: traces.append(real_source(cfg)) or traces[-1]
    )
    monkeypatch.setattr(kvlab.experiments, "kv_magnitudes", stack)
    _run(tmp_path, wl.command, wl.config(0))
    (trace,) = traces
    assert len(stacked) == trace.n_layers == 8
    assert all(keys is layer for keys, layer in zip(stacked, trace.k))
    assert alive == [0] * 8
    needles = {"needle"} if wl.command == "sweep" else set()
    assert {key[0] for key in trace.memo} == {"ranking", "kept"} | needles


def test_sweep_grid_ranks_each_layer_once_per_scoring_rule(load_perfbench, tmp_path, monkeypatch):
    # every (c, ratio) cell cuts the trace's one ranking per (layer, scoring rule):
    # ChunkKV's 3 c x 8 layers, and SnapKVStyle's and H2OStyle's 8 layers, which
    # depend on neither c nor ratio; each c's needle source is ranked once per rule
    doc = load_perfbench("workloads").WORKLOADS["sweep_grid"].config(0)
    ranked = []
    real = kvlab.policies._rankings
    monkeypatch.setattr(
        kvlab.policies,
        "_rankings",
        lambda source, layer, spec: ranked.append((source, layer, _scoring_rule(spec)))
        or real(source, layer, spec),
    )
    compress = _count(monkeypatch, kvlab.reuse, "compress_layer")
    _run(tmp_path, "sweep", doc)
    on_trace = [(l, rule) for source, l, rule in ranked if isinstance(source, PrefillTrace)]
    assert len(on_trace) == len(set(on_trace)) == 40
    kinds = collections.Counter(rule[0] for _, rule in on_trace)
    assert kinds == {"ChunkKV": 24, "SnapKVStyle": 8, "H2OStyle": 8}
    on_needles = [(id(s), l, rule) for s, l, rule in ranked if not isinstance(s, PrefillTrace)]
    assert len(on_needles) == len(set(on_needles)) == 3 * 3  # per c, one per policy
    assert len(compress) == 144  # the anchors of the test above, each still once


def test_needle_ranks_each_layer_once_per_command(tmp_path, monkeypatch):
    # the policies read one needle source: the second of two identical ones
    # reads the first one's anchors back and reports the same bytes
    ranked = _count(monkeypatch, kvlab.policies, "_rankings")
    cfg = base_config(prompt=NEEDLE_PROMPT, reuse={"n_reuse": 2})
    cfg["policies"] = [cfg["policies"][0]] * 2  # one rule, two reuse loops
    out = _run(tmp_path, "needle", cfg)
    assert [layer for layer, _ in ranked] == [0, 2]
    first, second = json.loads((out / "needle.json").read_text())["policies"]
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def _used_sources() -> list:
    """(source, its array fields) pairs of a trace and a ScoreMatrices, each memo filled."""
    model = init_model(ModelConfig(n_layers=2, n_heads=2, head_dim=4, vocab_size=32, seed=3))
    trace = prefill(model, list(range(20)), observe_rows=4)
    scores = ScoreMatrices(tuple(np.full((4, 20), 0.05, dtype=np.float32) for _ in range(2)))
    spec = PolicySpec("ChunkKV", BudgetSpec(max_len=10, w=2, c=4))
    for source in (trace, scores):
        run_with_reuse(source, spec, ReusePlan(2, 1))
        assert source.memo
    return [(trace, ("k", "v", "observe_probs", "col_mass")), (scores, ("mats",))]


@pytest.mark.parametrize("source, arrays", _used_sources(), ids=["trace", "scores"])
def test_a_source_memo_is_no_constructor_argument(source, arrays):
    given = {f.name: getattr(source, f.name) for f in fields(source) if f.init}
    with pytest.raises(TypeError, match="memo"):
        type(source)(**given, memo={})
    assert type(source)(**given).memo == {}


@pytest.mark.parametrize("source, arrays", _used_sources(), ids=["trace", "scores"])
def test_a_replaced_source_shares_its_arrays_with_an_empty_memo(source, arrays):
    copy = replace(source)
    assert copy.memo == {} and source.memo
    assert all(getattr(copy, name) is getattr(source, name) for name in arrays)
    assert copy == source  # the memo plays no part in equality


def test_layer_mean_is_np_mean_bit_for_bit():
    rng = np.random.Generator(np.random.Philox(key=5))
    for _ in range(20_000):
        n = int(rng.integers(1, 70))
        xs = (rng.uniform(0.0, 1.0, size=n) ** int(rng.integers(1, 6))).tolist()
        assert _mean(xs) == float(np.mean(xs))


def _sweep_rows(tmp_path, cfg, name) -> list[dict]:
    with (_run(tmp_path, "sweep", cfg, name) / "sweep.csv").open() as f:
        return list(csv.DictReader(f))


def test_two_seed_sweep_rows_are_each_seeds_own(tmp_path):
    # the second seed's trace gets a fresh memo: no kept set or measure leaks across
    sweep = {"c": [3, 5], "ratio": [0.25], "n_reuse": [1, 2]}
    both = _sweep_rows(tmp_path, base_config(sweep={**sweep, "seeds": [0, 1]}), "both")
    for seed in (0, 1):
        alone = _sweep_rows(tmp_path, base_config(sweep={**sweep, "seeds": [seed]}), f"seed{seed}")
        assert [r for r in both if r["seed"] == str(seed)] == alone
    assert [r for r in both if r["seed"] == "0"] != [r for r in both if r["seed"] == "1"]


def test_a_policy_listed_twice_reports_twice(tmp_path):
    cfg = base_config(reuse={"n_reuse": 2})
    cfg["policies"] = [cfg["policies"][0]] * 2
    out = _run(tmp_path, "simulate", cfg)
    first, second = json.loads((out / "report.json").read_text())["policies"]
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    timings = json.loads((out / "timings.json").read_text())
    assert [p["policy"] for p in timings["policies"]] == ["ChunkKV", "ChunkKV"]


def test_a_zero_kv_l1_is_read_back_not_recomputed(tmp_path, monkeypatch):
    # FullKV evicts nothing: its KV L1 is 0.0, held in the layer pass like any
    # other, so two FullKV policies measure each layer's one kept set once
    l1 = _count(monkeypatch, kvlab.experiments, "kv_l1_loss")
    cfg = base_config(policies=[{"kind": "FullKV", "budget": {"ratio": 0.25, "w": 4, "c": 5}}] * 2)
    report = json.loads((_run(tmp_path, "simulate", cfg) / "report.json").read_text())
    assert [p["fidelity"]["kv_l1"] for p in report["policies"]] == [0.0, 0.0]
    assert len(l1) == 4  # base_config's 4 layers


def test_reuse_bench_selects_fresh_in_every_repeat(tmp_path, monkeypatch):
    # 5 timing repeats of each distinct plan, n_reuse 1 first, every anchor layer
    # compressed in each: measured_speedup times fresh selection
    compress = _count(monkeypatch, kvlab.reuse, "compress_layer")
    ranked = _count(monkeypatch, kvlab.policies, "_rankings")
    cfg = base_config(sweep={"n_reuse": [2, 4, 2]})  # base_config's 4 layers
    _run(tmp_path, "reuse-bench", cfg)
    anchors = {1: [0, 1, 2, 3], 2: [0, 2], 4: [0]}
    assert [layer for layer, _ in compress] == [l for n in (1, 2, 4) for l in anchors[n] * 5]
    assert ranked == compress  # and every anchor ranked afresh
