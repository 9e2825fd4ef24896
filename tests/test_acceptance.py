"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
status lines.
"""

import itertools
import json

import numpy as np
import pytest

from kvlab.cache import BudgetSpec, KeptIndices
from kvlab.cli import main
from kvlab.metrics import (
    NeedleCase,
    attention_cosine,
    kv_l1_loss,
    kv_magnitudes,
    make_needle_case,
    needle_retention,
)
from kvlab.model import ModelConfig, init_model, prefill
from kvlab.policies import PolicySpec, chunkkv_from_scores, topk_from_scores
from kvlab.reuse import ReusePlan, adjacent_similarity, run_with_reuse, speedup_estimate

from conftest import random_tokens
from test_cache import make_layer_kv


def ok(n, msg):
    print(f"\nACCEPTANCE {n} PASS: {msg}")


def test_criterion_1_memory_formula_exact(capsys):
    rc = main("memory --batch 1 --seq 2048 --layers 32 --heads 32 --head-dim 128".split())
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip() == "1073741824 bytes (1.00 GiB)"
    with capsys.disabled():
        ok(1, "memory formula prints 1,073,741,824 bytes for the 8B-class config")


def test_criterion_2_speedup_formula_exact():
    for n in (1, 2, 4, 8, 16, 32):
        assert speedup_estimate(32, n, 3.14159, 0.0) == float(n)
    assert speedup_estimate(32, 2, 10.0, 1.0) == 320.0 / 176.0
    ok(2, "speedup factor exact; t_select=0 returns n_reuse for all divisors of 32")


def _oracle_chunkkv(a: np.ndarray, c: int, w: int, max_len: int, t_k: int):
    """Exhaustive-subset oracle: best k-subset of chunk sums, then mask union."""
    bounds = [(s, min(s + c, t_k)) for s in range(0, t_k, c)]
    sums = []
    for s, e in bounds:
        total = 0.0
        for row in a:
            for j in range(s, e):
                total += float(row[j])
        sums.append(total)
    k = min((max_len - w) // c, len(bounds))
    best = None
    # combinations(sums, k) yields, in step, each index subset's chunk sums in index order
    subsets = itertools.combinations(range(len(bounds)), k)
    for subset, vals in zip(subsets, itertools.combinations(sums, k)):
        tot = sum(vals)
        if best is None or tot > best[0] or (tot == best[0] and subset < best[1]):
            best = (tot, subset)
    kept = set(range(t_k - w, t_k))
    for ci in best[1]:
        s, e = bounds[ci]
        kept.update(range(s, e))
    return kept


def test_criterion_3_chunkkv_oracle_equivalence():
    rng = np.random.Generator(np.random.Philox(key=99))
    cases = 0
    while cases < 500:
        t_k = int(rng.integers(4, 25))
        c = int(rng.choice([1, 2, 3, 5]))
        w = int(rng.choice([0, 1, 2]))
        max_len = int(rng.integers(max(w, 1), t_k + 1))
        a = rng.uniform(0, 1, size=(max(w, 1), t_k)).astype(np.float32)
        got = chunkkv_from_scores(a, c, w, max_len).as_set()
        if max_len >= t_k:
            want = set(range(t_k))
        else:
            want = _oracle_chunkkv(a, c, w, max_len, t_k)
        assert got == want, (t_k, c, w, max_len)
        cases += 1
    ok(3, f"chunk compression equals the exhaustive-subset oracle on {cases} cases")


def _policy_for(kind, budget):
    return PolicySpec(kind, budget, pool_width=3, sink=2, skew=0.1)


def test_criterion_4_budget_and_recency_laws():
    kinds = ["ChunkKV", "SnapKVStyle", "H2OStyle", "StreamingStyle", "PyramidStyle", "Hybrid"]
    rng = np.random.Generator(np.random.Philox(key=7))
    traces = [
        prefill(
            init_model(ModelConfig(3, 2, 8, 64, seed=s)),
            random_tokens(64, 24 + 4 * s, seed=s),
            observe_rows=4,
        )
        for s in range(5)
    ]
    cases = 0
    from kvlab.policies import resolved_layer_budgets

    for rep in range(40):
        trace = traces[rep % len(traces)]
        t = trace.seq_len
        w = int(rng.integers(0, 5))
        c = int(rng.integers(1, 6))
        max_len = int(rng.integers(w + c, t + 1))
        budget = BudgetSpec(max_len=max_len, w=w, c=c)
        for kind in kinds:
            if kind == "Hybrid":
                spec = PolicySpec(
                    "Hybrid", budget, split=2,
                    inner_a=_policy_for("ChunkKV", budget),
                    inner_b=_policy_for("SnapKVStyle", budget),
                )
            else:
                spec = _policy_for(kind, budget)
            try:
                kept = run_with_reuse(trace, spec, ReusePlan(trace.n_layers, 1))
            except ValueError:
                continue  # infeasible sink/skew for this budget draw
            budgets = resolved_layer_budgets(spec, trace.n_layers, t)
            for l in range(trace.n_layers):
                for h in range(trace.n_heads):
                    ks = kept[l][h]
                    assert len(ks) <= budgets[l]
                    assert set(range(t - w, t)) <= ks.as_set()
                    assert ks.positions == tuple(sorted(set(ks.positions)))
            cases += 1
    assert cases >= 200
    ok(4, f"budget and recency laws hold for every policy over {cases} cases")


def test_criterion_5_chunk_integrity():
    rng = np.random.Generator(np.random.Philox(key=13))
    for case in range(200):
        t_k = int(rng.integers(6, 60))
        c = int(rng.integers(1, 8))
        w = int(rng.integers(0, 4))
        max_len = int(rng.integers(max(w, 1), t_k))
        a = rng.uniform(0, 1, size=(max(w, 1), t_k)).astype(np.float32)
        kept = chunkkv_from_scores(a, c, w, max_len)
        recent = set(range(t_k - w, t_k))
        kept_set = kept.as_set()
        for pos in kept_set - recent:
            start = (pos // c) * c
            end = min(start + c, t_k)
            assert set(range(start, end)) <= kept_set
    ok(5, "every kept non-recent position lies in a fully-kept chunk (200 cases)")


def test_criterion_6_directional_adjacent_similarity():
    budget = BudgetSpec(ratio=0.1, w=8, c=10)
    specs = {
        "ChunkKV": PolicySpec("ChunkKV", budget),
        "SnapKVStyle": PolicySpec("SnapKVStyle", budget, pool_width=1),
        "H2OStyle": PolicySpec("H2OStyle", budget),
    }
    sims = {name: [] for name in specs}
    for seed in range(20):
        model = init_model(ModelConfig(8, 4, 16, 256, seed=seed))
        trace = prefill(model, random_tokens(256, 256, seed=seed + 1000), observe_rows=8)
        for name, spec in specs.items():
            kept = run_with_reuse(trace, spec, ReusePlan(8, 1))
            sims[name].append(adjacent_similarity([kept[l][0] for l in range(8)]))
    means = {name: float(np.mean(v)) for name, v in sims.items()}
    assert means["ChunkKV"] > means["SnapKVStyle"]
    assert means["ChunkKV"] > means["H2OStyle"]
    ok(
        6,
        "mean adjacent Jaccard: ChunkKV %.3f > SnapKV %.3f, H2O %.3f (20 seeds)"
        % (means["ChunkKV"], means["SnapKVStyle"], means["H2OStyle"]),
    )


def test_criterion_7_index_reuse_correctness():
    model = init_model(ModelConfig(8, 2, 8, 64, seed=5))
    trace = prefill(model, random_tokens(64, 48, seed=6), observe_rows=4)
    spec = PolicySpec("ChunkKV", BudgetSpec(ratio=0.3, w=4, c=5))
    for n_reuse in (2, 4):
        plan = ReusePlan(8, n_reuse)
        kept = run_with_reuse(trace, spec, plan)
        for l in range(8):
            anchor = plan.anchor(l)
            for h in range(trace.n_heads):
                assert kept[l][h].as_set() == kept[anchor][h].as_set()
    ok(7, "non-anchor layers are set-equal to their anchors for n_reuse in {2, 4}")


def test_criterion_8_needle_intactness():
    t, c, w = 60, 5, 2
    budget = w + c  # chunk policy: one chunk + recent window
    token_budget = w + c - 1  # strictly between w and span + w
    chunk_ok = token_fail = 0
    for seed in range(100):
        dominant = NeedleCase(seq_len=t, span_start=20, span_len=c, signal=float(t), seed=seed)
        a = make_needle_case(dominant, observe_rows=w)
        kept = chunkkv_from_scores(a, c, w, budget)
        _, intact = needle_retention(kept, dominant)
        assert intact
        chunk_ok += 1

        weak = NeedleCase(
            seq_len=t, span_start=20, span_len=c, signal=float(t), seed=seed, weak_offset=2
        )
        aw = make_needle_case(weak, observe_rows=w)
        col = aw.sum(axis=0, dtype=np.float64)
        kept_tok = topk_from_scores(col, w, token_budget)
        _, intact_tok = needle_retention(kept_tok, weak)
        assert not intact_tok
        token_fail += 1
    ok(8, f"chunk policy intact on {chunk_ok}/100 seeds; token-level broken on {token_fail}/100")


def test_criterion_9_fidelity_monotonicity():
    rng = np.random.Generator(np.random.Philox(key=17))
    for seed in range(50):
        mags = kv_magnitudes(*make_layer_kv(seq_len=12, heads=2, dim=4, seed=seed))
        p = rng.uniform(0.01, 1, size=12)
        row = (p / p.sum()).astype(np.float32).reshape(1, -1)
        positions = list(rng.permutation(12))
        chain = [KeptIndices.from_iterable(positions[:n]) for n in range(0, 13, 3)]
        for smaller, bigger in zip(chain, chain[1:]):
            assert kv_l1_loss(mags, bigger) <= kv_l1_loss(mags, smaller)
            assert attention_cosine(row, bigger) >= attention_cosine(row, smaller)
    ok(9, "growing kept-sets never raise KV L1 loss nor lower attention cosine (50 traces)")


ACCEPT_CONFIG = {
    "schema": 1,
    "model": {"n_layers": 4, "n_heads": 2, "head_dim": 8, "vocab_size": 64, "seed": 3},
    "prompt": {"kind": "random", "length": 64, "seed": 1},
    "policies": [
        {"kind": "ChunkKV", "budget": {"ratio": 0.2, "w": 4, "c": 5}},
        {"kind": "SnapKVStyle", "budget": {"ratio": 0.2, "w": 4, "c": 5}, "pool_width": 3},
    ],
    "reuse": {"n_reuse": 2},
}


def test_criterion_10_reproducibility(tmp_path):
    cfg = dict(ACCEPT_CONFIG)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b
    ok(10, "two simulate runs with one config produce byte-identical report.json")


def test_criterion_11_chunk_size_sweep_schema(tmp_path):
    import csv

    cfg = dict(ACCEPT_CONFIG)
    cfg["sweep"] = {"c": [3, 5, 10, 20, 30], "ratio": [0.1], "n_reuse": [1], "seeds": [0, 1]}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
    with (tmp_path / "out" / "sweep.csv").open() as f:
        rows = list(csv.DictReader(f))
    per_policy_seed = {}
    for row in rows:
        per_policy_seed.setdefault((row["policy"], row["seed"]), []).append(row)
        for col, val in row.items():
            assert val != "", f"column {col} not populated"
    assert len(rows) == 5 * 2 * 2
    for key, group in per_policy_seed.items():
        assert len(group) == 5, key
        assert sorted(int(r["c"]) for r in group) == [3, 5, 10, 20, 30]
    ok(11, "chunk-size sweep emits 5 fully-populated rows per policy per seed")
