#!/usr/bin/env python3
"""Layer-wise index similarity study: adjacent-layer Jaccard per policy,
similarity heatmaps (CSV + PGM), and analytic vs measured reuse speedups.
"""

import argparse
from pathlib import Path

from kvlab.experiments import cmd_reuse_bench, cmd_similarity, parse_config, run_simulate


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/reuse_similarity")
    ap.add_argument("--length", type=int, default=256)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    doc = {
        "schema": 1,
        "model": {"n_layers": 8, "n_heads": 4, "head_dim": 16, "vocab_size": 256, "seed": args.seed},
        "prompt": {"kind": "random", "length": args.length, "seed": args.seed},
        "policies": [
            {"kind": "ChunkKV", "budget": {"ratio": 0.1, "w": 8, "c": 10}},
            {"kind": "SnapKVStyle", "budget": {"ratio": 0.1, "w": 8, "c": 10}, "pool_width": 3},
            {"kind": "H2OStyle", "budget": {"ratio": 0.1, "w": 8, "c": 10}},
        ],
        "reuse": {"n_reuse": 2},
        "sweep": {"n_reuse": [1, 2, 4, 8]},
    }
    cfg = parse_config(doc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    report, _ = run_simulate(cfg)
    print(f"{'policy':<14} {'adjacent_jaccard':>18}")
    for prep in report["policies"]:
        print(f"{prep['policy']:<14} {prep['adjacent_jaccard']:>18.4f}")

    for path in cmd_similarity(cfg, out) + cmd_reuse_bench(cfg, out):
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
