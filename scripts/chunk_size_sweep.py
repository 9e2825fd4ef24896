#!/usr/bin/env python3
"""Chunk-size ablation: sweep c over {3, 5, 10, 20, 30} at a 10% budget.

Writes sweep.csv under --out and prints, for each policy and chunk size, the
adjacent-layer index similarity averaged over seeds.
"""

import argparse
import csv
from collections import defaultdict
from pathlib import Path

from kvlab.experiments import cmd_sweep, parse_config


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/chunk_size_sweep")
    ap.add_argument("--length", type=int, default=256)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = ap.parse_args()

    doc = {
        "schema": 1,
        "model": {"n_layers": 8, "n_heads": 4, "head_dim": 16, "vocab_size": 256, "seed": 0},
        "prompt": {"kind": "random", "length": args.length, "seed": 0},
        "policies": [
            {"kind": "ChunkKV", "budget": {"ratio": 0.1, "w": 8, "c": 10}},
            {"kind": "SnapKVStyle", "budget": {"ratio": 0.1, "w": 8, "c": 10}, "pool_width": 3},
            {"kind": "H2OStyle", "budget": {"ratio": 0.1, "w": 8, "c": 10}},
        ],
        "sweep": {"c": [3, 5, 10, 20, 30], "ratio": [0.1], "n_reuse": [1], "seeds": args.seeds},
    }
    [path] = cmd_sweep(parse_config(doc), Path(args.out))
    print(f"wrote {path}")

    grouped = defaultdict(list)
    with path.open() as f:
        for row in csv.DictReader(f):
            grouped[(row["policy"], int(row["c"]))].append(row)
    print(f"{'policy':<14} {'c':>3} {'adj_jaccard':>12}")
    for (policy, c), rows in sorted(grouped.items()):
        jac = sum(float(r["adjacent_jaccard"]) for r in rows) / len(rows)
        print(f"{policy:<14} {c:>3} {jac:>12.4f}")


if __name__ == "__main__":
    main()
