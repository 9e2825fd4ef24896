#!/usr/bin/env python3
"""Layer-wise index similarity study: adjacent-layer Jaccard per policy,
similarity heatmaps (CSV + PGM), and analytic vs measured reuse speedups.

Every layer selects its own kept set (n_reuse 1), so the similarity is that of
fresh selections; the heatmaps render each policy's report.json matrix.
"""

import argparse
import json
from pathlib import Path

from kvlab.experiments import cmd_reuse_bench, cmd_simulate, parse_config


def heatmaps(matrix) -> tuple[str, str]:
    """The matrix as CSV to 3 decimals and as a plain graymap of levels 0-255."""
    table = "".join(",".join(f"{v:.3f}" for v in row) + "\r\n" for row in matrix)  # as csv.writer
    levels = (" ".join(str(int(round(v * 255))) for v in row) for row in matrix)
    n = len(matrix)
    return table, "\n".join(["P2", f"{n} {n}", "255", *levels]) + "\n"


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
        "sweep": {"n_reuse": [1, 2, 4, 8]},
    }
    cfg = parse_config(doc)
    out = Path(args.out)

    written = cmd_simulate(cfg, out)
    report = json.loads(written[0].read_text())
    print(f"{'policy':<14} {'adjacent_jaccard':>18}")
    for prep in report["policies"]:
        print(f"{prep['policy']:<14} {prep['adjacent_jaccard']:>18.4f}")
        for ext, text in zip(("csv", "pgm"), heatmaps(prep["similarity_matrix"])):
            path = out / f"similarity_{prep['policy']}.{ext}"
            path.write_text(text, newline="")
            written.append(path)

    for path in written + cmd_reuse_bench(cfg, out):
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
