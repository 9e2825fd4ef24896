"""The four benchmark workloads, each a kvlab CLI command and a config.

Every config is built from the workload seed alone.  Random prompts use the
model shape 8 layers x 4 heads x head_dim 16, vocab 256; budgets are ratio
0.1, observe window w 8 and chunk size c 10 unless a workload says otherwise.
NOTES.md records why each workload exists and what it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

MODEL = {"n_layers": 8, "n_heads": 4, "head_dim": 16, "vocab_size": 256, "seed": 0}


def _policy(kind: str, **extra) -> dict:
    return {"kind": kind, "budget": {"ratio": 0.1, "w": 8, "c": 10}, **extra}


def _hybrid(split: int) -> dict:
    return _policy(
        "Hybrid",
        split=split,
        inner_a=_policy("ChunkKV"),
        inner_b=_policy("SnapKVStyle", pool_width=3),
    )


def _random_prompt(length: int, seed: int) -> dict:
    return {"kind": "random", "length": length, "seed": seed}


def prefill_long(seed: int) -> dict:
    return {
        "schema": 1,
        "model": MODEL,
        "prompt": _random_prompt(1024, seed),
        "policies": [_policy("ChunkKV"), _policy("SnapKVStyle", pool_width=3)],
        "reuse": {"n_reuse": 2},
    }


def policy_mix(seed: int) -> dict:
    return {
        "schema": 1,
        "model": MODEL,
        "prompt": _random_prompt(512, seed),
        "policies": [
            _policy("FullKV"),
            _policy("ChunkKV"),
            _policy("ChunkKV", head_pool=True),
            _policy("SnapKVStyle", pool_width=3),
            _policy("H2OStyle"),
            _policy("H2OStyle", h2o_normalize="none"),
            _policy("H2OStyle", head_pool=True),
            _policy("StreamingStyle"),
            _policy("PyramidStyle", skew=0.5),
            _hybrid(4),
        ],
    }


def sweep_grid(seed: int) -> dict:
    return {
        "schema": 1,
        "model": MODEL,
        "prompt": _random_prompt(256, seed),
        "policies": [
            _policy("ChunkKV"),
            _policy("SnapKVStyle", pool_width=3),
            _policy("H2OStyle"),
        ],
        "sweep": {
            "c": [5, 10, 30],
            "ratio": [0.1, 0.2],
            "n_reuse": [1, 4],
            "seeds": [seed],
        },
    }


def needle_scores(seed: int) -> dict:
    return {
        "schema": 1,
        "model": {**MODEL, "n_layers": 32},
        "prompt": {
            "kind": "needle",
            "seq_len": 16384,
            "span_start": 1000,
            "span_len": 10,
            "signal": 50.0,
            "weak_offset": 4,
            "observe_rows": 8,
            "seed": seed,
        },
        "policies": [
            _policy("ChunkKV"),
            _policy("SnapKVStyle", pool_width=3),
            _policy("H2OStyle"),
            _policy("StreamingStyle"),
            _policy("PyramidStyle", skew=0.5),
            _hybrid(16),
        ],
    }


@dataclass(frozen=True)
class Workload:
    command: str  # kvlab subcommand
    output: str  # file the command writes into its --out directory
    config: Callable[[int], dict]


WORKLOADS = {
    "prefill_long": Workload("simulate", "report.json", prefill_long),
    "policy_mix": Workload("simulate", "report.json", policy_mix),
    "sweep_grid": Workload("sweep", "sweep.csv", sweep_grid),
    "needle_scores": Workload("needle", "needle.json", needle_scores),
}

# The seed whose outputs golden.json records.
DEFAULT_SEED = 0
