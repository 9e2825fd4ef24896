"""Byte-level pin of report.json and needle.json across every policy kind.

The digests were recorded before the policy dispatch was unified; any change
to what a policy keeps, or to how reports are written, shows up here.  The
config stays clear of PyramidStyle with pool_width > 1 on needle scores.
report.json and sweep.csv are pinned on a random prompt, needle.json on a
needle prompt: only `kvlab needle` runs one.  The sweep.csv digests were
recorded before a sweep prefilled each prompt seed once and H2OStyle read
its column mass from prefill.  The `DIGESTS` were re-recorded
on the code before raw observe scores were removed, with the one policy that
read them (a ChunkKV with `score_mode` "raw") taken out of `POLICIES`; the
code without raw scores writes the same bytes.
"""

import hashlib
import json

import pytest

from kvlab.cli import main


def _policy(kind, **extra):
    return {"kind": kind, "budget": {"ratio": 0.25, "w": 4, "c": 5}, **extra}


POLICIES = [
    _policy("FullKV"),
    _policy("ChunkKV"),
    _policy("ChunkKV", head_pool=True),
    _policy("SnapKVStyle", pool_width=3),
    _policy("SnapKVStyle", pool_width=3, head_pool=True),
    _policy("H2OStyle"),
    _policy("H2OStyle", h2o_normalize="none"),
    _policy("H2OStyle", head_pool=True),
    _policy("StreamingStyle", sink=2),
    _policy("PyramidStyle", skew=0.2),
    _policy("PyramidStyle", skew=0.2, head_pool=True),
    _policy("Hybrid", split=2, inner_a=_policy("ChunkKV"), inner_b=_policy("SnapKVStyle", pool_width=3)),
]

PROMPTS = {
    "random": {"kind": "random", "length": 48, "seed": 1},
    "needle": {
        "kind": "needle", "seq_len": 60, "span_start": 20, "span_len": 5,
        "signal": 60.0, "seed": 4, "weak_offset": 2, "observe_rows": 4,
    },
    # signal 0.3 over uniform noise: each layer keeps its own share of the span
    "weak_needle": {
        "kind": "needle", "seq_len": 60, "span_start": 20, "span_len": 5,
        "signal": 0.3, "seed": 2, "weak_offset": 2, "observe_rows": 4,
    },
}

# (command, prompt, n_reuse) -> sha256 of the written file.  The simulate
# digests were re-recorded when report.json lost each policy's modeled
# `speedup_estimate`: the old report with that key popped from every policy
# and dumped again is byte-equal to the new one.
DIGESTS = {
    ("simulate", "random", 1): "e805decc45320018c5cd1d5b44a6604b2342d33427a248d4b53f9337f09f0086",
    ("simulate", "random", 2): "fb7873844bd69c46c38bb202f8d253945bf04f5a2c4db70c205881754abf8888",
    # at signal 60 every layer keeps the same share of the span whether it is
    # compressed or copied, so n_reuse 2 writes the bytes of n_reuse 1.
    # Re-recorded when the `case` block lost the needle's `noise` field (the
    # noise is always uniform); the `policies` block kept every byte.
    ("needle", "needle", 1): "3efc76d2f746d3b388344fe51aec0b9f30edd42d6fde5fabe408a00a7ce753fc",
    ("needle", "needle", 2): "3efc76d2f746d3b388344fe51aec0b9f30edd42d6fde5fabe408a00a7ce753fc",
    # recorded while simulate and sweep also read a needle prompt, before
    # `kvlab needle` drew its own per-layer scores; here n_reuse changes the bytes
    ("needle", "weak_needle", 1): "82d61b6dbca6a02ac2b52f7d47bb46ff3dc62682028b4bb2c80847438cd925dc",
    ("needle", "weak_needle", 2): "1ed482ab6bf9575a658dcd17f4bd73cd26626e0ede530ccbcd5a3e923bd80309",
    ("needle", "weak_needle", 4): "69810f003896d9a3bb8d6fc5f27e1a7c729291583395ce2077bc88c2fac1ef1a",
}

OUTPUT = {"simulate": "report.json", "needle": "needle.json"}


def output_digest(tmp_path, command, prompt, n_reuse):
    cfg = {
        "schema": 1,
        "model": {"n_layers": 4, "n_heads": 2, "head_dim": 8, "vocab_size": 64, "seed": 3},
        "prompt": PROMPTS[prompt],
        "policies": POLICIES,
        "reuse": {"n_reuse": n_reuse},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    return hashlib.sha256((tmp_path / "out" / OUTPUT[command]).read_bytes()).hexdigest()


@pytest.mark.parametrize("key", sorted(DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_output_digest(tmp_path, key):
    assert output_digest(tmp_path, *key) == DIGESTS[key]


SWEEP_POLICIES = [
    _policy("ChunkKV"),
    _policy("SnapKVStyle", pool_width=3),
    _policy("H2OStyle"),
    _policy("H2OStyle", h2o_normalize="none"),
    _policy("H2OStyle", head_pool=True),
]

# prompt -> sha256 of sweep.csv over c x ratio x n_reuse x two seeds
SWEEP_DIGESTS = {
    "random": "b2db089142e5ce5104cc4df078624d9181054605c22cd2250544a10a5a89b01e",
}


@pytest.mark.parametrize("prompt", sorted(SWEEP_DIGESTS))
def test_sweep_digest(tmp_path, prompt):
    cfg = {
        "schema": 1,
        "model": {"n_layers": 4, "n_heads": 2, "head_dim": 8, "vocab_size": 64, "seed": 3},
        "prompt": PROMPTS[prompt],
        "policies": SWEEP_POLICIES,
        "sweep": {"c": [3, 5], "ratio": [0.25, 0.4], "n_reuse": [1, 2], "seeds": [1, 2]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "sweep.csv").read_bytes()).hexdigest()
    assert digest == SWEEP_DIGESTS[prompt]


# The only observe window wider than 4 is the Hybrid's inner_a (w = 12), so
# prefill must size its observe rows by Hybrid inner policies too.  Digests
# recorded before policies read their observe rows from prefill.
HYBRID_INNER_DIGESTS = {
    "simulate": "86c1d31bc73aa4d260ca2a37037a5b0fdc9875bcf658bd5ba47fa1af752e3f26",
    "sweep": "9f0610ab73ef5875a867a2c2dc3e8471dcf99f638d8bae708d8039df6f6d7383",
}


@pytest.mark.parametrize("command", sorted(HYBRID_INNER_DIGESTS))
def test_hybrid_inner_window_digest(tmp_path, command):
    hybrid = _policy(
        "Hybrid", split=2,
        inner_a={**_policy("ChunkKV"), "budget": {"ratio": 0.25, "w": 12, "c": 5}},
        inner_b=_policy("SnapKVStyle", pool_width=3),
    )
    cfg = {
        "schema": 1,
        "model": {"n_layers": 4, "n_heads": 2, "head_dim": 8, "vocab_size": 64, "seed": 3},
        "prompt": PROMPTS["random"],
        "policies": [_policy("ChunkKV"), hybrid],
        "sweep": {"c": [3, 5], "ratio": [0.25, 0.4], "n_reuse": [1, 2], "seeds": [1, 2]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    name = {"simulate": "report.json", "sweep": "sweep.csv"}[command]
    digest = hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
    assert digest == HYBRID_INNER_DIGESTS[command]
