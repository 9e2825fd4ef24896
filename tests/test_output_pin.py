"""Byte-level pin of report.json and needle.json across every policy kind.

The digests were recorded before the policy dispatch was unified; any change
to what a policy keeps, or to how reports are written, shows up here.  The
config stays clear of PyramidStyle with pool_width > 1 on needle scores and
of sweeps, whose needle-prompt behaviour changed on purpose.  The sweep.csv
digests were recorded before a sweep prefilled each prompt seed once and
H2OStyle read its column mass from prefill.  simulate, needle and sweep read
a needle prompt's retention off the same kept sets under the same reuse plan
(`tests/test_cli.py::TestOneNeedleAnswer`).  The `DIGESTS` were re-recorded
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
}

# (command, prompt, n_reuse) -> sha256 of the written file.  The simulate
# digests were re-recorded when report.json lost each policy's modeled
# `speedup_estimate`: the old report with that key popped from every policy
# and dumped again is byte-equal to the new one.
DIGESTS = {
    ("simulate", "random", 1): "e805decc45320018c5cd1d5b44a6604b2342d33427a248d4b53f9337f09f0086",
    ("simulate", "random", 2): "fb7873844bd69c46c38bb202f8d253945bf04f5a2c4db70c205881754abf8888",
    ("simulate", "needle", 1): "9b332ceb2bdd982fa4aa0e32569edd183267746dc25563c01a887025d18f6acb",
    ("simulate", "needle", 2): "5411971dd1be7eb5f6f23a9c8cbbfc48bdd82bc39886f6b974f4af9397589e60",
    # needle.json reads the kept sets report.json does, under the same reuse
    # plan; at signal 60 every layer keeps the same share of the span whether
    # it is compressed or copied, so n_reuse 2 writes the bytes of n_reuse 1.
    # Re-recorded when the `case` block lost the needle's `noise` field (the
    # noise is always uniform); the `policies` block kept every byte.
    ("needle", "needle", 1): "3efc76d2f746d3b388344fe51aec0b9f30edd42d6fde5fabe408a00a7ce753fc",
    ("needle", "needle", 2): "3efc76d2f746d3b388344fe51aec0b9f30edd42d6fde5fabe408a00a7ce753fc",
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

# prompt -> sha256 of sweep.csv over c x ratio x n_reuse x two seeds.  The
# needle digest was recorded when each seed group started to build its needle
# scores at that seed; it equals the rows of two one-seed sweeps run with
# --seed 1 and --seed 2 before that change.  It held when the needle columns
# moved from a separate layer-0 draw to the cell's own kept sets: at signal 60
# both keep the same share of the span.
SWEEP_DIGESTS = {
    "random": "b2db089142e5ce5104cc4df078624d9181054605c22cd2250544a10a5a89b01e",
    "needle": "0a9e77cf9f9bec76090afe28490a564d8893b9f7887fa6ae84acbdd5c14ff9a4",
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
