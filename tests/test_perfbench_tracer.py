"""The kvlab names that perfbench/tracer.py wraps must keep resolving and being called.

The tracer reports a boundary whose name is gone as missing and its layer as
unmeasured, without an error, so a refactor that deletes or renames a wrapped
name would silently drop a layer from the per-layer table.  A refactor that
keeps the name but no longer calls through it (a direct import, or
``writerows`` in place of ``csv.DictWriter.writerow``) zeroes the layer
just as silently.
"""

import json

import pytest

from kvlab.cli import main

# Names the tracer still wraps that kvlab no longer has.  A change that deletes
# a wrapped name lists it here, as perfbench/ changes only with the benchmark;
# the benchmark change that mends perfbench/ (ROADMAP item 6) empties the set.
KNOWN_MISSING = {
    "kvlab.policies.matmul_transposed",
    "kvlab.policies.causal_softmax_rows",
    "kvlab.policies.observe_scores",
    "kvlab.experiments.run_policy",
    "kvlab.experiments.compress_from_scores",
    "kvlab.experiments.chunkkv_from_scores",
    "kvlab.experiments.topk_from_scores",
    "kvlab.experiments.max_pool_1d",
    "kvlab.experiments.streaming_compress",
    "kvlab.cli.cmd_similarity",
}

# Layers a simulate with reuse and a two-seed sweep must reach.  numerics.mm_t
# is left out: it already reads 0 calls on every benchmark workload, as prefill
# multiplies through numerics._contract, and of its two boundaries
# kvlab.model._mm_t is called only by decode_step and
# kvlab.policies.matmul_transposed is gone (KNOWN_MISSING).
CALLED_LAYERS = (
    "numerics.softmax",
    "model.init",
    "model.prefill",
    "cache.kept",
    "policies.compress",
    "policies.select",
    "reuse.run",
    "reuse.similarity",
    "metrics.fidelity",
    "metrics.needle",
    "experiments",
    "experiments.write",
)


@pytest.fixture
def tracer_module(load_perfbench):
    return load_perfbench("tracer")


def test_tracer_boundaries_resolve(tracer_module):
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert set(tracer.missing) <= KNOWN_MISSING


BUDGET = {"ratio": 0.25, "w": 4, "c": 5}
CONFIG = {
    "schema": 1,
    "model": {"n_layers": 4, "n_heads": 2, "head_dim": 8, "vocab_size": 64, "seed": 3},
    "prompt": {"kind": "random", "length": 40, "seed": 1},
    "policies": [{"kind": "ChunkKV", "budget": BUDGET}, {"kind": "H2OStyle", "budget": BUDGET}],
    "reuse": {"n_reuse": 2},
    "sweep": {"seeds": [0, 1]},
}
NEEDLE_PROMPT = {"kind": "needle", "seq_len": 40, "span_start": 10, "span_len": 5, "signal": 40.0}


def test_tracer_sees_every_layer_called(tracer_module, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for command in ("simulate", "sweep"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0
    finally:
        tracer.uninstall()
    table = tracer_module.layer_table(tracer)
    assert {layer: table[layer]["calls"] >= 1 for layer in CALLED_LAYERS} == dict.fromkeys(
        CALLED_LAYERS, True
    )
    # every sweep row goes through the traced writerow (writerows would not;
    # writeheader may or may not)
    names = [span[0] for span in tracer.dump()]
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().count("\n") - 1
    assert rows == 2 * 2  # two seeds of two policies
    assert names.count("kvlab.experiments.csv.DictWriter.writerow") >= rows


@pytest.mark.parametrize("command", ["simulate", "sweep", "needle", "reuse-bench"])
def test_tracer_sees_each_command(tracer_module, tmp_path, capsys, command):
    """main runs the kvlab.cli.cmd_* the tracer installed, not one bound before it."""
    prompt = NEEDLE_PROMPT if command == "needle" else CONFIG["prompt"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**CONFIG, "prompt": prompt}))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()
    spans = [span[0] for span in tracer.dump() if span[0].startswith("kvlab.cli.")]
    assert spans == ["kvlab.cli.cmd_" + command.replace("-", "_")]
