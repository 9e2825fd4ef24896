"""The kvlab names that perfbench/tracer.py wraps must keep resolving.

The tracer reports a boundary whose name is gone as missing and its layer as
unmeasured, without an error, so a refactor that deletes or renames a wrapped
name would silently drop a layer from the per-layer table.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Names gone before this test existed: earlier refactors deleted them and the
# tracer still lists them.  The benchmark change that mends perfbench/ (ROADMAP
# item 5) shrinks this list; no other change may grow it.
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
}


def test_tracer_boundaries_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ is only read
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up here
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert set(tracer.missing) <= KNOWN_MISSING
