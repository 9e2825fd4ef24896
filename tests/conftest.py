import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

sys.dont_write_bytecode = True  # the suite leaves no __pycache__ under src or perfbench

from kvlab.model import ModelConfig, _forward, init_model, prefill
from kvlab.numerics import _mm_t


def random_tokens(vocab: int, n: int, seed: int):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return tuple(int(t) for t in rng.integers(0, vocab, size=n))


def hidden_states(model, tokens) -> list:
    """Each layer's hidden state for a prompt, from _forward over an empty cache.

    Prefill keeps no hidden states; the full forward pass still makes them.
    """
    cfg = model.config
    empty = [[np.empty((0, cfg.head_dim), dtype=np.float32)] * cfg.n_heads] * cfg.n_layers
    return _forward(model, tuple(tokens), empty, empty, 1)[0]


_latest = []  # [model, tokens, hidden states] of head_q's latest prompt


def head_q(model, trace, layer: int, head: int) -> np.ndarray:
    """Q of one (layer, head) of a prefill trace, recomputed bit for bit.

    Prefill keeps no Q: it projects the layer's input, the token embeddings at
    layer 0 and the previous layer's hidden state after that, with _mm_t.
    """
    if layer == 0:
        x = model.embed[np.asarray(trace.tokens, dtype=np.intp)]
    else:
        if not (_latest and _latest[0] is model and _latest[1] == trace.tokens):
            _latest[:] = [model, trace.tokens, hidden_states(model, trace.tokens)]
        x = _latest[2][layer - 1]
    d = model.config.head_dim
    return np.ascontiguousarray(_mm_t(x, model.layers[layer].wq)[:, head * d : (head + 1) * d])


@pytest.fixture(scope="session")
def small_model():
    return init_model(ModelConfig(n_layers=3, n_heads=2, head_dim=8, vocab_size=64, seed=11))


@pytest.fixture(scope="session")
def small_trace(small_model):
    return prefill(small_model, random_tokens(64, 40, seed=5), observe_rows=40)


@pytest.fixture
def load_perfbench(monkeypatch):
    """Import perfbench/NAME.py by file path."""

    def load(name: str):
        path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up here
        spec.loader.exec_module(module)
        return module

    return load
