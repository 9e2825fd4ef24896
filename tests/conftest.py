import numpy as np
import pytest

from kvlab.model import ModelConfig, init_model, prefill


def random_tokens(vocab: int, n: int, seed: int):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return tuple(int(t) for t in rng.integers(0, vocab, size=n))


@pytest.fixture(scope="session")
def small_model():
    return init_model(ModelConfig(n_layers=3, n_heads=2, head_dim=8, vocab_size=64, seed=11))


@pytest.fixture(scope="session")
def small_trace(small_model):
    return prefill(small_model, random_tokens(64, 40, seed=5), observe_rows=40)
