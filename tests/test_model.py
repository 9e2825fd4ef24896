import hashlib

import numpy as np
import pytest

from kvlab.model import CacheSet, ModelConfig, decode_step, init_model, prefill
from kvlab.numerics import TensorView, matmul_transposed

from conftest import random_tokens

# first-run regression value for ModelConfig(2, 2, 4, 32, seed=7)
GOLDEN_CHECKSUM = -10.527508854866028


def test_init_rejects_zero_dims():
    with pytest.raises(ValueError):
        ModelConfig(n_layers=0, n_heads=2, head_dim=4, vocab_size=8)


def test_same_config_identical_checksums():
    cfg = ModelConfig(2, 2, 4, 32, seed=7)
    assert init_model(cfg).weight_checksum() == init_model(cfg).weight_checksum()


def test_seed_changes_checksum():
    a = init_model(ModelConfig(2, 2, 4, 32, seed=7))
    b = init_model(ModelConfig(2, 2, 4, 32, seed=8))
    assert a.weight_checksum() != b.weight_checksum()


def test_golden_weight_fingerprint():
    m = init_model(ModelConfig(2, 2, 4, 32, seed=7))
    assert m.weight_checksum() == pytest.approx(GOLDEN_CHECKSUM, abs=1e-9)


def test_weight_range():
    m = init_model(ModelConfig(2, 2, 4, 32, seed=7))
    bound = 1.0 / np.sqrt(m.config.hidden_dim)
    assert np.abs(m.embed).max() <= bound


def test_prefill_shapes_t1(small_model):
    tr = prefill(small_model, [3])
    for l in range(tr.n_layers):
        for h in range(tr.n_heads):
            assert tr.k[l][h].data.shape == (1, small_model.config.head_dim)


def test_prefill_rejects_bad_tokens(small_model):
    with pytest.raises(ValueError):
        prefill(small_model, [])
    with pytest.raises(ValueError):
        prefill(small_model, [small_model.config.vocab_size])


def test_token_permutation_changes_keys(small_model):
    t1 = prefill(small_model, [1, 2, 3, 4])
    t2 = prefill(small_model, [2, 1, 3, 4])
    assert not np.array_equal(t1.k[0][0].data, t2.k[0][0].data)


def test_prefill_deterministic(small_model):
    toks = random_tokens(64, 20, seed=9)
    t1 = prefill(small_model, toks)
    t2 = prefill(small_model, toks)
    for l in range(t1.n_layers):
        assert np.array_equal(t1.hidden[l].data, t2.hidden[l].data)
        for h in range(t1.n_heads):
            assert np.array_equal(t1.k[l][h].data, t2.k[l][h].data)


def test_causality(small_model):
    toks = list(random_tokens(64, 12, seed=3))
    t1 = prefill(small_model, toks)
    toks[8] = (toks[8] + 1) % 64
    t2 = prefill(small_model, toks)
    assert np.array_equal(t1.hidden[-1].data[:8], t2.hidden[-1].data[:8])
    assert not np.array_equal(t1.hidden[-1].data[8:], t2.hidden[-1].data[8:])


def test_decode_appends_one_row(small_model, small_trace):
    cache = CacheSet.from_trace(small_trace)
    before = cache.seq_len(0)
    _, cache = decode_step(small_model, cache, next_token=1)
    for l in range(small_trace.n_layers):
        for h in range(small_trace.n_heads):
            assert cache.keys[l][h].shape[0] == before + 1
            assert cache.values[l][h].shape[0] == before + 1


def test_decode_matches_prefill(small_model):
    toks = list(random_tokens(64, 16, seed=21))
    trace = prefill(small_model, toks[:-1])
    cache = CacheSet.from_trace(trace)
    logits, _ = decode_step(small_model, cache, toks[-1])

    full = prefill(small_model, toks)
    last_hidden = TensorView(full.hidden[-1].data[-1:])
    want = matmul_transposed(last_hidden, TensorView(small_model.embed)).data
    assert np.allclose(logits.data, want, atol=1e-4)


def test_decode_full_cache_equals_fullkv_logits(small_model, small_trace):
    from kvlab.cache import KeptIndices

    all_kept = [
        [KeptIndices.from_iterable(range(small_trace.seq_len))] * small_trace.n_heads
        for _ in range(small_trace.n_layers)
    ]
    c_full = CacheSet.from_trace(small_trace)
    c_identity = CacheSet.from_trace(small_trace, kept_per_layer=all_kept)
    l1, _ = decode_step(small_model, c_full, 2)
    l2, _ = decode_step(small_model, c_identity, 2)
    assert np.array_equal(l1.data, l2.data)


def test_decode_layer_mismatch(small_model):
    other = prefill(init_model(ModelConfig(2, 2, 8, 64, seed=1)), [1, 2])
    cache = CacheSet.from_trace(other)
    with pytest.raises(ValueError):
        decode_step(small_model, cache, 1)


# SHA-256 over the q/k/v bytes of every (layer, head) and each layer's hidden
# state, recorded before prefill attention was computed in causal row blocks.
# T = 127, 128, 129 straddle the first row-block edge; 300 spans three blocks.
GOLDEN_TRACE_DIGESTS = {
    1: "985d4817288d27144e268962d9fc021d8916dad2e2e660fbdeef883e47827aa1",
    127: "b878b6578935ec80c4670558ab98c8a10de73a54e7ae05bca6add9def1aa10b1",
    128: "9262b2ea223eda645bfdf19a5ab2471fe9a09ef4b07bc8919afd7b4aeafca6e6",
    129: "3306ccb66138dbd695a3eb26410e4c1db45a5fbba89987e3ca365afae7abed99",
    300: "c297aa00a5960e4671d0fd5f6ba3f2089acf65958d8412180b50510596a8173c",
}


def _trace_digest(trace) -> str:
    h = hashlib.sha256()
    for l in range(trace.n_layers):
        for hd in range(trace.n_heads):
            for m in (trace.q, trace.k, trace.v):
                h.update(m[l][hd].data.tobytes())
        h.update(trace.hidden[l].data.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def roadmap_model():
    return init_model(ModelConfig(n_layers=8, n_heads=4, head_dim=16, vocab_size=256, seed=0))


@pytest.mark.parametrize("t", sorted(GOLDEN_TRACE_DIGESTS))
def test_golden_trace_digest(roadmap_model, t):
    trace = prefill(roadmap_model, random_tokens(256, t, seed=t))
    assert _trace_digest(trace) == GOLDEN_TRACE_DIGESTS[t]
