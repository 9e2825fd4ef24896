import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvlab.cache import BudgetSpec, KeptIndices
from kvlab.model import (
    ROW_BLOCK,
    CacheSet,
    ModelConfig,
    ToyModel,
    _forward,
    decode_step,
    init_model,
    prefill,
)
from kvlab.experiments import _final_row_attention
from kvlab.metrics import NeedleCase, make_needle_case
from kvlab.numerics import _mm_t
from kvlab.policies import PolicySpec
from kvlab.reuse import ReusePlan, run_with_reuse

from conftest import head_q, hidden_states, random_tokens
from observe_reference import observe_scores

def test_init_rejects_zero_dims():
    with pytest.raises(ValueError):
        ModelConfig(n_layers=0, n_heads=2, head_dim=4, vocab_size=8)


def _weights(m):
    return [m.embed] + [w for lw in m.layers for w in (lw.wq, lw.wk, lw.wv, lw.wo, lw.w1, lw.w2)]


def test_same_config_identical_checksums():
    cfg = ModelConfig(2, 2, 4, 32, seed=7)
    a, b = _weights(init_model(cfg)), _weights(init_model(cfg))
    assert all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def test_seed_changes_checksum():
    a = _weights(init_model(ModelConfig(2, 2, 4, 32, seed=7)))
    b = _weights(init_model(ModelConfig(2, 2, 4, 32, seed=8)))
    assert not any(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def test_weight_range():
    m = init_model(ModelConfig(2, 2, 4, 32, seed=7))
    bound = 1.0 / np.sqrt(m.config.hidden_dim)
    assert np.abs(m.embed).max() <= bound


def test_prefill_shapes_t1(small_model):
    tr = prefill(small_model, [3])
    for l in range(tr.n_layers):
        for h in range(tr.n_heads):
            assert tr.k[l][h].shape == (1, small_model.config.head_dim)


def test_prefill_rejects_bad_tokens(small_model):
    with pytest.raises(ValueError):
        prefill(small_model, [])
    with pytest.raises(ValueError):
        prefill(small_model, [small_model.config.vocab_size])


def test_prefill_rejects_nonpositive_observe_rows(small_model):
    with pytest.raises(ValueError, match="observe_rows"):
        prefill(small_model, [1, 2], observe_rows=0)


def test_token_permutation_changes_keys(small_model):
    t1 = prefill(small_model, [1, 2, 3, 4])
    t2 = prefill(small_model, [2, 1, 3, 4])
    assert not np.array_equal(t1.k[0][0], t2.k[0][0])


def test_prefill_deterministic(small_model):
    toks = random_tokens(64, 20, seed=9)
    t1 = prefill(small_model, toks)
    t2 = prefill(small_model, toks)
    h1, h2 = hidden_states(small_model, toks), hidden_states(small_model, toks)
    for l in range(t1.n_layers):
        assert np.array_equal(h1[l], h2[l])
        for h in range(t1.n_heads):
            assert np.array_equal(t1.k[l][h], t2.k[l][h])


def test_causality(small_model):
    toks = list(random_tokens(64, 12, seed=3))
    t1 = hidden_states(small_model, toks)
    toks[8] = (toks[8] + 1) % 64
    t2 = hidden_states(small_model, toks)
    assert np.array_equal(t1[-1][:8], t2[-1][:8])
    assert not np.array_equal(t1[-1][8:], t2[-1][8:])


def test_arrays_passed_between_modules_are_read_only(small_model, small_trace):
    trace = small_trace
    arrays = list(hidden_states(small_model, trace.tokens))
    for per_layer in (trace.k, trace.v, trace.col_mass, trace.observe_probs):
        arrays += [a for heads in per_layer for a in heads]
    arrays.append(make_needle_case(NeedleCase(seq_len=8, span_start=2, span_len=2, signal=5.0)))
    arrays += [small_model.embed, small_model.layers[0].w1]
    arrays.append(decode_step(small_model, CacheSet.from_trace(trace), next_token=1)[0])
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


@pytest.mark.parametrize("t, observe_rows", [(1, 1), (40, 1), (40, 8), (2 * ROW_BLOCK + 3, 129)])
def test_prefill_without_col_mass_keeps_every_other_bit(small_model, t, observe_rows):
    tokens = random_tokens(64, t, seed=t)
    full = prefill(small_model, tokens, observe_rows=observe_rows)
    bare = prefill(small_model, tokens, observe_rows=observe_rows, col_mass=False)
    assert full.col_mass is not None and bare.col_mass is None
    for name in ("k", "v", "observe_probs"):
        want, got = getattr(full, name), getattr(bare, name)
        assert [a.tobytes() for hs in got for a in hs] == [a.tobytes() for hs in want for a in hs]


def test_decode_appends_one_row(small_model, small_trace):
    cache = CacheSet.from_trace(small_trace)
    before = cache.keys[0][0].shape[0]
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

    want = _mm_t(hidden_states(small_model, toks)[-1][-1:], small_model.embed)
    assert np.allclose(logits, want, atol=1e-4)


def test_decode_full_cache_equals_fullkv_logits(small_model, small_trace):
    all_kept = [
        [KeptIndices.from_iterable(range(small_trace.seq_len))] * small_trace.n_heads
        for _ in range(small_trace.n_layers)
    ]
    c_full = CacheSet.from_trace(small_trace)
    c_identity = CacheSet.from_trace(small_trace, kept_per_layer=all_kept)
    l1, _ = decode_step(small_model, c_full, 2)
    l2, _ = decode_step(small_model, c_identity, 2)
    assert np.array_equal(l1, l2)


# SHA-256 over the logits bytes of four decode_step calls on a FullKV cache
# from a T=300 prefill, recorded before P.V ran per row block.  The
# head_dim-1 model takes the one-entry loop of numerics._contract in decode's
# P.V and in prefill's one-row observe tail.
DECODE_DIGESTS = {
    (8, 4, 16, 256, 0): "ee17aaaab14b143f75b25742d0b644b119b9c554ead321ba03cefd5aad77a0e5",
    (2, 3, 1, 64, 5): "68f95e4e3037785b23bdf4f168f5be1e11a86644c0031ea204d633139c5fda32",
}


@pytest.mark.parametrize("shape", sorted(DECODE_DIGESTS))
def test_decode_logits_digest(shape):
    *dims, seed = shape
    model = init_model(ModelConfig(*dims, seed=seed))
    t = 300
    cache = CacheSet.from_trace(prefill(model, random_tokens(model.config.vocab_size, t, seed=t)))
    h = hashlib.sha256()
    for token in random_tokens(model.config.vocab_size, 4, seed=t + 1):
        logits, cache = decode_step(model, cache, token)
        h.update(logits.tobytes())
    assert h.hexdigest() == DECODE_DIGESTS[shape]


# SHA-256 over the logits bytes of four decode_step calls on a ChunkKV cache
# (ratio 0.25, w 8, c 10, n_reuse 2) from the same T=300 prefills as
# DECODE_DIGESTS, recorded before prefill and decode shared one layer routine.
# The kept positions are non-contiguous, and odd layers reuse their anchor's.
COMPRESSED_DECODE_DIGESTS = {
    (8, 4, 16, 256, 0): "fc284b5033815f7ae4971705309c5f91a8ab9090a430e84c1c65c381e2414d39",
    (2, 3, 1, 64, 5): "355b8b3a2b603a0f0c3c328ef792193de2ae5fa27c28b34a0f01383e81486bc4",
}


@pytest.mark.parametrize("shape", sorted(COMPRESSED_DECODE_DIGESTS))
def test_compressed_decode_logits_digest(shape):
    *dims, seed = shape
    model = init_model(ModelConfig(*dims, seed=seed))
    spec = PolicySpec("ChunkKV", BudgetSpec(ratio=0.25, w=8, c=10))
    t = 300
    trace = prefill(model, random_tokens(model.config.vocab_size, t, seed=t), observe_rows=8)
    kept = run_with_reuse(trace, spec, ReusePlan(model.config.n_layers, 2))
    assert np.diff(kept[0][0].positions).max() > 1 and kept[1] == kept[0]
    cache = CacheSet.from_trace(trace, kept)
    h = hashlib.sha256()
    for token in random_tokens(model.config.vocab_size, 4, seed=t + 1):
        logits, cache = decode_step(model, cache, token)
        h.update(logits.tobytes())
    assert h.hexdigest() == COMPRESSED_DECODE_DIGESTS[shape]


@pytest.mark.parametrize("n", [4, ROW_BLOCK + 2])
def test_forward_of_n_tokens_over_a_filled_cache(roadmap_model, n):
    # teacher forcing: n new tokens in one _forward over a T=300 FullKV cache,
    # in row blocks whose queries start past the cached keys
    p, d = 300, roadmap_model.config.head_dim
    tokens = random_tokens(256, p + n, seed=n)
    cache = CacheSet.from_trace(prefill(roadmap_model, tokens[:p]))
    hidden, ks, vs, *_ = _forward(roadmap_model, tokens[p:], cache.keys, cache.values, 1)
    for l in range(roadmap_model.config.n_layers):
        for h in range(roadmap_model.config.n_heads):
            for new, cached in ((ks[l][h], cache.keys[l][h]), (vs[l][h], cache.values[l][h])):
                assert new.shape == (p + n, d)
                assert np.array_equal(new[:p], cached)

    # layer 0's keys and values read only the embeddings: bit-equal to prefill's
    full = prefill(roadmap_model, tokens)
    for h in range(roadmap_model.config.n_heads):
        assert np.array_equal(ks[0][h], full.k[0][h])
        assert np.array_equal(vs[0][h], full.v[0][h])

    # n decode steps differ in the last bits only: each softmax row sum spans
    # the widest row of its pass (P + n here, P + i + 1 for step i)
    stepped = []
    for token in tokens[p:]:
        logits, cache = decode_step(roadmap_model, cache, token)
        stepped.append(logits[0])
    forced = _mm_t(hidden[-1], roadmap_model.embed)
    assert forced.shape == (n, roadmap_model.config.vocab_size)
    assert np.abs(forced - np.array(stepped)).max() <= 1e-6


# SHA-256 over a cache whose heads hold different numbers of keys: head h of
# every layer keeps T - 7h rows of a T=300 prefill (it drops the 7h odd
# positions from 3 on), so each head's softmax rows are narrower than the
# widest head's.  Hashed: the K, V, observe rows and col_mass of one _forward
# of ROW_BLOCK + 2 tokens over that cache (a full row block and a 2-row
# tail), then the logits of four decode_step calls.  Recorded before the
# softmax ran in place on the score block.
RAGGED_CACHE_DIGESTS = {
    (8, 4, 16, 256, 0): "c2e0f43f01ed167959e7ec40b2fb464e90faa53a511b0c55ca7590a151351a09",
    (2, 3, 1, 64, 5): "bd80cba6822afea2b06f0c38bbb2dfc089ca199117421c2119117eb9fdac5f8a",
}


@pytest.mark.parametrize("shape", sorted(RAGGED_CACHE_DIGESTS))
def test_ragged_cache_digest(shape):
    *dims, seed = shape
    model = init_model(ModelConfig(*dims, seed=seed))
    cfg, t = model.config, 300
    trace = prefill(model, random_tokens(cfg.vocab_size, t, seed=t))
    heads = range(cfg.n_heads)
    kept = [KeptIndices.from_iterable(set(range(t)) - set(range(3, 3 + 14 * h, 2))) for h in heads]
    cache = CacheSet.from_trace(trace, [kept] * cfg.n_layers)
    assert [len(k) for k in cache.keys[-1]] == [t - 7 * h for h in heads]

    digest = hashlib.sha256()
    new = random_tokens(cfg.vocab_size, ROW_BLOCK + 2, seed=t + 2)
    _, *fields = _forward(model, new, cache.keys, cache.values, 2, col_mass=True)
    for field in fields:
        for a in (a for per_head in field for a in per_head):
            digest.update(a.tobytes())
    for token in random_tokens(cfg.vocab_size, 4, seed=t + 1):
        logits, cache = decode_step(model, cache, token)
        digest.update(logits.tobytes())
    assert digest.hexdigest() == RAGGED_CACHE_DIGESTS[shape]


def _cache_of(config):
    return CacheSet.from_trace(prefill(init_model(config), [1, 2, 3]))


def test_decode_layer_mismatch(small_model):
    # small_model has 3 layers of 2 heads of head_dim 8; a cache of 3 heads
    # used to run on heads 0-1 only, and one of head_dim 4 failed in numpy
    for shape, message in [
        ((2, 2, 8), r"key heads per layer \[2, 2\] do not fit the model's 3 layers of 2"),
        ((3, 3, 8), r"key heads per layer \[3, 3, 3\]"),
        ((3, 1, 8), r"key heads per layer \[1, 1, 1\]"),
        ((3, 2, 4), r"layer 0 head 0: keys \(3, 4\) and values \(3, 4\) must both be"),
        ((3, 4, 4), r"key heads per layer \[4, 4, 4\]"),
    ]:
        cache = _cache_of(ModelConfig(*shape, 64, seed=1))
        with pytest.raises(ValueError, match=message):
            decode_step(small_model, cache, 1)


@pytest.mark.parametrize("part", ["keys", "values"])
def test_decode_rejects_keys_and_values_of_different_lengths(small_model, part):
    cache = _cache_of(small_model.config)
    getattr(cache, part)[1][1] = getattr(cache, part)[1][1][:2]
    with pytest.raises(ValueError, match=r"layer 1 head 1: keys \(\d, 8\) and values"):
        decode_step(small_model, cache, 1)
    getattr(cache, part)[1] = getattr(cache, part)[1][:1]
    with pytest.raises(ValueError, match=rf"{part[:-1]} heads per layer \[2, 1, 2\] do not fit"):
        decode_step(small_model, cache, 1)


# SHA-256 over the q/k/v bytes of every (layer, head) and each layer's hidden
# state, recorded before prefill attention was computed in causal row blocks
# (q, which prefill no longer keeps, is recomputed by head_q).
# T = 127, 128, 129 straddle the first row-block edge; 300 spans three blocks.
GOLDEN_TRACE_DIGESTS = {
    1: "985d4817288d27144e268962d9fc021d8916dad2e2e660fbdeef883e47827aa1",
    127: "b878b6578935ec80c4670558ab98c8a10de73a54e7ae05bca6add9def1aa10b1",
    128: "9262b2ea223eda645bfdf19a5ab2471fe9a09ef4b07bc8919afd7b4aeafca6e6",
    129: "3306ccb66138dbd695a3eb26410e4c1db45a5fbba89987e3ca365afae7abed99",
    300: "c297aa00a5960e4671d0fd5f6ba3f2089acf65958d8412180b50510596a8173c",
}


def _trace_digest(model, trace) -> str:
    h = hashlib.sha256()
    hidden = hidden_states(model, trace.tokens)
    for l in range(trace.n_layers):
        for hd in range(trace.n_heads):
            h.update(head_q(model, trace, l, hd).tobytes())
            for m in (trace.k, trace.v):
                h.update(m[l][hd].tobytes())
        h.update(hidden[l].tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def roadmap_model():
    return init_model(ModelConfig(n_layers=8, n_heads=4, head_dim=16, vocab_size=256, seed=0))


@pytest.mark.parametrize("t", sorted(GOLDEN_TRACE_DIGESTS))
def test_golden_trace_digest(roadmap_model, t):
    trace = prefill(roadmap_model, random_tokens(256, t, seed=t))
    assert _trace_digest(roadmap_model, trace) == GOLDEN_TRACE_DIGESTS[t]


@pytest.mark.parametrize("t", [127, 128, 129, 300])
def test_observe_rows_leave_trace_bits(roadmap_model, t):
    # a 129-row observe tail moves every row-block edge but no bit of the trace
    trace = prefill(roadmap_model, random_tokens(256, t, seed=t), observe_rows=129)
    assert _trace_digest(roadmap_model, trace) == GOLDEN_TRACE_DIGESTS[t]


@pytest.mark.parametrize("t", sorted(GOLDEN_TRACE_DIGESTS))
def test_attention_statistics_match_observe_oracle(roadmap_model, t):
    # observe_rows 129 and T put the tail block across a 128-row block edge
    tokens = random_tokens(256, t, seed=t)
    for observe_rows in sorted({1, 2, 8, 129, t}):
        trace = prefill(roadmap_model, tokens, observe_rows=observe_rows)
        kept = min(observe_rows, t)
        for l in range(trace.n_layers):
            for h in range(trace.n_heads):
                got = trace.observe_probs[l][h]
                assert got.shape == (kept, t)
                for w in sorted({1, kept}):
                    want = observe_scores(roadmap_model, trace, l, h, w, "softmax")
                    assert got[kept - w :].tobytes() == want.tobytes()
                full = observe_scores(roadmap_model, trace, l, h, t, "softmax")
                mass = trace.col_mass[l][h]
                assert mass.dtype == np.float64 and mass.shape == (t,)
                assert mass.tobytes() == full.sum(axis=0, dtype=np.float64).tobytes()
                row = _final_row_attention(trace, l, h)
                assert row.shape == (1, t)
                assert row.tobytes() == observe_scores(roadmap_model, trace, l, h, 1, "softmax").tobytes()


@settings(max_examples=25, deadline=None)
@given(
    t=st.integers(min_value=1, max_value=2 * ROW_BLOCK + 5),
    observe_rows=st.integers(min_value=1, max_value=2 * ROW_BLOCK + 5),
    head_dim=st.sampled_from([1, 2, 16]),
    spread=st.sampled_from([1.0, 16.0]),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_col_mass_is_the_row_order_sum_of_the_full_softmax(t, observe_rows, head_dim, spread, seed):
    # prefill adds each row block's softmax rows to col_mass as it goes and
    # keeps no T x T buffer; the bits must be those of the full softmax sum.
    # spread 16 scales the scores so probabilities span enough binades that
    # float64 sums round, and summing a block's columns first would show.
    cfg = ModelConfig(1, 2, head_dim, 32, seed=seed)
    base = init_model(cfg)
    s = np.float32(spread)
    layers = tuple(replace(lw, wq=lw.wq * s, wk=lw.wk * s) for lw in base.layers)
    model = ToyModel(cfg, base.embed * s, layers)
    trace = prefill(model, random_tokens(32, t, seed=seed), observe_rows=observe_rows)
    for h in range(trace.n_heads):
        full = observe_scores(model, trace, 0, h, t, "softmax")
        assert trace.col_mass[0][h].tobytes() == full.sum(axis=0, dtype=np.float64).tobytes()
        kept = trace.observe_probs[0][h]
        assert kept.tobytes() == full[t - min(observe_rows, t) :].tobytes()


@settings(max_examples=40, deadline=None)
@given(
    t=st.integers(min_value=1, max_value=2 * ROW_BLOCK + 5),
    observe_rows=st.integers(min_value=1, max_value=2 * ROW_BLOCK + 5),
    col_mass=st.booleans(),
    heads=st.sampled_from([(1, 1), (2, 16)]),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_prefill_equals_the_full_forward_pass(t, observe_rows, col_mass, heads, seed):
    # prefill's last layer projects Q on the kept rows only (the observe tail,
    # or every row for col_mass) and runs a shorter block list with no P.V,
    # output projection or feed-forward block; hidden=True runs it in full.
    # One head of head_dim 1 takes _contract's one-entry loop for the tail's Q.
    model = init_model(ModelConfig(2, *heads, 32, seed=seed))
    tokens = random_tokens(32, t, seed=seed)
    trace = prefill(model, tokens, observe_rows=observe_rows, col_mass=col_mass)
    empty = [[np.empty((0, heads[1]), dtype=np.float32)] * heads[0]] * 2
    hidden, *fields = _forward(model, tokens, empty, empty, observe_rows, col_mass, hidden=True)
    assert len(hidden) == 2 and len(fields) == 3 + col_mass
    assert (trace.col_mass is None) is not col_mass
    for name, want in zip(("k", "v", "observe_probs", "col_mass"), fields):
        got = getattr(trace, name)
        assert [a.tobytes() for hs in got for a in hs] == [a.tobytes() for hs in want for a in hs]
