"""Deterministic seeded toy transformer: prefill plus stepwise decode.

Weights come from a counter-based Philox generator, so a (config, tokens)
pair always regenerates a bit-identical trace.  The model is deliberately
tiny: causal multi-head attention with residual, a two-layer ReLU
feedforward block, tied embedding logits, no positional encodings and no
normalization layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cache import KeptIndices, LayerKV
from .numerics import TensorView, _causal_pv, _causal_softmax, _mm_t

# Query rows per block of causal prefill attention.  Each block's QK^T and
# softmax stop at its last row's column; per-head cost is flat within 10%
# for blocks of 64, 128 and 256 rows at T=1024.
ROW_BLOCK = 128


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    n_heads: int
    head_dim: int
    vocab_size: int
    seed: int = 0

    def __post_init__(self):
        if min(self.n_layers, self.n_heads, self.head_dim, self.vocab_size) < 1:
            raise ValueError("all model dimensions must be >= 1")

    @property
    def hidden_dim(self) -> int:
        return self.n_heads * self.head_dim


@dataclass(frozen=True)
class LayerWeights:
    # projections stored as (out, in) so forward passes are a @ W.T
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


@dataclass(frozen=True)
class ToyModel:
    config: ModelConfig
    embed: np.ndarray
    layers: tuple[LayerWeights, ...]

    def weight_checksum(self) -> float:
        total = float(np.float64(self.embed.sum()))
        for lw in self.layers:
            for w in (lw.wq, lw.wk, lw.wv, lw.wo, lw.w1, lw.w2):
                total += float(np.float64(w.sum()))
        return total


@dataclass(frozen=True)
class PrefillTrace:
    """Per (layer, head) Q/K/V plus per-layer hidden states for one prompt."""

    config: ModelConfig
    tokens: tuple[int, ...]
    q: tuple[tuple[TensorView, ...], ...]
    k: tuple[tuple[TensorView, ...], ...]
    v: tuple[tuple[TensorView, ...], ...]
    hidden: tuple[TensorView, ...]

    @property
    def seq_len(self) -> int:
        return len(self.tokens)

    @property
    def n_layers(self) -> int:
        return self.config.n_layers

    @property
    def n_heads(self) -> int:
        return self.config.n_heads

    def layer_kv(self, layer: int) -> LayerKV:
        return LayerKV(
            layer=layer,
            keys=self.k[layer],
            values=self.v[layer],
            seq_len=self.seq_len,
        )


def init_model(config: ModelConfig) -> ToyModel:
    """Fill all weights uniformly in [-1/sqrt(hidden), +1/sqrt(hidden)] (Philox)."""
    h = config.hidden_dim
    ff = 2 * h
    bound = 1.0 / math.sqrt(h)
    rng = np.random.Generator(np.random.Philox(key=config.seed))

    def draw(rows: int, cols: int) -> np.ndarray:
        w = rng.uniform(-bound, bound, size=(rows, cols)).astype(np.float32)
        w.flags.writeable = False
        return w

    embed = draw(config.vocab_size, h)
    layers = tuple(
        LayerWeights(
            wq=draw(h, h),
            wk=draw(h, h),
            wv=draw(h, h),
            wo=draw(h, h),
            w1=draw(ff, h),
            w2=draw(h, ff),
        )
        for _ in range(config.n_layers)
    )
    return ToyModel(config=config, embed=embed, layers=layers)


def _split_heads(x: np.ndarray, n_heads: int, head_dim: int) -> list[np.ndarray]:
    return [x[:, h * head_dim : (h + 1) * head_dim] for h in range(n_heads)]


def prefill(model: ToyModel, tokens) -> PrefillTrace:
    """Full causal forward pass capturing Q/K/V per head and hidden states."""
    cfg = model.config
    tokens = tuple(int(t) for t in tokens)
    if not tokens:
        raise ValueError("token sequence must be non-empty")
    if any(t < 0 or t >= cfg.vocab_size for t in tokens):
        raise ValueError("token id out of vocabulary range")

    scale = np.float32(1.0 / math.sqrt(cfg.head_dim))
    x = model.embed[np.asarray(tokens, dtype=np.intp)]
    t = len(tokens)

    all_q, all_k, all_v, hiddens = [], [], [], []
    probs = np.empty((t, t), dtype=np.float32)  # causal rows, T wide
    for lw in model.layers:
        q = _mm_t(x, lw.wq)
        k = _mm_t(x, lw.wk)
        v = _mm_t(x, lw.wv)
        heads_q = _split_heads(q, cfg.n_heads, cfg.head_dim)
        heads_k = _split_heads(k, cfg.n_heads, cfg.head_dim)
        heads_v = _split_heads(v, cfg.n_heads, cfg.head_dim)

        ctx = np.empty((t, cfg.hidden_dim), dtype=np.float32)
        for h in range(cfg.n_heads):
            for r0 in range(0, t, ROW_BLOCK):
                r1 = min(r0 + ROW_BLOCK, t)
                scores = _mm_t(heads_q[h][r0:r1], heads_k[h][:r1]) * scale
                _causal_softmax(scores, query_offset=r0, out=probs[r0:r1])
            ctx[:, h * cfg.head_dim : (h + 1) * cfg.head_dim] = _causal_pv(
                probs, heads_v[h], query_offset=0
            )
        x = x + _mm_t(ctx, lw.wo)
        x = x + _mm_t(np.maximum(_mm_t(x, lw.w1), np.float32(0.0)), lw.w2)

        all_q.append(tuple(TensorView(hq) for hq in heads_q))
        all_k.append(tuple(TensorView(hk) for hk in heads_k))
        all_v.append(tuple(TensorView(hv) for hv in heads_v))
        hiddens.append(TensorView(x))

    return PrefillTrace(
        config=cfg,
        tokens=tokens,
        q=tuple(all_q),
        k=tuple(all_k),
        v=tuple(all_v),
        hidden=tuple(hiddens),
    )


@dataclass
class CacheSet:
    """Mutable per-layer, per-head K/V store consumed by decode_step."""

    config: ModelConfig
    keys: list[list[np.ndarray]] = field(default_factory=list)
    values: list[list[np.ndarray]] = field(default_factory=list)

    @classmethod
    def from_trace(cls, trace: PrefillTrace, kept_per_layer=None) -> "CacheSet":
        """Build a cache from a prefill trace, optionally compressed.

        kept_per_layer: per-layer list of per-head KeptIndices, or None for
        the uncompressed FullKV cache.
        """
        cs = cls(config=trace.config)
        for l in range(trace.n_layers):
            kv = trace.layer_kv(l)
            if kept_per_layer is not None:
                heads_k, heads_v = [], []
                for h in range(trace.n_heads):
                    kept = kept_per_layer[l][h]
                    idx = np.asarray(kept.positions, dtype=np.intp)
                    heads_k.append(np.array(kv.keys[h].data[idx]))
                    heads_v.append(np.array(kv.values[h].data[idx]))
            else:
                heads_k = [np.array(k.data) for k in kv.keys]
                heads_v = [np.array(v.data) for v in kv.values]
            cs.keys.append(heads_k)
            cs.values.append(heads_v)
        return cs

    def seq_len(self, layer: int, head: int = 0) -> int:
        return self.keys[layer][head].shape[0]


def decode_step(model: ToyModel, cache: CacheSet, next_token: int):
    """Append one token: returns (logits as 1 x vocab TensorView, cache).

    Exactly one K row and one V row are appended per (layer, head); the new
    query attends over the retained cache plus its own fresh entry.
    """
    cfg = model.config
    if len(cache.keys) != cfg.n_layers:
        raise ValueError("cache layer count does not match model")
    if next_token < 0 or next_token >= cfg.vocab_size:
        raise ValueError("token id out of vocabulary range")

    scale = np.float32(1.0 / math.sqrt(cfg.head_dim))
    x = model.embed[np.asarray([next_token], dtype=np.intp)]
    for l, lw in enumerate(model.layers):
        q = _mm_t(x, lw.wq)
        k = _mm_t(x, lw.wk)
        v = _mm_t(x, lw.wv)
        ctx = np.empty((1, cfg.hidden_dim), dtype=np.float32)
        for h in range(cfg.n_heads):
            sl = slice(h * cfg.head_dim, (h + 1) * cfg.head_dim)
            k_all = np.concatenate([cache.keys[l][h], k[:, sl]], axis=0)
            v_all = np.concatenate([cache.values[l][h], v[:, sl]], axis=0)
            scores = _mm_t(q[:, sl], k_all) * scale
            offset = k_all.shape[0] - 1
            probs = _causal_softmax(scores, query_offset=offset)
            ctx[:, sl] = _causal_pv(probs, v_all, query_offset=offset)
            cache.keys[l][h] = k_all
            cache.values[l][h] = v_all
        x = x + _mm_t(ctx, lw.wo)
        x = x + _mm_t(np.maximum(_mm_t(x, lw.w1), np.float32(0.0)), lw.w2)

    logits = _mm_t(x, model.embed)
    return TensorView(logits), cache
