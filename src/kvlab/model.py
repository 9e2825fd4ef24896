"""Deterministic seeded toy transformer: prefill plus stepwise decode.

Weights come from a counter-based Philox generator, so a (config, tokens)
pair always regenerates a bit-identical trace.  The model is deliberately
tiny: causal multi-head attention with residual, a two-layer ReLU
feedforward block, tied embedding logits, no positional encodings and no
normalization layers.  One layer routine, ``_forward``, holds all of it:
prefill runs it over an empty cache, decode_step over the cached keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import TensorView, _causal_pv, _causal_softmax, _mm_t, check_seed

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
        check_seed(self.seed)

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


@dataclass(frozen=True)
class PrefillTrace:
    """Per (layer, head) Q/K/V plus per-layer hidden states for one prompt.

    Every attention score downstream code reads comes from prefill's own
    QK^T and causal softmax; nothing recomputes them.  Per (layer, head):
    ``col_mass``, the float64 column sums of the T x T softmax (H2OStyle's
    cumulative attention), and the observe rows, the last n = min(observe_rows,
    T) queries against all T keys: ``observe_raw``, their scaled QK^T rows
    (upper triangle included), and ``observe_probs``, their causal softmax
    rows.  Policies read the last w of these rows as their observe window,
    and the fidelity metric reads the final softmax row.
    """

    config: ModelConfig
    tokens: tuple[int, ...]
    q: tuple[tuple[TensorView, ...], ...]
    k: tuple[tuple[TensorView, ...], ...]
    v: tuple[tuple[TensorView, ...], ...]
    hidden: tuple[TensorView, ...]
    col_mass: tuple[tuple[np.ndarray, ...], ...]
    observe_raw: tuple[tuple[TensorView, ...], ...]
    observe_probs: tuple[tuple[TensorView, ...], ...]

    @property
    def seq_len(self) -> int:
        return len(self.tokens)

    @property
    def n_layers(self) -> int:
        return self.config.n_layers

    @property
    def n_heads(self) -> int:
        return self.config.n_heads


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


def _add_rows(mass: np.ndarray, rows: np.ndarray, buf: np.ndarray) -> None:
    """mass += rows[0], rows[1], ... in turn, in float64.

    Bit-equal to summing the full T x T softmax over axis 0: each column is a
    running sum in row order.  ``buf`` holds the running sum in row 0 and up
    to len(buf) - 1 rows after it; one reduce adds them in row order.
    (Adding a block's own column sums to ``mass`` would round differently.)
    """
    step = len(buf) - 1
    for i in range(0, len(rows), step):
        part = rows[i : i + step]
        buf[0] = mass
        buf[1 : len(part) + 1] = part
        np.add.reduce(buf[: len(part) + 1], axis=0, out=mass)


def _forward(model: ToyModel, tokens, past_k, past_v, observe_rows: int):
    """Run n new tokens through every layer over P cached keys per (layer, head).

    New row i is query P + i.  Row block [r0, r1) has query offset P + r0,
    reads keys [0, P + r1) and writes its softmax rows into a buffer T = P + n
    wide; the last block is the observe tail, the last min(observe_rows, n)
    rows.  Returns hidden per layer, then q (new rows), k and v (all P + n
    rows), col_mass, observe_raw and observe_probs per layer and head.
    """
    cfg = model.config
    if any(t < 0 or t >= cfg.vocab_size for t in tokens):
        raise ValueError("token id out of vocabulary range")
    d = cfg.head_dim
    scale = np.float32(1.0 / math.sqrt(d))
    x = model.embed[np.asarray(tokens, dtype=np.intp)]
    n = len(tokens)
    tail = n - min(observe_rows, n)
    blocks = [(r0, min(r0 + ROW_BLOCK, tail)) for r0 in range(0, tail, ROW_BLOCK)]
    blocks.append((tail, n))

    width = n + max(len(k) for ks in past_k for k in ks)  # the widest T
    rows = np.empty((min(ROW_BLOCK, tail), width), dtype=np.float32)  # one block's rows
    mass_buf = np.empty((min(ROW_BLOCK, n) + 1, width), dtype=np.float64)
    hiddens, per_layer = [], []
    for lw, ks, vs in zip(model.layers, past_k, past_v, strict=True):
        q, k, v = (_mm_t(x, w) for w in (lw.wq, lw.wk, lw.wv))
        ctx = np.empty((n, cfg.hidden_dim), dtype=np.float32)
        heads = []
        for h in range(cfg.n_heads):
            sl = slice(h * d, (h + 1) * d)
            p = len(ks[h])
            t = p + n
            k_all = np.concatenate([ks[h], k[:, sl]], axis=0) if p else k[:, sl]
            v_all = np.concatenate([vs[h], v[:, sl]], axis=0) if p else v[:, sl]
            mass = np.zeros(t, dtype=np.float64)
            for r0, r1 in blocks:
                scores = _mm_t(q[r0:r1, sl], k_all[: p + r1]) * scale
                # the tail block's QK^T and rows are kept: fresh per head
                block = rows[: r1 - r0, :t] if r1 <= tail else np.empty((r1 - r0, t), np.float32)
                _causal_softmax(scores, query_offset=p + r0, out=block)
                ctx[r0:r1, sl] = _causal_pv(block, v_all, query_offset=p + r0)
                _add_rows(mass, block, mass_buf[:, :t])
            mass.flags.writeable = False
            heads.append((q[:, sl], k_all, v_all, mass, scores, block))
        x = x + _mm_t(ctx, lw.wo)
        x = x + _mm_t(np.maximum(_mm_t(x, lw.w1), np.float32(0.0)), lw.w2)
        hiddens.append(x)
        # With no cached keys, q/k/v are views of the projections until here:
        # copied last, they reuse the layer's freed temporaries (a cold T=1024
        # prefill then takes half the page faults of copying them first).
        per_layer.append([[np.ascontiguousarray(a) for a in f] for f in zip(*heads)])
    return (hiddens, *map(list, zip(*per_layer)))


def prefill(model: ToyModel, tokens, observe_rows: int = 1) -> PrefillTrace:
    """Full causal forward pass capturing Q/K/V per head and hidden states.

    ``_forward`` over an empty cache: the observe tail's QK^T spans all T keys.
    """
    cfg = model.config
    tokens = tuple(int(t) for t in tokens)
    if not tokens:
        raise ValueError("token sequence must be non-empty")
    if observe_rows < 1:
        raise ValueError(f"observe_rows must be >= 1, got {observe_rows}")

    empty = [[np.empty((0, cfg.head_dim), dtype=np.float32)] * cfg.n_heads] * cfg.n_layers
    hidden, q, k, v, col_mass, raw, probs = _forward(model, tokens, empty, empty, observe_rows)

    def views(per_layer) -> tuple[tuple[TensorView, ...], ...]:
        return tuple(tuple(map(TensorView, heads)) for heads in per_layer)

    return PrefillTrace(
        config=cfg,
        tokens=tokens,
        q=views(q),
        k=views(k),
        v=views(v),
        hidden=tuple(map(TensorView, hidden)),
        col_mass=tuple(map(tuple, col_mass)),
        observe_raw=views(raw),
        observe_probs=views(probs),
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
        heads = range(trace.n_heads)
        for l in range(trace.n_layers):
            if kept_per_layer is None:
                rows = [slice(None)] * len(heads)
            else:
                rows = [np.asarray(kept_per_layer[l][h].positions, dtype=np.intp) for h in heads]
            cs.keys.append([np.array(trace.k[l][h].data[rows[h]]) for h in heads])
            cs.values.append([np.array(trace.v[l][h].data[rows[h]]) for h in heads])
        return cs

    def seq_len(self, layer: int, head: int = 0) -> int:
        return self.keys[layer][head].shape[0]


def decode_step(model: ToyModel, cache: CacheSet, next_token: int):
    """Append one token: returns (logits as 1 x vocab TensorView, cache).

    ``_forward`` of the token over the cache appends one K and one V row per
    (layer, head); the new query attends over the retained cache and itself.
    """
    cfg = model.config
    for name, layers in (("key", cache.keys), ("value", cache.values)):
        heads = [len(hs) for hs in layers]
        if heads != [cfg.n_heads] * cfg.n_layers:
            raise ValueError(
                f"cache {name} heads per layer {heads} do not fit the model's"
                f" {cfg.n_layers} layers of {cfg.n_heads} heads"
            )
    for l, (ks, vs) in enumerate(zip(cache.keys, cache.values)):
        for h, (k, v) in enumerate(zip(ks, vs)):
            if k.shape != v.shape or k.shape[1:] != (cfg.head_dim,):
                raise ValueError(
                    f"cache layer {l} head {h}: keys {k.shape} and values {v.shape}"
                    f" must both be (P, head_dim {cfg.head_dim})"
                )

    past = cache.keys, cache.values
    hidden, _, cache.keys, cache.values, *_ = _forward(model, [next_token], *past, 1)
    return TensorView(_mm_t(hidden[-1], model.embed)), cache
