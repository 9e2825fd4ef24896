"""Deterministic seeded toy transformer: prefill plus stepwise decode.

Weights come from a counter-based Philox generator, so a (config, tokens)
pair always regenerates a bit-identical trace.  The model is deliberately
tiny: causal multi-head attention with residual, a two-layer ReLU
feedforward block, tied embedding logits, no positional encodings and no
normalization layers.  One layer routine, ``_forward``, holds all of it:
prefill runs it over an empty cache, decode_step over the cached keys.

Weights, trace arrays and logits are plain float32 ndarrays (float64 for
``col_mass``, None when prefill skips it), each marked read-only by
``_frozen`` where it is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import _causal_pv, _causal_softmax, _contract, _frozen, _mm_t, check_seed

# Query rows per block of causal prefill attention.  Each block's QK^T and
# softmax stop at its last row's column; at T=1024 a prefill with blocks of
# 64 rows costs what 128 do (within 3%), and 256 rows cost about 10% more.
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
    # projections stored as (out, in); _forward contracts W.T with (features, tokens)
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
    """Per (layer, head) K/V and attention scores for one prompt.

    Every array is a read-only ndarray: ``k`` and ``v`` are float32
    T x head_dim per (layer, head).  Every attention score downstream code
    reads comes from prefill's own QK^T and causal softmax; nothing
    recomputes them.  Q and hidden states are not kept: prefill's last layer
    stops at its K, V and kept softmax rows.
    Per (layer, head): ``col_mass``, the float64 column sums of the T x T
    softmax (H2OStyle's cumulative attention; None if prefill skipped it, as
    experiments do unless an H2OStyle runs), and ``observe_probs``, the causal
    softmax rows of the last n = min(observe_rows, T) queries against all T
    keys.  Row readers (``policies.observe_rows``) read the last w of these
    rows, and the fidelity metric reads the final row.
    ``memo`` holds the rankings and kept sets already made on this trace (and
    a sweep's needles); the fidelity measures live only in the one layer pass
    that takes them, one layer's |K|/|V| stack at a time.  No constructor
    argument and no part of equality, it starts empty:
    ``dataclasses.replace(trace)`` shares every array and has a fresh memo.
    """

    config: ModelConfig
    tokens: tuple[int, ...]
    k: tuple[tuple[np.ndarray, ...], ...]
    v: tuple[tuple[np.ndarray, ...], ...]
    col_mass: tuple[tuple[np.ndarray, ...], ...] | None
    observe_probs: tuple[tuple[np.ndarray, ...], ...]
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        return _frozen(rng.uniform(-bound, bound, size=(rows, cols)).astype(np.float32))

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


def _forward(
    model: ToyModel, tokens, past_k, past_v, observe_rows: int, col_mass: bool = False,
    hidden: bool = True,
):
    """Run n new tokens through every layer over P cached keys per (layer, head).

    New row i is query P + i.  Row block [r0, r1) has query offset P + r0 and
    reads keys [0, P + r1); the last block is the observe tail, the last
    min(observe_rows, n) rows.  Activations are (features, tokens), so each
    product's inner loop runs over tokens.  Returns the hidden state per
    layer (None if not ``hidden``), then per layer and head k, v (all P + n
    rows), observe_probs (the tail block's softmax rows) and, if
    ``col_mass``, col_mass: read-only, token-major, and no Q or scores.
    col_mass sums the softmax rows in row order in float64, one reduce down
    (the sum so far, then the rows) per block: the bits of the T x T column sum.
    With ``hidden=False`` the last layer stops at what it returns: it
    projects Q only for the rows whose softmax is kept (the tail; every row
    for ``col_mass``) and runs no P.V, output projection or feed-forward block.
    """
    cfg = model.config
    if any(t < 0 or t >= cfg.vocab_size for t in tokens):
        raise ValueError("token id out of vocabulary range")
    d = cfg.head_dim
    scale = np.float32(1.0 / math.sqrt(d))
    xT = np.ascontiguousarray(model.embed[np.asarray(tokens, dtype=np.intp)].T)
    n = len(tokens)
    tail = n - min(observe_rows, n)
    blocks = [(r0, min(r0 + ROW_BLOCK, tail)) for r0 in range(0, tail, ROW_BLOCK)]
    blocks.append((tail, n))

    width = n + max(len(k) for ks in past_k for k in ks)  # the widest T
    rows = np.empty((min(ROW_BLOCK, tail), width), dtype=np.float32)  # for T-wide row sums
    hiddens, per_layer = [], []
    for l, (lw, ks, vs) in enumerate(zip(model.layers, past_k, past_v, strict=True)):
        last = not hidden and l == cfg.n_layers - 1  # stops at K, V and the kept rows
        todo = blocks[-1:] if last and not col_mass else blocks
        q0 = todo[0][0]  # the first query row projected
        kT, vT = _contract(lw.wk.T, xT), _contract(lw.wv.T, xT)
        qT = _contract(lw.wq.T, xT[:, q0:])
        ctxT = None if last else np.empty((cfg.hidden_dim, n), dtype=np.float32)
        heads = []
        for h in range(cfg.n_heads):
            sl = slice(h * d, (h + 1) * d)
            p = len(ks[h])
            t = p + n
            k_all = np.concatenate([ks[h], kT[sl].T]) if p else kT[sl].T
            v_all = np.concatenate([vs[h], vT[sl].T]) if p else vT[sl].T
            kt = np.ascontiguousarray(k_all.T)  # C-ordered K^T: a copy only over a cache
            mass = np.zeros(t, dtype=np.float64) if col_mass else None
            for r0, r1 in todo:
                scores = _contract(qT[sl, r0 - q0 : r1 - q0], kt[:, : p + r1])
                scores *= scale
                # a block short of the tail sums its rows over T columns in the
                # row buffer; the tail block spans all T keys and is kept as is
                out = rows[: r1 - r0, :t] if r1 < n else None
                probs = _causal_softmax(scores, query_offset=p + r0, out=out)
                if not last:
                    ctxT[sl, r0:r1] = _causal_pv(probs, v_all, query_offset=p + r0).T
                if col_mass:  # columns past the block's keys would add exact zeros
                    m = mass[: p + r1]
                    np.add.reduce(np.concatenate((m[None], probs)), axis=0, out=m)
            heads.append((k_all, v_all, probs, mass) if col_mass else (k_all, v_all, probs))
        if not last:
            xT = xT + _contract(lw.wo.T, ctxT)
            xT = xT + _contract(lw.w2.T, np.maximum(_contract(lw.w1.T, xT), np.float32(0.0)))
            if hidden:
                hiddens.append(_frozen(xT.T))
        # With no cached keys, k/v are views of the projections until here:
        # copied last, they reuse the layer's freed temporaries (a cold T=1024
        # prefill then takes half the page faults of copying them first).
        per_layer.append([[_frozen(a) for a in f] for f in zip(*heads)])
    return (hiddens if hidden else None, *map(list, zip(*per_layer)))


def prefill(model: ToyModel, tokens, observe_rows: int = 1, col_mass: bool = True) -> PrefillTrace:
    """Causal prefill of a prompt: K/V per (layer, head) and the scores read downstream.

    ``_forward`` over an empty cache, stopped where the last layer's K, V
    and kept softmax rows are made (no hidden states are kept); the observe
    tail's QK^T spans all T keys.  ``col_mass=False`` leaves ``col_mass``
    None and every other bit as it is.
    """
    cfg = model.config
    tokens = tuple(int(t) for t in tokens)
    if not tokens:
        raise ValueError("token sequence must be non-empty")
    if observe_rows < 1:
        raise ValueError(f"observe_rows must be >= 1, got {observe_rows}")

    empty = [[np.empty((0, cfg.head_dim), dtype=np.float32)] * cfg.n_heads] * cfg.n_layers
    _, k, v, probs, *mass = _forward(
        model, tokens, empty, empty, observe_rows, col_mass, hidden=False
    )
    return PrefillTrace(
        config=cfg,
        tokens=tokens,
        k=tuple(map(tuple, k)),
        v=tuple(map(tuple, v)),
        col_mass=tuple(map(tuple, mass[0])) if col_mass else None,
        observe_probs=tuple(map(tuple, probs)),
    )


@dataclass
class CacheSet:
    """Per-layer, per-head K/V lists; decode_step replaces their arrays."""

    keys: list[list[np.ndarray]] = field(default_factory=list)
    values: list[list[np.ndarray]] = field(default_factory=list)

    @classmethod
    def from_trace(cls, trace: PrefillTrace, kept_per_layer=None) -> "CacheSet":
        """Build a cache from a prefill trace, optionally compressed.

        kept_per_layer: per-layer list of per-head KeptIndices, or None for
        the uncompressed FullKV cache.
        """
        cs = cls()
        heads = range(trace.n_heads)
        for l in range(trace.n_layers):
            if kept_per_layer is None:
                rows = [slice(None)] * len(heads)
            else:
                rows = [np.asarray(kept_per_layer[l][h].positions, dtype=np.intp) for h in heads]
            cs.keys.append([trace.k[l][h][rows[h]] for h in heads])
            cs.values.append([trace.v[l][h][rows[h]] for h in heads])
        return cs


def decode_step(model: ToyModel, cache: CacheSet, next_token: int):
    """Append one token: returns (logits as a read-only 1 x vocab ndarray, cache).

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
    hidden, cache.keys, cache.values, _ = _forward(model, [next_token], *past, 1)
    return _frozen(_mm_t(hidden[-1], model.embed)), cache
