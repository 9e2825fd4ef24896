"""Eviction policies behind one dispatch and one selection routine.

`compress_layer(source, layer, spec)` is the only place a policy kind picks
its scoring rule.  A source is either a `PrefillTrace`, whose scores are the
causal softmax rows of each (layer, head)'s observe window, or
`ScoreMatrices`, a synthetic one-head source that hands every policy the
same matrix per layer: a needle prompt's under `kvlab needle`, and the
sweep's needle columns.

`chunkkv_from_scores` alone turns scores into a kept set: the top chunks by
summed score, unioned with the last w positions (mask semantics: the kept
count may fall below the budget when chosen chunks overlap that window).
`compress_layer` calls it once per ranking: ChunkKV's observe-window rows at
its c, and at c = 1 the other kinds' one-position scores: pooled observe-window
column mass (SnapKVStyle, PyramidStyle with layer-decaying budgets) or
cumulative attention (H2OStyle).  StreamingStyle cuts a mask on the first sink
positions through `topk_from_scores`.  Hybrid splits the layers.

A layer's ranking, the stable descending order of its chunk scores, depends
on the scoring rule and not on the budget, so `compress_layer` keeps it in
the source's own memo and every budget on the layer cuts the same ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from .cache import BudgetSpec, KeptIndices
from .model import PrefillTrace

POLICY_KINDS = (
    "FullKV",
    "ChunkKV",
    "SnapKVStyle",
    "H2OStyle",
    "StreamingStyle",
    "PyramidStyle",
    "Hybrid",
)


@dataclass(frozen=True)
class PolicySpec:
    """Declarative description of one eviction policy."""

    kind: str
    budget: BudgetSpec
    pool_width: int = 1          # SnapKVStyle, PyramidStyle: odd 1-D max-pool width
    sink: int = 4                # StreamingStyle: initial tokens always kept
    skew: float = 0.0            # PyramidStyle: top/bottom budget skew in [0, 1)
    split: Optional[int] = None  # Hybrid: first split layers use inner_a
    inner_a: Optional["PolicySpec"] = None
    inner_b: Optional["PolicySpec"] = None
    head_pool: bool = False      # score across heads by mean instead of per-head
    h2o_normalize: str = "exposure"  # or "none" for plain column sums

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.h2o_normalize not in ("exposure", "none"):
            raise ValueError(f"unknown h2o_normalize {self.h2o_normalize!r}")
        width = self.pool_width
        is_int = isinstance(width, int) and not isinstance(width, bool)
        if not is_int or width < 1 or width % 2 == 0:
            raise ValueError(f"pool_width must be an odd integer >= 1, got {width!r}")
        if self.sink < 0:
            raise ValueError(f"sink must be >= 0, got {self.sink}")
        if self.kind == "Hybrid":
            if self.inner_a is None or self.inner_b is None or self.split is None:
                raise ValueError("Hybrid requires split, inner_a and inner_b")
            if self.split < 1:
                raise ValueError(f"Hybrid split must be >= 1, got {self.split}")
            if self.inner_a.kind == "Hybrid" or self.inner_b.kind == "Hybrid":
                raise ValueError("Hybrid specs cannot be nested")
        elif (self.split, self.inner_a, self.inner_b) != (None, None, None):
            raise ValueError("split, inner_a and inner_b are for Hybrid only")

    @property
    def name(self) -> str:
        if self.kind == "Hybrid":
            return f"Hybrid[{self.inner_a.kind}|{self.inner_b.kind}@{self.split}]"
        return self.kind


@dataclass(frozen=True)
class ScoreMatrices:
    """Synthetic one-head score source: a matrix per layer.

    `kvlab needle` reads one, and so do the sweep's needle columns.

    Every observe window reads the layer's matrix, a read-only float32
    ndarray, as given.  ``memo`` is this source's, as a `PrefillTrace`'s is.
    """

    mats: tuple[np.ndarray, ...]
    n_heads: ClassVar[int] = 1
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_layers(self) -> int:
        return len(self.mats)

    @property
    def seq_len(self) -> int:
        return self.mats[0].shape[1]


def chunk_scores(a: np.ndarray, c: int) -> np.ndarray:
    """Float64 sums of all observe rows' scores over chunk i = [i*c, min(i*c + c, T)).

    At c = 1, reduceat over one-position chunks returns the column sums bit for bit.
    """
    if c < 1:
        raise ValueError("chunk size must be >= 1")
    t = a.shape[1]
    col_sums = a.sum(axis=0, dtype=np.float64)
    if t == 0:  # no chunks, and np.arange(0, 0, 0) raises
        return col_sums
    return np.add.reduceat(col_sums, np.arange(0, t, min(c, t)))  # c > T: the whole prompt


def chunk_order(a: np.ndarray, c: int) -> np.ndarray:
    """a's chunk indices by descending `chunk_scores`, ties toward the earlier: its ranking."""
    return np.argsort(-chunk_scores(a, c), kind="stable")


def chunkkv_from_scores(
    a: np.ndarray, c: int, w: int, max_len: int, order: Optional[np.ndarray] = None
) -> KeptIndices:
    """The top (max_len - w) // c chunks of a, ties toward the earlier, plus the last w.

    T is a's width, and a budget that covers T keeps the whole prompt.  order
    is a's `chunk_order` at c when the caller already holds it: `compress_layer`
    keeps it in the source's memo under ("ranking", layer, scoring rule),
    beside the kept sets `run_with_reuse` keeps there under ("kept", layer, spec).
    """
    t = a.shape[1]
    if w > max_len:
        raise ValueError("observe window exceeds budget")
    if max_len >= t:
        return KeptIndices.from_iterable(range(t))
    order = chunk_order(a, c) if order is None else order
    chosen = np.zeros(len(order), dtype=bool)
    chosen[order[: (max_len - w) // c]] = True
    kept = chosen.repeat(min(c, t))[:t]  # c > T: one chunk of the whole prompt
    kept[t - w :] = True
    return KeptIndices.from_iterable(kept.nonzero()[0].tolist())


def topk_from_scores(
    col_scores: np.ndarray, w: int, max_len: int, order: Optional[np.ndarray] = None
) -> KeptIndices:
    """Token-level top-k over per-position scores, unioned with the last w: one-position chunks."""
    return chunkkv_from_scores(np.asarray(col_scores)[None], 1, w, max_len, order)


def streaming_compress(t_k: int, sink: int, max_len: int) -> KeptIndices:
    """The first sink of t_k positions plus the most recent max_len - sink: top-k on a sink mask."""
    return topk_from_scores(np.arange(t_k) < sink, max_len - sink, max_len)


def positional_exposure(t_k: int) -> np.ndarray:
    """Column mass each position would accumulate under uniform causal attention.

    Position j is visible to queries j..T-1; a uniform row i spreads 1/(i+1)
    over its visible columns, so the expectation at j is sum_{i>=j} 1/(i+1).
    """
    harmonic = 1.0 / np.arange(1, t_k + 1, dtype=np.float64)
    return np.cumsum(harmonic[::-1])[::-1]


def h2o_scores(col_mass: np.ndarray, normalize: str = "exposure") -> np.ndarray:
    """Heavy-hitter scores from attention column mass, one row per head.

    col_mass holds each head's column sums of its full causal attention
    matrix (last axis: positions).  Plain column sums are structurally
    dominated by early positions (they are visible to every query);
    'exposure' divides by the uniform-attention expectation so content, not
    position, ranks tokens.
    """
    if normalize == "exposure":
        return col_mass / positional_exposure(col_mass.shape[-1])
    return col_mass


def max_pool_1d(x: np.ndarray, width: int) -> np.ndarray:
    """Centered 1-D max pool; width must be odd.

    Windows are clipped at both ends: one sliding-window max over a copy
    padded with -inf.  Max is exact, so every value equals the per-window
    maximum, except that a window whose maximum is zero may come out as
    -0.0 where another reduction order gives +0.0.  The stable top-k ranks
    the two zeros as equal, so kept sets do not depend on it.
    """
    if width < 1 or width % 2 == 0:
        raise ValueError("pool width must be odd and >= 1")
    x = np.asarray(x, dtype=np.float64)
    if width == 1 or x.size == 0:
        return x
    half = min(width // 2, len(x) - 1)  # a wider window covers no other position
    padded = np.full(len(x) + 2 * half, -np.inf)
    padded[half : half + len(x)] = x
    return np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1).max(axis=1)


def pyramid_budgets(
    total_budget_per_layer: int, n_layers: int, skew: float, min_budget: int = 1
) -> list[int]:
    """Linearly decaying per-layer budgets summing exactly to n_layers * b.

    Layer 0 targets (1 + skew) * b, the last layer (1 - skew) * b; integer
    rounding uses largest-remainder correction so the total is preserved.
    """
    if not (0.0 <= skew < 1.0):
        raise ValueError("skew must be in [0, 1)")
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    b = total_budget_per_layer
    if n_layers == 1:
        ideal = [float(b)]
    else:
        ideal = [
            b * (1.0 + skew - 2.0 * skew * l / (n_layers - 1))
            for l in range(n_layers)
        ]
    floors = [int(math.floor(x)) for x in ideal]
    remainder = n_layers * b - sum(floors)
    # hand out the leftover units to the largest fractional parts, earlier
    # layers first on ties
    fracs = sorted(
        range(n_layers), key=lambda l: (-(ideal[l] - floors[l]), l)
    )
    budgets = list(floors)
    for l in fracs[:remainder]:
        budgets[l] += 1
    if min(budgets) < min_budget:
        raise ValueError(f"pyramid skew leaves a layer below the minimum budget {min_budget}")
    return budgets


def resolved_layer_budgets(spec: PolicySpec, n_layers: int, t_k: int) -> list[int]:
    """Per-layer budgets after ratio resolution and pyramid skew: the one budget rule.

    A range error is a ValueError that starts with the PolicySpec field at
    fault (`budget`, `skew` or `sink`), behind `inner_a.` or `inner_b.` for
    a Hybrid's inner policy.
    """
    if spec.kind == "Hybrid":
        inner = []
        for field in ("inner_a", "inner_b"):
            try:
                inner.append(resolved_layer_budgets(getattr(spec, field), n_layers, t_k))
            except ValueError as e:
                raise ValueError(f"{field}.{e}") from e
        return inner[0][: spec.split] + inner[1][spec.split :]
    floor = spec.budget.w + spec.budget.c
    try:
        base = spec.budget.resolve(t_k)
        if spec.kind == "PyramidStyle" and base >= floor:
            try:
                return pyramid_budgets(base, n_layers, spec.skew, min_budget=floor)
            except ValueError as e:
                raise ValueError(f"skew {spec.skew}: {e}") from e
    except OverflowError as e:  # a prompt length or budget too large for float arithmetic
        raise ValueError(f"budget: {e}") from e
    if spec.kind == "PyramidStyle":  # below w + c before any skew: a max_len, never a ratio
        raise ValueError(f"budget: max_len {base} is below the minimum budget w + c = {floor}")
    if spec.kind == "StreamingStyle" and spec.sink > base:
        raise ValueError(f"sink {spec.sink} exceeds the budget {base} resolved")
    return [base] * n_layers


def _selecting(specs) -> list[PolicySpec]:
    """The specs that select: each spec, or a Hybrid's two inner policies."""
    return [s for p in specs for s in ((p.inner_a, p.inner_b) if p.kind == "Hybrid" else (p,))]


def observe_rows(specs) -> int:
    """Observe rows the specs read from a trace: the widest w of a row reader, else 0.

    ChunkKV, SnapKVStyle and PyramidStyle read rows, also as a Hybrid's inner
    policy (the Hybrid's own w counts for nothing); the other kinds read none.
    """
    readers = ("ChunkKV", "SnapKVStyle", "PyramidStyle")
    return max((s.budget.w for s in _selecting(specs) if s.kind in readers), default=0)


def reads_col_mass(specs) -> bool:
    """Whether the specs read a trace's col_mass: an H2OStyle, also as a Hybrid's inner policy."""
    return any(s.kind == "H2OStyle" for s in _selecting(specs))


def _scores(source: PrefillTrace | ScoreMatrices, layer: int, head: int, w: int) -> np.ndarray:
    """The score rows a policy reads for one (layer, head) of a source.

    A trace gives the last w (none at w = 0) of the softmax observe rows it kept.
    """
    if isinstance(source, ScoreMatrices):
        return source.mats[layer]
    rows = source.observe_probs[layer][head]
    if w > len(rows):
        raise ValueError(f"observe window w={w} exceeds the {len(rows)} observe rows prefill kept")
    return rows[len(rows) - w :]


def _scoring_rule(spec: PolicySpec) -> tuple:
    """What a selecting kind's ranking depends on: never the budget's size or ratio.

    SnapKVStyle and PyramidStyle share one rule; one-position rankers ignore c.
    """
    b = spec.budget
    if spec.kind == "ChunkKV":
        return ("ChunkKV", b.w, b.c, spec.head_pool)
    if spec.kind == "H2OStyle":
        return ("H2OStyle", spec.h2o_normalize, spec.head_pool)
    return ("SnapKVStyle", b.w, spec.pool_width, spec.head_pool)


def _rankings(
    source: PrefillTrace | ScoreMatrices, layer: int, spec: PolicySpec
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(scores, chunk_order) each budget cuts: one per head, or one pooled for head_pool.

    ChunkKV's scores are observe-window rows ranked by chunk; the other kinds'
    are one row of per-position scores, a (1, T) array ranked by position.
    """
    w = spec.budget.w
    if spec.kind == "H2OStyle":
        if isinstance(source, ScoreMatrices):
            # no causal mask shaped synthetic scores: every position is
            # equally exposed, so they rank by plain column sums
            scores = source.mats[layer].sum(axis=0, dtype=np.float64)[None]
        elif source.col_mass is None:
            raise ValueError("H2OStyle reads col_mass, which this trace was prefilled without")
        else:
            scores = h2o_scores(np.stack(source.col_mass[layer]), spec.h2o_normalize)
    else:
        scores = [_scores(source, layer, h, w) for h in range(source.n_heads)]
        if spec.kind != "ChunkKV":  # SnapKVStyle, PyramidStyle: observe-window column mass
            scores = [m.sum(axis=0, dtype=np.float64) for m in scores]
    if spec.head_pool:
        scores = [np.mean(scores, axis=0)]
    if spec.kind == "ChunkKV":
        return [(a, chunk_order(a, spec.budget.c)) for a in scores]
    if spec.kind != "H2OStyle":
        scores = [max_pool_1d(col, spec.pool_width) for col in scores]
    return [(col[None], chunk_order(col[None], 1)) for col in scores]


def compress_layer(
    source: PrefillTrace | ScoreMatrices, layer: int, spec: PolicySpec
) -> list[KeptIndices]:
    """Per-head kept-sets for one layer of a trace or synthetic score source.

    The one place a policy kind picks its budget and scoring rule.  Head-pooled
    specs select once from the mean of the heads' scores and give every head
    that set.  The layer's rankings are kept in source.memo under ("ranking",
    layer, scoring rule), and one `chunkkv_from_scores` call cuts each (at c = 1
    but for ChunkKV); `run_with_reuse` keeps kept sets under ("kept", layer, spec).
    """
    if spec.kind == "Hybrid":
        inner = spec.inner_a if layer < spec.split else spec.inner_b
        return compress_layer(source, layer, inner)
    t_k, n_heads = source.seq_len, source.n_heads
    max_len = resolved_layer_budgets(spec, source.n_layers, t_k)[layer]
    if spec.kind == "FullKV" or max_len >= t_k:
        return [KeptIndices.from_iterable(range(t_k))] * n_heads
    if spec.kind == "StreamingStyle":
        return [streaming_compress(t_k, spec.sink, max_len)] * n_heads
    key = ("ranking", layer, _scoring_rule(spec))
    ranked = source.memo.get(key)
    if ranked is None:
        ranked = source.memo[key] = _rankings(source, layer, spec)
    b = spec.budget
    c = b.c if spec.kind == "ChunkKV" else 1  # the other kinds rank one-position chunks
    kept = [chunkkv_from_scores(a, c, b.w, max_len, order) for a, order in ranked]
    return kept * n_heads if spec.head_pool else kept
