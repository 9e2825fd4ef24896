"""Eviction policies behind one dispatch.

`compress_layer(source, layer, spec)` is the only place a policy kind picks
its scoring rule.  A source is either a `PrefillTrace`, whose scores are the
observe-window attention rows of each (layer, head), or `ScoreMatrices`, a
synthetic one-head source (needle prompts) that hands every policy the same
matrix per layer.

Chunk-based compression keeps whole contiguous chunks scored by summed
observe-window attention, always unioned with the most recent w positions
(mask semantics: the kept count may fall below the budget when selected
chunks overlap the recent window).  The baseline families are policy-level
stand-ins: sink+recent streaming, cumulative-score heavy hitters,
observe-window pooled top-k, layer-decaying budgets, and a depth-split
hybrid of two inner policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .cache import BudgetSpec, KeptIndices
from .model import PrefillTrace
from .numerics import TensorView, causal_softmax_rows, matmul_transposed

POLICY_KINDS = (
    "FullKV",
    "ChunkKV",
    "SnapKVStyle",
    "H2OStyle",
    "StreamingStyle",
    "PyramidStyle",
    "Hybrid",
)

SCORE_MODES = ("raw", "softmax")


@dataclass(frozen=True)
class PolicySpec:
    """Declarative description of one eviction policy."""

    kind: str
    budget: BudgetSpec
    score_mode: str = "softmax"
    pool_width: int = 1          # SnapKVStyle: odd 1-D max-pool width
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
        if self.score_mode not in SCORE_MODES:
            raise ValueError(f"unknown score mode {self.score_mode!r}")
        if self.h2o_normalize not in ("exposure", "none"):
            raise ValueError(f"unknown h2o_normalize {self.h2o_normalize!r}")
        width = self.pool_width
        is_int = isinstance(width, int) and not isinstance(width, bool)
        if not is_int or width < 1 or width % 2 == 0:
            raise ValueError(f"pool_width must be an odd integer >= 1, got {width!r}")
        if self.kind == "Hybrid":
            if self.inner_a is None or self.inner_b is None or self.split is None:
                raise ValueError("Hybrid requires split, inner_a and inner_b")
            if self.split < 1:
                raise ValueError(f"Hybrid split must be >= 1, got {self.split}")
            if self.inner_a.kind == "Hybrid" or self.inner_b.kind == "Hybrid":
                raise ValueError("Hybrid specs cannot be nested")

    @property
    def name(self) -> str:
        if self.kind == "Hybrid":
            return f"Hybrid[{self.inner_a.kind}|{self.inner_b.kind}@{self.split}]"
        return self.kind


@dataclass(frozen=True)
class ScoreMatrices:
    """Synthetic one-head score source (needle prompts): a matrix per layer.

    Every observe window and score mode reads the layer's matrix as given.
    """

    mats: tuple[TensorView, ...]
    n_heads: ClassVar[int] = 1

    @property
    def n_layers(self) -> int:
        return len(self.mats)

    @property
    def seq_len(self) -> int:
        return self.mats[0].cols


@dataclass(frozen=True)
class ChunkScoreTable:
    """Per-chunk summed attention scores plus the chunk tiling of [0, T)."""

    chunk_count: int
    scores: tuple[float, ...]
    boundaries: tuple[tuple[int, int], ...]


def chunk_boundaries(seq_len: int, c: int) -> tuple[tuple[int, int], ...]:
    if c < 1:
        raise ValueError("chunk size must be >= 1")
    return tuple(
        (start, min(start + c, seq_len)) for start in range(0, seq_len, c)
    )


def observe_scores(
    trace: PrefillTrace, layer: int, head: int, w: int, mode: str = "softmax"
) -> TensorView:
    """Scaled attention scores of the last w queries against all keys."""
    t_q = trace.seq_len
    if w < 1 or w > t_q:
        raise ValueError(f"observe window w={w} outside [1, {t_q}]")
    q = trace.q[layer][head]
    k = trace.k[layer][head]
    scale = np.float32(1.0 / math.sqrt(trace.config.head_dim))
    raw = TensorView(matmul_transposed(TensorView(q.data[t_q - w :]), k).data * scale)
    if mode == "raw":
        return raw
    if mode == "softmax":
        return causal_softmax_rows(raw, query_offset=t_q - w)
    raise ValueError(f"unknown score mode {mode!r}")


def chunk_scores(a: TensorView, c: int) -> ChunkScoreTable:
    """Sum scores over all observe rows within each chunk of c columns."""
    bounds = chunk_boundaries(a.cols, c)
    col_sums = a.data.sum(axis=0, dtype=np.float64)
    starts = [s for s, _ in bounds]
    sums = np.add.reduceat(col_sums, starts) if starts else np.zeros(0)
    return ChunkScoreTable(
        chunk_count=len(bounds),
        scores=tuple(float(s) for s in sums),
        boundaries=bounds,
    )


def _top_k_stable(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores; ties broken toward the earlier index."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    return np.sort(order[:k])


def select_chunks(table: ChunkScoreTable, k: int) -> tuple[int, ...]:
    """Top-k chunks by score, emitted in ascending chunk-index order."""
    if k < 0 or k > table.chunk_count:
        raise ValueError(f"k={k} outside [0, {table.chunk_count}]")
    return tuple(int(i) for i in _top_k_stable(np.asarray(table.scores), k))


def _recent_window(t_k: int, w: int) -> range:
    return range(max(t_k - w, 0), t_k)


def chunkkv_from_scores(
    a: TensorView, c: int, w: int, max_len: int, t_k: int
) -> KeptIndices:
    """Mask-based chunk compression over a precomputed score matrix."""
    if w > max_len:
        raise ValueError("observe window exceeds budget")
    if max_len >= t_k:
        return KeptIndices.from_iterable(range(t_k))
    table = chunk_scores(a, c)
    k = min((max_len - w) // c, table.chunk_count)
    kept = set(_recent_window(t_k, w))
    for ci in select_chunks(table, k):
        start, end = table.boundaries[ci]
        kept.update(range(start, end))
    return KeptIndices.from_iterable(kept)


def topk_from_scores(
    col_scores: np.ndarray, w: int, max_len: int, t_k: int
) -> KeptIndices:
    """Token-level top-k over per-position scores, unioned with the last w."""
    if w > max_len:
        raise ValueError("observe window exceeds budget")
    if max_len >= t_k:
        return KeptIndices.from_iterable(range(t_k))
    kept = set(_recent_window(t_k, w))
    top = _top_k_stable(np.asarray(col_scores, dtype=np.float64), max_len - w)
    kept.update(int(i) for i in top)
    return KeptIndices.from_iterable(kept)


def streaming_compress(t_k: int, spec: PolicySpec) -> KeptIndices:
    """Sink tokens plus a recent window, no scores consulted."""
    max_len = spec.budget.resolve(t_k)
    a = spec.sink
    if a > max_len:
        raise ValueError("sink count exceeds budget")
    if t_k <= max_len:
        return KeptIndices.from_iterable(range(t_k))
    kept = set(range(a)) | set(range(t_k - (max_len - a), t_k))
    return KeptIndices.from_iterable(kept)


def positional_exposure(t_k: int) -> np.ndarray:
    """Column mass each position would accumulate under uniform causal attention.

    Position j is visible to queries j..T-1; a uniform row i spreads 1/(i+1)
    over its visible columns, so the expectation at j is sum_{i>=j} 1/(i+1).
    """
    harmonic = 1.0 / np.arange(1, t_k + 1, dtype=np.float64)
    return np.cumsum(harmonic[::-1])[::-1]


def h2o_column_scores(full_softmax: np.ndarray, normalize: str = "exposure") -> np.ndarray:
    """Heavy-hitter scores from a full causal attention matrix.

    Plain column sums are structurally dominated by early positions (they
    are visible to every query); 'exposure' divides by the uniform-attention
    expectation so content, not position, ranks tokens.
    """
    col = full_softmax.sum(axis=0, dtype=np.float64)
    if normalize == "exposure":
        return col / positional_exposure(full_softmax.shape[1])
    return col


def max_pool_1d(x: np.ndarray, width: int) -> np.ndarray:
    """Centered 1-D max pool; width must be odd."""
    if width < 1 or width % 2 == 0:
        raise ValueError("pool width must be odd and >= 1")
    if width == 1:
        return np.asarray(x, dtype=np.float64)
    half = width // 2
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    return np.array(
        [x[max(i - half, 0) : min(i + half + 1, n)].max() for i in range(n)]
    )


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
        raise ValueError("pyramid skew leaves a layer below the minimum budget")
    return budgets


def resolved_layer_budgets(
    spec: PolicySpec, n_layers: int, t_k: int
) -> list[int]:
    """Per-layer budgets after ratio resolution and pyramid skew."""
    if spec.kind == "Hybrid":
        a = resolved_layer_budgets(spec.inner_a, n_layers, t_k)
        b = resolved_layer_budgets(spec.inner_b, n_layers, t_k)
        return a[: spec.split] + b[spec.split :]
    base = spec.budget.resolve(t_k)
    if spec.kind == "PyramidStyle":
        return pyramid_budgets(
            base, n_layers, spec.skew, min_budget=spec.budget.w + spec.budget.c
        )
    return [base] * n_layers


def _scores(
    source: PrefillTrace | ScoreMatrices, layer: int, head: int, w: int, mode: str
) -> TensorView:
    """The score rows a policy reads for one (layer, head) of a source."""
    if isinstance(source, ScoreMatrices):
        return source.mats[layer]
    if w == 0:
        return TensorView(np.zeros((1, source.seq_len), dtype=np.float32))
    return observe_scores(source, layer, head, w, mode)


def compress_layer(
    source: PrefillTrace | ScoreMatrices, layer: int, spec: PolicySpec
) -> list[KeptIndices]:
    """Per-head kept-sets for one layer of a trace or synthetic score source.

    The one place a policy kind picks its budget and scoring rule.  Head-pooled
    specs select once from the mean of the heads' scores and give every head
    that set.
    """
    if spec.kind == "Hybrid":
        inner = spec.inner_a if layer < spec.split else spec.inner_b
        return compress_layer(source, layer, inner)
    t_k, heads = source.seq_len, range(source.n_heads)
    if spec.kind == "StreamingStyle":
        return [streaming_compress(t_k, spec)] * len(heads)
    max_len = resolved_layer_budgets(spec, source.n_layers, t_k)[layer]
    if spec.kind == "FullKV" or max_len >= t_k:
        return [KeptIndices.from_iterable(range(t_k))] * len(heads)
    b = spec.budget
    if spec.kind == "H2OStyle":
        # synthetic scores have no causal mask, so every position is equally
        # exposed and exposure normalization would divide by 1
        normalize = "none" if isinstance(source, ScoreMatrices) else spec.h2o_normalize
        scores = [
            h2o_column_scores(_scores(source, layer, h, t_k, "softmax").data, normalize)
            for h in heads
        ]
        select = lambda col: topk_from_scores(col, b.w, max_len, t_k)
    else:
        mats = [_scores(source, layer, h, b.w, spec.score_mode).data for h in heads]
        if spec.kind == "ChunkKV":
            scores = mats
            select = lambda a: chunkkv_from_scores(TensorView(a), b.c, b.w, max_len, t_k)
        else:  # SnapKVStyle, PyramidStyle: max-pooled observe-window column mass
            scores = [m.sum(axis=0, dtype=np.float64) for m in mats]
            select = lambda col: topk_from_scores(
                max_pool_1d(col, spec.pool_width), b.w, max_len, t_k
            )
    if spec.head_pool:
        return [select(np.mean(scores, axis=0))] * len(heads)
    return [select(s) for s in scores]
