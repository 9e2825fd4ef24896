"""Layer-wise index reuse, cross-layer index similarity, and the reuse
speedup model.

Compression runs only on anchor layers (l mod n_reuse == 0); every other
layer copies its anchor's per-head index sets, head h reusing head h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import KeptIndices
from .model import PrefillTrace
from .policies import PolicySpec, ScoreMatrices, compress_layer


@dataclass(frozen=True)
class ReusePlan:
    n_layers: int
    n_reuse: int

    def __post_init__(self):
        if not (1 <= self.n_reuse <= self.n_layers):
            raise ValueError("need 1 <= n_reuse <= n_layers")

    def anchor(self, layer: int) -> int:
        return (layer // self.n_reuse) * self.n_reuse


def jaccard(a: KeptIndices, b: KeptIndices) -> float:
    """|a n b| / |a u b|; 1.0 when both sets are empty."""
    sa, sb = a.as_set(), b.as_set()
    union = sa | sb
    if not union:
        return 1.0
    return len(sa & sb) / len(union)


def run_with_reuse(
    source: PrefillTrace | ScoreMatrices, spec: PolicySpec, plan: ReusePlan
) -> list[list[KeptIndices]]:
    """Compress anchor layers fresh; all other layers copy their anchor.

    n_reuse=1 compresses every layer independently.
    """
    if plan.n_layers != source.n_layers:
        raise ValueError("reuse plan layer count does not match source")
    out: list[list[KeptIndices]] = []
    for l in range(source.n_layers):
        if l % plan.n_reuse == 0:
            out.append(compress_layer(source, l, spec))
        else:
            out.append(list(out[plan.anchor(l)]))
    return out


def adjacent_similarity(per_layer: list[KeptIndices]) -> float:
    """Mean Jaccard similarity of consecutive layers' kept-index sets."""
    if len(per_layer) < 2:
        raise ValueError("need at least 2 layers")
    sims = [jaccard(per_layer[l], per_layer[l + 1]) for l in range(len(per_layer) - 1)]
    return float(np.mean(sims))


def similarity_matrix(per_layer: list[KeptIndices]) -> tuple[tuple[float, ...], ...]:
    """Jaccard similarity of every pair of layers' kept sets, row by row."""
    if not per_layer:
        raise ValueError("need at least 1 layer")
    return tuple(tuple(jaccard(a, b) for b in per_layer) for a in per_layer)


def modeled_micros(n_layers: int, n_reuse: int, t_compress: float, t_select: float) -> float:
    """Compression cost: t_compress per anchor layer (l mod n_reuse == 0), else t_select."""
    anchors = len(range(0, n_layers, n_reuse))
    return anchors * t_compress + (n_layers - anchors) * t_select


def speedup_estimate(n_layers: int, n_reuse: int, t_compress: float, t_select: float) -> float:
    """Analytic compression-phase speedup from reusing indices.

    modeled_micros without reuse (n_reuse 1) over modeled_micros at n_reuse,
    so a non-dividing n_reuse counts its anchor layers as run_with_reuse does.
    """
    if t_compress <= 0 or t_select < 0:
        raise ValueError("need t_compress > 0 and t_select >= 0")
    denom = modeled_micros(n_layers, n_reuse, t_compress, t_select)
    if denom == 0:
        raise ValueError("zero denominator in speedup estimate")
    return modeled_micros(n_layers, 1, t_compress, t_select) / denom
