"""Oracle for the observe rows prefill keeps.

``observe_scores`` is a copy of the function policies used to recompute
their observe-window rows from a trace's Q and K, with the two numerics
wrappers it called, from before prefill kept those rows itself.  Prefill no
longer keeps Q, so the oracle takes the model and recomputes it (``head_q``).
"""

import math

import numpy as np

from kvlab.numerics import TensorView, _causal_softmax, _mm_t

from conftest import head_q


def matmul_transposed(a: TensorView, b: TensorView) -> TensorView:
    """Compute a @ b.T for a: m x d, b: n x d."""
    if a.cols != b.cols:
        raise ValueError(
            f"inner dimension mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}"
        )
    return TensorView(_mm_t(a.data, b.data))


def causal_softmax_rows(scores: TensorView, query_offset: int) -> TensorView:
    """Row-wise softmax where row i may attend to columns <= query_offset + i.

    Masked entries become exactly zero; each row is max-stabilized and sums
    to 1 up to float32 rounding.
    """
    return TensorView(_causal_softmax(scores.data, query_offset))


def observe_scores(
    model, trace, layer: int, head: int, w: int, mode: str = "softmax"
) -> TensorView:
    """Scaled attention scores of the last w queries against all keys."""
    t_q = trace.seq_len
    if w < 1 or w > t_q:
        raise ValueError(f"observe window w={w} outside [1, {t_q}]")
    q = TensorView(head_q(model, trace, layer, head))
    k = trace.k[layer][head]
    scale = np.float32(1.0 / math.sqrt(trace.config.head_dim))
    raw = TensorView(matmul_transposed(TensorView(q.data[t_q - w :]), k).data * scale)
    if mode == "raw":
        return raw
    if mode == "softmax":
        return causal_softmax_rows(raw, query_offset=t_q - w)
    raise ValueError(f"unknown score mode {mode!r}")
