"""Oracle for the observe rows prefill keeps.

``observe_scores`` is a copy of the function policies used to recompute
their observe-window rows from a trace's Q and K, with the two numerics
wrappers it called, from before prefill kept those rows itself.  Prefill no
longer keeps Q, so the oracle takes the model and recomputes it (``head_q``).
"""

import math

import numpy as np

from kvlab.numerics import _causal_softmax, _mm_t

from conftest import head_q


def matmul_transposed(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Compute a @ b.T for a: m x d, b: n x d."""
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"inner dimension mismatch: {a.shape} vs {b.shape}")
    return _mm_t(a, b)


def causal_softmax_rows(scores: np.ndarray, query_offset: int) -> np.ndarray:
    """Row-wise softmax where row i may attend to columns <= query_offset + i.

    Masked entries become exactly zero; each row is max-stabilized and sums
    to 1 up to float32 rounding.
    """
    return _causal_softmax(scores, query_offset)


def observe_scores(
    model, trace, layer: int, head: int, w: int, mode: str = "softmax"
) -> np.ndarray:
    """Scaled attention scores of the last w queries against all keys."""
    t_q = trace.seq_len
    if w < 1 or w > t_q:
        raise ValueError(f"observe window w={w} outside [1, {t_q}]")
    q = head_q(model, trace, layer, head)
    k = trace.k[layer][head]
    scale = np.float32(1.0 / math.sqrt(trace.config.head_dim))
    raw = matmul_transposed(q[t_q - w :], k) * scale
    if mode == "raw":
        return raw
    if mode == "softmax":
        return causal_softmax_rows(raw, query_offset=t_q - w)
    raise ValueError(f"unknown score mode {mode!r}")
