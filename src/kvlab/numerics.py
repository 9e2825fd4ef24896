"""Minimal deterministic dense linear algebra for the toy attention engine.

Everything is float32 and accumulation order is fixed (row-major,
left-to-right over the inner dimension), so results are bit-identical
across runs and match a naive triple-loop reference exactly.  BLAS is not
used: its blocked accumulation rounds differently.

Causal attention runs in row blocks (``model.prefill``): query rows
[r0, r1) see keys [0, r1) only, so a block's QK^T and softmax stop at
column r1 and the masked upper triangle is never computed.  The bits stay
those of the full T x T computation under one rule: each block's softmax is
written into a row buffer T columns wide whose tail is zero, and the row sum
spans all T columns.  numpy sums a row pairwise, and the pairwise tree
depends on the row length, so a sum over the r1 trimmed entries would round
differently.  P.V (``_causal_pv``) skips the masked terms outright: they are
exact zeros, and adding +-0 to an accumulator that starts at +0 and is never
-0 leaves it unchanged.

Because the sum spans T, an attention row depends on the prompt length in
its last bit: prefill of tokens[:-1] is not bit-equal to the first T-1 rows
of prefill of tokens (hidden states from layer 0, Q/K/V from layer 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TensorView:
    """Immutable row-major 2-D float32 matrix."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim != 2:
            raise ValueError(f"TensorView requires a 2-D array, got ndim={arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("TensorView entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @classmethod
    def from_rows(cls, rows) -> "TensorView":
        return cls(np.asarray(rows, dtype=np.float32).reshape(len(rows), -1))


def _mm_t(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T with float32 accumulation in fixed left-to-right inner order.

    Each output element accumulates products in increasing k, exactly like
    the scalar triple loop; the vectorization is over (i, j) only, which
    does not change per-element rounding.  b is transposed once so that
    each k reads a contiguous row, and one product buffer serves every k.
    """
    m, d = a.shape
    n = b.shape[0]
    bt = np.ascontiguousarray(b.T)
    out = np.zeros((m, n), dtype=np.float32)
    prod = np.empty_like(out)
    for k in range(d):
        np.multiply(a[:, k : k + 1], bt[k], out=prod)
        out += prod
    return out


def matmul_transposed(a: TensorView, b: TensorView) -> TensorView:
    """Compute a @ b.T for a: m x d, b: n x d."""
    if a.cols != b.cols:
        raise ValueError(
            f"inner dimension mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}"
        )
    return TensorView(_mm_t(a.data, b.data))


def _causal_softmax(
    scores: np.ndarray, query_offset: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Causal row softmax of a w x t score block; returns the w x t probabilities.

    ``out``, if given, is a float32 w x T row buffer with T >= t: the
    probabilities go into its first t columns, the rest are zeroed, and each
    row sum spans all T columns (see the module docstring).
    """
    w, t = scores.shape
    if query_offset < 0:
        raise ValueError("query_offset must be non-negative")
    if t == 0 or query_offset >= t + w:
        raise ValueError("mask leaves an empty row")
    cols = np.arange(t)[None, :]
    rows = np.arange(w)[:, None]
    allowed = cols <= query_offset + rows
    if not allowed.any(axis=1).all():
        raise ValueError("mask leaves an empty row")
    if out is None:
        out = np.empty((w, t), dtype=np.float32)
    x = np.where(allowed, scores, -np.inf).astype(np.float32, copy=False)
    x -= x.max(axis=1, keepdims=True)
    probs = out[:, :t]
    np.exp(x, out=probs)  # masked entries: exp(-inf) is exactly +0
    out[:, t:] = 0.0
    probs /= out.sum(axis=1, keepdims=True)
    return probs


def _causal_pv(probs: np.ndarray, v: np.ndarray, query_offset: int) -> np.ndarray:
    """probs @ v for causal probabilities (row i is zero past query_offset + i).

    Each output row accumulates probs[i, k] * v[k] in increasing k, as
    ``_mm_t(probs, v.T)`` does, but only over the rows that column k may
    reach; the skipped terms are the mask's exact zeros.
    """
    w, t = probs.shape
    out = np.zeros((w, v.shape[1]), dtype=np.float32)
    prod = np.empty_like(out)
    for k in range(min(t, query_offset + w)):
        i0 = max(0, k - query_offset)
        np.multiply(probs[i0:, k : k + 1], v[k], out=prod[i0:])
        out[i0:] += prod[i0:]
    return out


def causal_softmax_rows(scores: TensorView, query_offset: int) -> TensorView:
    """Row-wise softmax where row i may attend to columns <= query_offset + i.

    Masked entries become exactly zero; each row is max-stabilized and sums
    to 1 up to float32 rounding.
    """
    return TensorView(_causal_softmax(scores.data, query_offset))
