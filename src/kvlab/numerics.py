"""Minimal deterministic dense linear algebra for the toy attention engine.

Everything is float32 and accumulation order is fixed (row-major,
left-to-right over the inner dimension), so results are bit-identical
across runs and match a naive triple-loop reference exactly.  BLAS is not
used: its blocked accumulation rounds differently.

Products are formed by ``np.einsum`` without a summed index ("i,j->ij",
"kd,ki->kdi"): each output is one float32 product, the same bits as a
broadcast multiply, except that a zero product may come out +0 where the
multiply gives -0.  Every sum starts at +0, and a float32 sum is -0 only if
both addends are, so a sum never becomes -0 and the sign of a zero addend
never shows.  einsum writes these products up to twice as fast as numpy's
broadcast multiply (0.3-0.6 against 0.5-1.2 ns per element on a 2-core
Xeon).

Causal attention runs in row blocks (``model._forward``; offsets below are
for prefill's empty cache, and P cached keys shift them by P): query rows
[r0, r1) see keys [0, r1) only, so a block's QK^T and softmax stop at
column r1 and the masked upper triangle is never computed.  The bits stay
those of the full T x T computation under one rule: each block's softmax is
written into a row buffer T columns wide whose tail is zero, and the row sum
spans all T columns.  numpy sums a row pairwise, and the pairwise tree
depends on the row length, so a sum over the r1 trimmed entries would round
differently.  P.V (``_causal_pv``) runs on one block's rows right after
their softmax, over keys [0, r1) in tiles of KEY_TILE.  Within a tile it
adds the masked terms too: they are exact zeros, and by the rule above
adding +-0 leaves every sum unchanged, so one tile serves all rows of the
block.

The last row block is the observe tail, the last n query rows: its r1 is T,
so its QK^T covers every key and prefill keeps its raw and softmax rows as
the policies' observe-window scores.  ``model._forward`` is the one layer
routine: prefill and decode_step both run it, and nothing else computes
QK^T or softmax.

Because the sum spans T, an attention row depends on the prompt length in
its last bit: prefill of tokens[:-1] is not bit-equal to the first T-1 rows
of prefill of tokens (hidden states from layer 0, Q/K/V from layer 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Keys per tile of P.V (``_causal_pv``): each tile's products are formed in
# one einsum and added in key order by one reduce.
KEY_TILE = 32


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


def check_seed(seed: int) -> None:
    """Raise ValueError unless seed is a Philox key, an integer in [0, 2**128)."""
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")


def _mm_t(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T with float32 accumulation in fixed left-to-right inner order.

    Each output element accumulates products in increasing k, exactly like
    the scalar triple loop; the vectorization is over (i, j) only, which
    does not change per-element rounding.  a and b are transposed once so
    that each k reads two contiguous rows, whose rank-1 products one einsum
    writes into a product buffer that serves every k.
    """
    m, d = a.shape
    n = b.shape[0]
    at = np.ascontiguousarray(a.T)
    bt = np.ascontiguousarray(b.T)
    out = np.zeros((m, n), dtype=np.float32)
    prod = np.empty_like(out)
    for k in range(d):
        np.einsum("i,j->ij", at[k], bt[k], out=prod)
        out += prod
    return out


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

    Each output element accumulates probs[i, k] * v[k] in increasing k, as
    ``_mm_t(probs, v.T)`` does, up to the block's last visible key.  Keys go
    in tiles of KEY_TILE: slot 0 of a (tile + 1, d, w) buffer holds the
    running sum, one einsum writes the tile's products into the other slots,
    and one reduce over slot order adds them key by key.  The products of
    masked entries are exact zeros (see the module docstring).
    """
    w, t = probs.shape
    d = v.shape[1]
    kend = min(t, query_offset + w)
    if w * d == 1:
        # A (tile + 1, 1, 1) buffer reduces along its one contiguous axis,
        # which numpy sums pairwise: keep the per-key loop for this shape
        # (head_dim 1 with a one-row block, or decode at head_dim 1).
        out = np.zeros((1, 1), dtype=np.float32)
        for k in range(kend):
            out += probs[:, k : k + 1] * v[k]
        return out
    pt = np.ascontiguousarray(probs[:, :kend].T)
    buf = np.zeros((KEY_TILE + 1, d, w), dtype=np.float32)
    acc = np.zeros((d, w), dtype=np.float32)
    for k0 in range(0, kend, KEY_TILE):
        k1 = min(k0 + KEY_TILE, kend)
        tile = buf[: k1 - k0 + 1]
        np.einsum("kd,ki->kdi", v[k0:k1], pt[k0:k1], out=tile[1:])
        np.add.reduce(tile, axis=0, out=acc)
        buf[0] = acc
    return acc.T
