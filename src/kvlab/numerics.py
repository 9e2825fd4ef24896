"""Minimal deterministic dense linear algebra for the toy attention engine.

Contractions are float32 and add in a fixed order (row-major, left to right
over the inner dimension), so they are bit-identical across runs and match a
naive triple-loop reference exactly; softmax row sums are numpy's pairwise
sums over T (below).  BLAS is not used: its blocked accumulation rounds
differently.  The kernels take and return plain 2-D ndarrays; every array
kvlab passes between modules is one, made read-only by ``_frozen``.

Every product sum is one ``np.einsum("ki,kj->ij", xt, yt)`` on k-major
operands (``_contract``), with einsum's default ``optimize=False``, so numpy
runs its own loops and never reaches BLAS.  The output has stride 0 along
the summed index k, and it and yt are C-ordered, so numpy's iterator puts j
innermost: the inner loop is ``out[i, :] += xt[k, i] * yt[k, :]``, and each
output element adds its products in increasing k, one float32 product and
one float32 add at a time, as the triple loop does, whichever way round xt
is (``model._forward`` passes ``W.T`` of an (out, in) weight; x * w == w * x
exactly).  With one output column, a C-ordered xt puts i innermost; a
one-entry output, whose only loop einsum would sum in SIMD partial sums,
gets an explicit loop over k.  Every sum starts at +0, and a float32 sum is
-0 only if both addends are, so a sum never becomes -0 and the sign of a
zero product never shows.

Precondition: these bits hold only where numpy's einsum inner loop
multiplies and then adds, rounding twice.  A numpy built with fused
multiply-add into its einsum loops (an x86-64-v3 baseline, say) rounds once
and gives other bits.  numpy 2.4.6 built for x86-64 with ``__cpu_baseline__``
X86_V2, which has no FMA, meets it.  On a build that fuses,
``test_contraction_does_not_fuse_multiply_add`` in ``tests/test_numerics.py``
fails by name.

Causal attention runs in row blocks (``model._forward``; offsets below are
for prefill's empty cache, and P cached keys shift them by P): query rows
[r0, r1) see keys [0, r1) only, so a block's QK^T and softmax stop at
column r1 and the masked upper triangle is never computed.  The softmax
runs in place on the C-ordered r1-wide score block ``_contract`` returns:
the mask (one ``np.copyto`` through a cached read-only triangle), the max,
the subtract, the exp and the divide.  The bits stay those of the full
T x T computation under one rule: each row sum spans T columns.  The
block's exponentials are copied into a T-wide row buffer whose last T - r1
columns are zero, and the rows are summed there.  numpy sums a row
pairwise, and the pairwise tree depends on the row length, so a sum over
the r1 trimmed entries would round differently.  P.V (``_causal_pv``) runs
on one block's rows right after their softmax, as one contraction over
keys [0, r1).  It adds the masked terms too: they are exact zeros, and by
the rule above adding +-0 leaves every sum unchanged, so one contraction
serves all rows of the block.

The last row block is the observe tail, the last n query rows: its r1 is T,
so its QK^T covers every key, its row sums need no buffer, and prefill
keeps its softmax rows as the policies' observe-window scores.
``model._forward`` is the one layer routine: prefill and decode_step both
run it, and nothing else computes QK^T or softmax.  Prefill stops its last
layer there: that layer's K, V and kept softmax rows are all it keeps, so
it runs no P.V, output projection or feed-forward block, and keeps no
hidden states.

Because the sum spans T, an attention row depends on the prompt length in
its last bit: prefill of tokens[:-1] is not bit-equal to the first T-1 rows
of prefill of tokens (hidden states from layer 0, Q/K/V from layer 1).
"""

from __future__ import annotations

import functools

import numpy as np


def check_seed(seed: int) -> None:
    """Raise ValueError unless seed is a Philox key, an integer in [0, 2**128)."""
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")


def _frozen(a: np.ndarray) -> np.ndarray:
    """a as a C-contiguous array (a copy only if it is not one), marked read-only."""
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _contract(xt: np.ndarray, yt: np.ndarray) -> np.ndarray:
    """out[i, j] = sum of xt[k, i] * yt[k, j] over k, added in increasing k.

    Precondition: yt is C-ordered, so j is einsum's inner loop (the module
    docstring says why); an F-ordered yt, as ``np.concatenate`` of transposed
    arrays returns, moves k inward.  One output column runs on a C-ordered
    xt, and one output entry on its own loop over k.
    """
    if yt.shape[1] > 1:
        return np.einsum("ki,kj->ij", xt, yt)
    if xt.shape[1] > 1:
        return np.einsum("ki,kj->ij", np.ascontiguousarray(xt), yt)
    out = np.zeros((1, 1), dtype=np.float32)
    for x, y in zip(xt, yt):
        out += x * y
    return out


def _mm_t(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T with float32 accumulation in fixed left-to-right inner order.

    Each output element accumulates products in increasing k, exactly like
    the scalar triple loop.  a and b are transposed once into k-major
    contiguous copies, so that each k reads two contiguous rows.
    """
    return _contract(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T))


@functools.lru_cache(maxsize=8)
def _upper_triangle(w: int, m: int) -> np.ndarray:
    """Read-only w x m mask, True where column j >= row i."""
    return _frozen(np.arange(m) >= np.arange(w)[:, None])


def _causal_softmax(
    scores: np.ndarray, query_offset: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Causal row softmax of a w x t score block, in place; returns ``scores``.

    The mask, max, subtract, exp and divide all run on ``scores`` itself, C
    ordered as ``_contract`` returns it (numpy runs them about twice as fast
    there as on a strided view).  ``out``, if given, is a float32 w x T row
    buffer with T >= t: the exponentials are copied into its first t columns
    and the rest are zeroed, so that each row sum spans all T columns (see
    the module docstring); it holds no probabilities afterwards.
    """
    w, t = scores.shape
    if query_offset < 0:
        raise ValueError("query_offset must be non-negative")
    if t == 0 or query_offset >= t + w:
        raise ValueError("mask leaves an empty row")
    # row i sees keys [0, query_offset + i]: -inf over the strictly upper triangle
    upper = scores[:, query_offset + 1 :]
    np.copyto(upper, -np.inf, where=_upper_triangle(*upper.shape))
    scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)  # masked entries: exp(-inf) is exactly +0
    if out is None:
        sums = scores.sum(axis=1, keepdims=True)
    else:
        out[:, :t] = scores
        out[:, t:] = 0.0
        sums = out.sum(axis=1, keepdims=True)
    scores /= sums
    return scores


def _causal_pv(probs: np.ndarray, v: np.ndarray, query_offset: int) -> np.ndarray:
    """probs @ v for causal probabilities (row i is zero past query_offset + i).

    Each output element accumulates probs[i, k] * v[k] in increasing k, as
    ``_mm_t(probs, v.T)`` does, up to the block's last visible key.  The
    products of masked entries are exact zeros (see the module docstring),
    so one contraction serves every row of the block.  Returns the transpose
    of a C-ordered (head_dim, rows) array.
    """
    w, t = probs.shape
    kend = min(t, query_offset + w)
    return _contract(v[:kend], np.ascontiguousarray(probs[:, :kend].T)).T
