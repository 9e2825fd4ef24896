import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvlab.model import ROW_BLOCK
from kvlab.numerics import (
    TensorView,
    _causal_pv,
    _causal_softmax,
    _mm_t,
    causal_softmax_rows,
    matmul_transposed,
)


def naive_matmul_transposed(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scalar triple-loop reference with float32 accumulation."""
    m, d = a.shape
    n = b.shape[0]
    out = np.zeros((m, n), dtype=np.float32)
    for i in range(m):
        for j in range(n):
            acc = np.float32(0.0)
            for k in range(d):
                acc = np.float32(acc + np.float32(a[i, k] * b[j, k]))
            out[i, j] = acc
    return out


def test_identity_rows_select_columns():
    a = TensorView.from_rows([[1, 0], [0, 1]])
    b = TensorView.from_rows([[3, 4], [5, 6]])
    out = matmul_transposed(a, b)
    assert out.data.tolist() == [[3.0, 5.0], [4.0, 6.0]]


def test_scalar_product():
    out = matmul_transposed(TensorView.from_rows([[2]]), TensorView.from_rows([[3]]))
    assert out.data.tolist() == [[6.0]]


def test_matches_triple_loop_bit_exactly():
    rng = np.random.Generator(np.random.Philox(key=42))
    a = rng.normal(size=(4, 8)).astype(np.float32)
    b = rng.normal(size=(6, 8)).astype(np.float32)
    got = matmul_transposed(TensorView(a), TensorView(b)).data
    want = naive_matmul_transposed(a, b)
    assert np.array_equal(got, want)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        matmul_transposed(TensorView.from_rows([[1, 2]]), TensorView.from_rows([[1, 2, 3]]))


@given(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=0, max_value=1000),
)
def test_bilinear_power_of_two_scaling(exp, seed):
    s = np.float32(2.0**exp)
    rng = np.random.Generator(np.random.Philox(key=seed))
    a = rng.normal(size=(3, 5)).astype(np.float32)
    b = rng.normal(size=(4, 5)).astype(np.float32)
    base = matmul_transposed(TensorView(a), TensorView(b)).data
    scaled = matmul_transposed(TensorView(a * s), TensorView(b)).data
    assert np.array_equal(scaled, base * s)


def test_softmax_uniform_row():
    out = causal_softmax_rows(TensorView.from_rows([[0, 0, 0]]), query_offset=2)
    assert np.allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-6)


def test_softmax_single_unmasked_entry():
    out = causal_softmax_rows(TensorView.from_rows([[5.0, 99.0]]), query_offset=0)
    assert out.data.tolist() == [[1.0, 0.0]]


def test_softmax_exp_normalize_values():
    # independent exp-normalize oracle in python floats
    xs = [1.0, 2.0, 3.0]
    es = [math.exp(x - max(xs)) for x in xs]
    want = [e / sum(es) for e in es]
    out = causal_softmax_rows(TensorView.from_rows([xs]), query_offset=2)
    assert np.allclose(out.data[0], want, atol=1e-4)
    assert np.allclose(out.data[0], [0.09003, 0.24473, 0.66524], atol=1e-4)


def test_softmax_causal_masking_zeroes_future():
    out = causal_softmax_rows(TensorView.from_rows([[1, 2, 3], [1, 2, 3]]), query_offset=1)
    assert out.data[0, 2] == 0.0
    assert out.data[1, 2] > 0.0


def test_softmax_empty_row_raises():
    with pytest.raises(ValueError):
        causal_softmax_rows(TensorView.from_rows([[1.0]]), query_offset=-1)


@settings(max_examples=50)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=1000),
)
def test_softmax_rows_sum_to_one(w, seed):
    t = w + 3
    rng = np.random.Generator(np.random.Philox(key=seed))
    scores = TensorView(rng.normal(size=(w, t)).astype(np.float32) * 3)
    out = causal_softmax_rows(scores, query_offset=t - w).data
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-5)


def test_determinism_bit_identical():
    rng = np.random.Generator(np.random.Philox(key=7))
    a = rng.normal(size=(5, 9)).astype(np.float32)
    b = rng.normal(size=(7, 9)).astype(np.float32)
    r1 = matmul_transposed(TensorView(a), TensorView(b)).data
    r2 = matmul_transposed(TensorView(a.copy()), TensorView(b.copy())).data
    assert np.array_equal(r1, r2)


def test_tensorview_rejects_nonfinite_and_bad_shape():
    with pytest.raises(ValueError):
        TensorView(np.array([[np.nan]], dtype=np.float32))
    with pytest.raises(ValueError):
        TensorView(np.zeros(3, dtype=np.float32))


# Oracles: the unblocked kernels as they were before prefill attention moved
# to causal row blocks, copied verbatim.


def _oracle_mm_t(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, d = a.shape
    n = b.shape[0]
    out = np.zeros((m, n), dtype=np.float32)
    for k in range(d):
        out += a[:, k : k + 1] * b[:, k][None, :]
    return out


def _oracle_causal_softmax(scores: np.ndarray, query_offset: int) -> np.ndarray:
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
    x = np.where(allowed, scores, -np.inf).astype(np.float32)
    x -= x.max(axis=1, keepdims=True)
    e = np.where(allowed, np.exp(x), 0.0).astype(np.float32)
    return (e / e.sum(axis=1, keepdims=True)).astype(np.float32)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=3 * ROW_BLOCK + 5),
    st.data(),
    st.sampled_from([1.0, 4.0, 40.0]),  # 40 underflows some allowed probabilities to 0
    st.integers(min_value=0, max_value=1000),
)
def test_blocked_softmax_and_causal_pv_match_unblocked_oracle(t, data, spread, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    scores = (rng.normal(size=(t, t)) * spread).astype(np.float32)
    v = rng.normal(size=(t, 16)).astype(np.float32)
    want = _oracle_causal_softmax(scores, query_offset=0)

    # one row block [r0, r1), written into a T-wide row buffer full of garbage
    r0 = data.draw(st.integers(min_value=0, max_value=t - 1), label="block start")
    r1 = min(r0 + ROW_BLOCK, t)
    buf = np.full((r1 - r0, t), np.nan, dtype=np.float32)
    got = _causal_softmax(scores[r0:r1, :r1], query_offset=r0, out=buf)
    assert np.array_equal(got, want[r0:r1, :r1])
    assert np.array_equal(buf, want[r0:r1])

    # every block, as prefill assembles them, then the triangular P.V
    probs = np.empty((t, t), dtype=np.float32)
    for b0 in range(0, t, ROW_BLOCK):
        b1 = min(b0 + ROW_BLOCK, t)
        _causal_softmax(scores[b0:b1, :b1], query_offset=b0, out=probs[b0:b1])
    assert np.array_equal(probs, want)
    assert np.array_equal(_causal_pv(probs, v, query_offset=0), _oracle_mm_t(want, v.T))

    # the one-row decode case: the newest query sees every cached position
    row = scores[-1:]
    want_row = _oracle_causal_softmax(row, query_offset=t - 1)
    got_row = _causal_softmax(row, query_offset=t - 1)
    assert np.array_equal(got_row, want_row)
    assert np.array_equal(
        _causal_pv(got_row, v, query_offset=t - 1), _oracle_mm_t(want_row, v.T)
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.data(), st.integers(min_value=0, max_value=1000))
def test_mm_t_matches_oracle_on_strided_views(m, data, seed):
    # prefill passes per-head column slices of the Q/K/V projections
    n = data.draw(st.integers(min_value=1, max_value=40), label="n")
    d = data.draw(st.integers(min_value=1, max_value=20), label="d")
    rng = np.random.Generator(np.random.Philox(key=seed))
    a = rng.normal(size=(m, 2 * d)).astype(np.float32)[:, d:]
    b = rng.normal(size=(n, 3 * d)).astype(np.float32)[:, ::3]
    assert np.array_equal(_mm_t(a, b), _oracle_mm_t(a, b))
