import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvlab.model import ROW_BLOCK
from kvlab.numerics import _causal_pv, _causal_softmax, _contract, _mm_t


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
    a = np.array([[1, 0], [0, 1]], dtype=np.float32)
    b = np.array([[3, 4], [5, 6]], dtype=np.float32)
    out = _mm_t(a, b)
    assert out.tolist() == [[3.0, 5.0], [4.0, 6.0]]


def test_scalar_product():
    out = _mm_t(np.array([[2]], dtype=np.float32), np.array([[3]], dtype=np.float32))
    assert out.tolist() == [[6.0]]


def test_matches_triple_loop_bit_exactly():
    rng = np.random.Generator(np.random.Philox(key=42))
    a = rng.normal(size=(4, 8)).astype(np.float32)
    b = rng.normal(size=(6, 8)).astype(np.float32)
    got = _mm_t(a, b)
    want = naive_matmul_transposed(a, b)
    assert np.array_equal(got, want)


@given(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=0, max_value=1000),
)
def test_bilinear_power_of_two_scaling(exp, seed):
    s = np.float32(2.0**exp)
    rng = np.random.Generator(np.random.Philox(key=seed))
    a = rng.normal(size=(3, 5)).astype(np.float32)
    b = rng.normal(size=(4, 5)).astype(np.float32)
    base = _mm_t(a, b)
    scaled = _mm_t(a * s, b)
    assert np.array_equal(scaled, base * s)


def test_softmax_uniform_row():
    out = _causal_softmax(np.array([[0, 0, 0]], dtype=np.float32), query_offset=2)
    assert np.allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-6)


def test_softmax_single_unmasked_entry():
    out = _causal_softmax(np.array([[5.0, 99.0]], dtype=np.float32), query_offset=0)
    assert out.tolist() == [[1.0, 0.0]]


def test_softmax_exp_normalize_values():
    # independent exp-normalize oracle in python floats
    xs = [1.0, 2.0, 3.0]
    es = [math.exp(x - max(xs)) for x in xs]
    want = [e / sum(es) for e in es]
    out = _causal_softmax(np.array([xs], dtype=np.float32), query_offset=2)
    assert np.allclose(out[0], want, atol=1e-4)
    assert np.allclose(out[0], [0.09003, 0.24473, 0.66524], atol=1e-4)


def test_softmax_causal_masking_zeroes_future():
    out = _causal_softmax(np.array([[1, 2, 3], [1, 2, 3]], dtype=np.float32), query_offset=1)
    assert out[0, 2] == 0.0
    assert out[1, 2] > 0.0


def test_softmax_empty_row_raises():
    with pytest.raises(ValueError):
        _causal_softmax(np.array([[1.0]], dtype=np.float32), query_offset=-1)


@settings(max_examples=50)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=1000),
)
def test_softmax_rows_sum_to_one(w, seed):
    t = w + 3
    rng = np.random.Generator(np.random.Philox(key=seed))
    scores = rng.normal(size=(w, t)).astype(np.float32) * 3
    out = _causal_softmax(scores, query_offset=t - w)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-5)


def test_determinism_bit_identical():
    rng = np.random.Generator(np.random.Philox(key=7))
    a = rng.normal(size=(5, 9)).astype(np.float32)
    b = rng.normal(size=(7, 9)).astype(np.float32)
    r1 = _mm_t(a, b)
    r2 = _mm_t(a.copy(), b.copy())
    assert np.array_equal(r1, r2)


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


@pytest.mark.parametrize("head_dim", [16, 1, 2, 64])
@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=3 * ROW_BLOCK + 5),
    st.data(),
    st.sampled_from([1.0, 4.0, 40.0]),  # 40 underflows some allowed probabilities to 0
    st.integers(min_value=0, max_value=1000),
)
def test_blocked_softmax_and_causal_pv_match_unblocked_oracle(head_dim, t, data, spread, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    scores = (rng.normal(size=(t, t)) * spread).astype(np.float32)
    v = rng.normal(size=(t, head_dim)).astype(np.float32)
    want = _oracle_causal_softmax(scores, query_offset=0)

    # one row block [r0, r1), its sums taken in a T-wide row buffer of NaNs:
    # softmax runs in place on a copy of the block's scores, and a buffer tail
    # left unzeroed would make every returned probability NaN
    r0 = data.draw(st.integers(min_value=0, max_value=t - 1), label="block start")
    r1 = min(r0 + ROW_BLOCK, t)
    buf = np.full((r1 - r0, t), np.nan, dtype=np.float32)
    got = _causal_softmax(scores[r0:r1, :r1].copy(), query_offset=r0, out=buf)
    assert np.array_equal(got, want[r0:r1, :r1])

    # every block, as prefill makes them, assembled, then the triangular P.V
    probs = np.zeros((t, t), dtype=np.float32)
    blocks = []
    for b0 in range(0, t, ROW_BLOCK):
        b1 = min(b0 + ROW_BLOCK, t)
        buf = np.full((b1 - b0, t), np.nan, dtype=np.float32)
        blocks.append(_causal_softmax(scores[b0:b1, :b1].copy(), query_offset=b0, out=buf))
        probs[b0:b1, :b1] = blocks[-1]
    assert np.array_equal(probs, want)
    want_pv = _oracle_mm_t(want, v.T)
    assert np.array_equal(_causal_pv(probs, v, query_offset=0), want_pv)
    # P.V per row block, as prefill runs it on each block's returned rows
    for b0, block in zip(range(0, t, ROW_BLOCK), blocks):
        got_pv = _causal_pv(block, v, query_offset=b0)
        assert got_pv.tobytes() == want_pv[b0 : b0 + len(block)].tobytes()

    # the one-row decode case: the newest query sees every cached position
    row = scores[-1:]
    want_row = _oracle_causal_softmax(row, query_offset=t - 1)
    got_row = _causal_softmax(row.copy(), query_offset=t - 1)
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


# Byte oracles: the two kernels as they were before _mm_t formed its rank-1
# products with einsum and P.V ran on key tiles, copied verbatim.


def _loop_mm_t(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, d = a.shape
    n = b.shape[0]
    bt = np.ascontiguousarray(b.T)
    out = np.zeros((m, n), dtype=np.float32)
    prod = np.empty_like(out)
    for k in range(d):
        np.multiply(a[:, k : k + 1], bt[k], out=prod)
        out += prod
    return out


def _loop_causal_pv(probs: np.ndarray, v: np.ndarray, query_offset: int) -> np.ndarray:
    w, t = probs.shape
    out = np.zeros((w, v.shape[1]), dtype=np.float32)
    prod = np.empty_like(out)
    for k in range(min(t, query_offset + w)):
        i0 = max(0, k - query_offset)
        np.multiply(probs[i0:, k : k + 1], v[k], out=prod[i0:])
        out[i0:] += prod[i0:]
    return out


def _entries(rng, shape, scale) -> np.ndarray:
    """Normal entries times scale, with +0 and -0 sprinkled in."""
    x = (rng.normal(size=shape) * scale).astype(np.float32)
    x[rng.random(shape) < 0.05] = 0.0
    x[rng.random(shape) < 0.05] = -0.0
    return x


def _layout(a: np.ndarray, layout: str) -> np.ndarray:
    """a as a C-ordered or Fortran-ordered array, or as a view into a wider one.

    "slice" is a block of contiguous columns, as prefill passes each head's
    columns of the Q/K/V projections; "strided" is every third column.
    """
    if layout in ("slice", "strided"):
        wide = np.zeros((a.shape[0], 3 * a.shape[1]), dtype=a.dtype)
        cols = np.s_[:, a.shape[1] : 2 * a.shape[1]] if layout == "slice" else np.s_[:, 1::3]
        wide[cols] = a
        return wide[cols]
    return np.asfortranarray(a) if layout == "fortran" else a


LAYOUTS = st.sampled_from(["c", "slice", "strided", "fortran"])


# p_scale 1e-30 against v_scale 1e-20 underflows products to +-0
@settings(max_examples=200, deadline=None)
@given(
    d=st.one_of(st.just(1), st.integers(min_value=1, max_value=64)),
    w=st.one_of(st.just(1), st.integers(min_value=1, max_value=ROW_BLOCK + 5)),
    query_offset=st.integers(min_value=0, max_value=1100),
    extra=st.integers(min_value=-ROW_BLOCK - 5, max_value=40),
    p_scale=st.sampled_from([1e-30, 1e-20, 1e-3, 1.0]),
    v_scale=st.sampled_from([1e-20, 1e-6, 1.0, 1e20]),
    v_layout=LAYOUTS,
    seed=st.integers(min_value=0, max_value=1000),
)
# decode at head_dim 1: the one-entry loop, over a few hundred keys
@example(d=1, w=1, query_offset=300, extra=0, p_scale=1.0, v_scale=1.0, v_layout="c", seed=1)
@example(d=1, w=1, query_offset=64, extra=0, p_scale=1.0, v_scale=1e20, v_layout="c", seed=2)
# the last visible key around 32, where P.V once split its keys into tiles
@example(d=16, w=1, query_offset=30, extra=0, p_scale=1.0, v_scale=1.0, v_layout="c", seed=3)
@example(d=16, w=1, query_offset=31, extra=0, p_scale=1.0, v_scale=1.0, v_layout="c", seed=4)
@example(
    d=16, w=ROW_BLOCK, query_offset=33, extra=0, p_scale=1.0, v_scale=1.0, v_layout="c", seed=5
)
@example(d=1, w=2, query_offset=0, extra=0, p_scale=1.0, v_scale=1.0, v_layout="c", seed=6)
# decode over a T=1024 cache, and a one-row block over a column-major v
@example(d=16, w=1, query_offset=1023, extra=0, p_scale=1.0, v_scale=1.0, v_layout="c", seed=7)
@example(d=16, w=1, query_offset=500, extra=0, p_scale=1.0, v_scale=1.0, v_layout="fortran", seed=8)
# a prefill row block at T=1024, as _forward passes its per-head V slice
@example(
    d=16, w=ROW_BLOCK, query_offset=1024 - ROW_BLOCK, extra=0, p_scale=1.0, v_scale=1.0,
    v_layout="slice", seed=9,
)
# a block of 9000 rows over 40 keys: each inner loop of the contraction runs
# along the rows, past numpy's 8192-element iterator buffer
@example(
    d=3, w=9000, query_offset=0, extra=40 - 9000, p_scale=1.0, v_scale=1.0, v_layout="c",
    seed=10,
)
def test_causal_pv_bytes_match_per_key_loop(
    d, w, query_offset, extra, p_scale, v_scale, v_layout, seed
):
    t = max(query_offset + 1, query_offset + w + extra)  # every row sees key 0
    rng = np.random.Generator(np.random.Philox(key=seed))
    probs = np.abs(_entries(rng, (w, t), p_scale))
    probs[rng.random((w, t)) < 0.05] = -0.0
    probs[np.arange(t)[None, :] > query_offset + np.arange(w)[:, None]] = 0.0  # the mask
    v = _layout(_entries(rng, (t, d), v_scale), v_layout)
    got = _causal_pv(probs, v, query_offset)
    assert got.shape == (w, d)
    assert got.tobytes() == _loop_causal_pv(probs, v, query_offset).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    m=st.one_of(st.just(1), st.integers(min_value=1, max_value=40)),
    n=st.one_of(st.just(1), st.integers(min_value=1, max_value=1100)),
    d=st.integers(min_value=1, max_value=64),
    a_scale=st.sampled_from([1e-30, 1e-20, 1.0]),
    b_scale=st.sampled_from([1e-20, 1.0, 1e20]),
    a_layout=LAYOUTS,
    b_layout=LAYOUTS,
    seed=st.integers(min_value=0, max_value=1000),
)
# one output entry: the one-entry loop
@example(m=1, n=1, d=16, a_scale=1.0, b_scale=1.0, a_layout="c", b_layout="c", seed=1)
@example(m=1, n=1, d=64, a_scale=1.0, b_scale=1e20, a_layout="fortran", b_layout="strided", seed=2)
# decode's logits (one row against a 256-token vocabulary), a projection,
# and QK^T at T=1024 on prefill's per-head column slices
@example(m=1, n=256, d=64, a_scale=1.0, b_scale=1.0, a_layout="c", b_layout="c", seed=3)
@example(m=40, n=64, d=64, a_scale=1.0, b_scale=1.0, a_layout="c", b_layout="c", seed=4)
@example(
    m=ROW_BLOCK, n=1024, d=16, a_scale=1.0, b_scale=1.0, a_layout="slice", b_layout="slice",
    seed=5,
)
# a row longer than numpy's 8192-element iterator buffer
@example(m=3, n=9000, d=16, a_scale=1.0, b_scale=1.0, a_layout="c", b_layout="c", seed=6)
@example(
    m=1, n=9000, d=16, a_scale=1.0, b_scale=1.0, a_layout="fortran", b_layout="fortran", seed=7
)
def test_mm_t_bytes_match_broadcast_loop(m, n, d, a_scale, b_scale, a_layout, b_layout, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    a = _layout(_entries(rng, (m, d), a_scale), a_layout)
    b = _layout(_entries(rng, (n, d), b_scale), b_layout)
    assert _mm_t(a, b).tobytes() == _loop_mm_t(a, b).tobytes()


# model._forward projects feature-major, _contract(W.T, X^T) over an (out, in)
# weight and C-ordered activations X^T, with the token axis as einsum's inner
# loop.  At n = 1 there is no token loop (a one-column output), and one output
# entry (a decode step of a model with one head of head_dim 1) takes the
# one-entry loop.
@pytest.mark.parametrize(
    "n, d_in, d_out",
    [(1, 64, 64), (1, 64, 128), (1, 128, 64), (7, 64, 64), (ROW_BLOCK + 3, 64, 128),
     (3, 16, 1), (1, 16, 1), (1, 1, 1)],
    ids=["n1", "n1-wide", "n1-ffn2", "n7", "block", "one-feature", "one-entry", "head-dim-1"],
)
@pytest.mark.parametrize("scale", [1.0, 1e20])
def test_feature_major_contract_matches_mm_t_bits(n, d_in, d_out, scale):
    rng = np.random.Generator(np.random.Philox(key=n * 1000 + d_in + d_out))
    x = _entries(rng, (n, d_in), 1.0)
    w = _entries(rng, (d_out, d_in), scale)
    got = _contract(w.T, np.ascontiguousarray(x.T))
    assert got.shape == (d_out, n)
    assert got.tobytes() == np.ascontiguousarray(_mm_t(x, w).T).tobytes()
    assert got.tobytes() == np.ascontiguousarray(_loop_mm_t(x, w).T).tobytes()


# e * e = 1 + 2**-11 + 2**-24 rounds to 1 + 2**-11 (a tie, to even), so each
# entry, -(1 + 2**-11) + e * e, is exactly 0 when the product is rounded
# before the add, and 2**-24 when a fused multiply-add rounds only once.
E = 1 + 2.0**-12
FMA_MESSAGE = "this numpy build fuses multiply-add in einsum, so kernel bits differ"


def test_contraction_does_not_fuse_multiply_add():
    a = np.array([[1.0, E]] * 3, dtype=np.float32)
    b = np.array([[-(1 + 2.0**-11), E]] * 70, dtype=np.float32)
    got = _mm_t(a, b)
    assert got.shape == (3, 70)
    assert not got.any(), f"_mm_t: {FMA_MESSAGE}"

    # the same sums through P.V: 70 rows see keys 0 and 1
    probs = np.array([[1.0, E]] * 70, dtype=np.float32)
    v = np.array([[-(1 + 2.0**-11)] * 3, [E] * 3], dtype=np.float32)
    got = _causal_pv(probs, v, query_offset=1)
    assert got.shape == (70, 3)
    assert not got.any(), f"_causal_pv: {FMA_MESSAGE}"
