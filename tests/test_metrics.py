import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvlab.cache import KeptIndices
from kvlab.metrics import (
    NeedleCase,
    attention_cosine,
    kv_l1_loss,
    kv_magnitudes,
    make_needle_case,
    needle_retention,
)

from test_cache import make_layer_kv


def ki(it):
    return KeptIndices.from_iterable(it)


def kv_l1(kv, kept):
    return kv_l1_loss(kv_magnitudes(*kv), kept)


def kv_l1_loss_loop_oracle(kv, kept):
    """The per-head gather/abs/sum loop kv_l1_loss used to run, verbatim."""
    keys, values = kv
    evicted = np.ones(len(keys[0]), dtype=bool)
    evicted[np.asarray(kept.positions, dtype=np.intp)] = False
    total_entries = 0
    lost = 0.0
    for k, v in zip(keys, values):
        total_entries += k.size + v.size
        lost += float(np.abs(k[evicted]).sum(dtype=np.float64))
        lost += float(np.abs(v[evicted]).sum(dtype=np.float64))
    return lost / total_entries


class TestKvL1Loss:
    def test_keep_all_is_zero(self):
        kv = make_layer_kv(seq_len=6)
        assert kv_l1(kv, ki(range(6))) == 0.0

    def test_evict_all_ones_is_one(self):
        ones = np.ones((4, 3), dtype=np.float32)
        assert kv_l1(((ones,), (ones,)), KeptIndices(())) == 1.0

    def test_masked_sum_oracle(self):
        keys, values = kv = make_layer_kv(seq_len=6, heads=2, dim=3, seed=8)
        kept = ki([0, 2, 5])
        # elementwise oracle over python loops
        lost, total = 0.0, 0
        for h in range(2):
            for mat in (keys[h], values[h]):
                for t in range(6):
                    for x in mat[t]:
                        total += 1
                        if t not in (0, 2, 5):
                            lost += abs(float(x))
        assert kv_l1(kv, kept) == pytest.approx(lost / total, abs=1e-6)

    @settings(max_examples=40)
    @given(st.integers(0, 10_000), st.data())
    def test_monotone_in_kept(self, seed, data):
        kv = make_layer_kv(seq_len=8, seed=seed)
        small = data.draw(st.frozensets(st.integers(0, 7), max_size=6))
        extra = data.draw(st.frozensets(st.integers(0, 7), max_size=6))
        bigger = small | extra
        assert kv_l1(kv, ki(small)) >= kv_l1(kv, ki(bigger))

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.integers(1, 1100),
        heads=st.integers(1, 4),
        dim=st.sampled_from([1, 3, 16, 64, 100]),
        seed=st.integers(0, 10_000),
        keep_frac=st.floats(0.0, 1.0),
    )
    def test_bytes_match_per_head_oracle(self, t, heads, dim, seed, keep_frac):
        # dims 64 and 100 push evicted x head_dim past numpy's 8192-element
        # cast buffer, where a sum's rounding depends on memory layout
        kv = make_layer_kv(seq_len=t, heads=heads, dim=dim, seed=seed)
        rng = np.random.default_rng(seed)
        kept = KeptIndices(tuple(np.flatnonzero(rng.random(t) < keep_frac).tolist()))
        assert kv_l1(kv, kept).hex() == kv_l1_loss_loop_oracle(kv, kept).hex()

    @pytest.mark.parametrize("t, dim, n_kept", [(1100, 16, 100), (600, 64, 0), (1024, 100, 400)])
    def test_bytes_match_oracle_past_cast_buffer(self, t, dim, n_kept):
        kv = make_layer_kv(seq_len=t, heads=4, dim=dim, seed=t)
        kept = KeptIndices(tuple(range(0, 2 * n_kept, 2)))
        assert (t - n_kept) * dim > 8192
        assert kv_l1(kv, kept).hex() == kv_l1_loss_loop_oracle(kv, kept).hex()

    def test_head_permutation_invariant(self):
        keys, values = kv = make_layer_kv(seq_len=5, heads=3, seed=4)
        swapped = ((keys[2], keys[0], keys[1]), (values[2], values[0], values[1]))
        kept = ki([1, 3])
        assert kv_l1(kv, kept) == pytest.approx(kv_l1(swapped, kept))


def attention_cosine_two_norm_oracle(full_attn_row, kept):
    """The cosine attention_cosine used to take, with np.linalg.norm and its own dot, verbatim."""
    p = full_attn_row.reshape(-1).astype(np.float64)
    masked = np.zeros_like(p)
    idx = np.asarray(kept.positions, dtype=np.intp)
    masked[idx] = p[idx]
    norm = np.linalg.norm(p) * np.linalg.norm(masked)
    if norm == 0:
        return 0.0
    return float(np.dot(p, masked) / norm)


class TestAttentionCosine:
    def test_bits_match_two_norm_oracle(self):
        # softmax-like rows, rows with zeros, all-zero rows, the empty row and
        # empty kept sets, at lengths past numpy's blocked dot sizes
        rng = np.random.Generator(np.random.Philox(key=17))
        for i in range(3000):
            t = int(rng.integers(0, 2101)) if i % 3 else int(rng.integers(0, 65))
            row = rng.uniform(0.0, 1.0, size=t) ** int(rng.integers(1, 40))
            if i % 7 == 0:
                row[rng.uniform(size=t) < 0.5] = 0.0
            if i % 11 == 0:
                row[:] = 0.0
            row = (row / max(row.sum(), 1.0)).astype(np.float32).reshape(1, -1)
            kept = ki(np.flatnonzero(rng.uniform(size=t) < rng.uniform()))
            assert attention_cosine(row, kept) == attention_cosine_two_norm_oracle(row, kept)

    def test_keep_all_is_one(self):
        row = np.array([[0.1, 0.2, 0.3, 0.4]], dtype=np.float32)
        assert attention_cosine(row, ki(range(4))) == pytest.approx(1.0)

    def test_mass_on_kept_position(self):
        row = np.array([[0.0, 1.0, 0.0]], dtype=np.float32)
        assert attention_cosine(row, ki([1])) == pytest.approx(1.0)

    def test_uniform_half_kept(self):
        row = np.array([[0.25, 0.25, 0.25, 0.25]], dtype=np.float32)
        assert attention_cosine(row, ki([0, 2])) == pytest.approx(1 / math.sqrt(2))

    def test_zero_after_masking(self):
        row = np.array([[0.0, 1.0]], dtype=np.float32)
        assert attention_cosine(row, ki([0])) == 0.0

    def test_kept_index_past_the_row_raises(self):
        with pytest.raises(IndexError):
            attention_cosine(np.array([[0.5, 0.5]], dtype=np.float32), ki([0, 2]))

    @settings(max_examples=40)
    @given(st.integers(0, 10_000), st.data())
    def test_monotone_in_kept(self, seed, data):
        rng = np.random.Generator(np.random.Philox(key=seed))
        p = rng.uniform(0.01, 1.0, size=8)
        row = (p / p.sum()).astype(np.float32).reshape(1, -1)
        small = data.draw(st.frozensets(st.integers(0, 7), max_size=6))
        extra = data.draw(st.frozensets(st.integers(0, 7), max_size=6))
        bigger = small | extra
        assert attention_cosine(row, ki(bigger)) >= attention_cosine(row, ki(small)) - 1e-12


class TestNeedleCase:
    def test_validation(self):
        with pytest.raises(ValueError):
            NeedleCase(seq_len=10, span_start=8, span_len=5, signal=1.0)
        with pytest.raises(ValueError):
            NeedleCase(seq_len=10, span_start=0, span_len=0, signal=1.0)

    def test_null_signal_indistinguishable(self):
        case = NeedleCase(seq_len=50, span_start=10, span_len=5, signal=0.0, seed=1)
        scores = make_needle_case(case)[0]
        assert scores.max() <= 1.0  # nothing rises above the noise ceiling

    def test_dominant_signal_tops_columns(self):
        case = NeedleCase(seq_len=40, span_start=8, span_len=4, signal=40.0, seed=2)
        scores = make_needle_case(case)[0]
        top4 = set(np.argsort(-scores)[:4])
        assert top4 == set(range(8, 12))

    def test_deterministic(self):
        case = NeedleCase(seq_len=30, span_start=5, span_len=3, signal=2.0, seed=7)
        assert np.array_equal(make_needle_case(case), make_needle_case(case))

    def test_weak_offset_column_zeroed(self):
        case = NeedleCase(seq_len=30, span_start=5, span_len=3, signal=30.0, seed=7, weak_offset=1)
        scores = make_needle_case(case)
        assert np.all(scores[:, 6] == 0.0)


class TestNeedleRetention:
    CASE = NeedleCase(seq_len=20, span_start=4, span_len=4, signal=1.0)

    def test_superset(self):
        frac, intact = needle_retention(ki(range(2, 10)), self.CASE)
        assert (frac, intact) == (1.0, True)

    def test_disjoint(self):
        frac, intact = needle_retention(ki([0, 1, 15]), self.CASE)
        assert (frac, intact) == (0.0, False)

    def test_partial(self):
        frac, intact = needle_retention(ki([5, 6]), self.CASE)
        assert (frac, intact) == (0.5, False)
