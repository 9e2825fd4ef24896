import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kvlab.policies
from kvlab.cache import BudgetSpec
from kvlab.metrics import NeedleCase, make_needle_case
from kvlab.model import ModelConfig, init_model, prefill
from kvlab.policies import (
    POLICY_KINDS,
    PolicySpec,
    ScoreMatrices,
    _scores,
    chunk_order,
    chunk_scores,
    chunkkv_from_scores,
    compress_layer,
    h2o_scores,
    max_pool_1d,
    observe_rows,
    pyramid_budgets,
    reads_col_mass,
    resolved_layer_budgets,
    streaming_compress,
    topk_from_scores,
)
from kvlab.reuse import ReusePlan, run_with_reuse

from conftest import random_tokens
from observe_reference import causal_softmax_rows, observe_scores


def random_scores(w, t, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.uniform(0, 1, size=(max(w, 1), t)).astype(np.float32)


def exhaustive_best_chunks(scores, k):
    """Max-total-score k-subset of chunks, lexicographically smallest on ties."""
    best = None
    for subset in itertools.combinations(range(len(scores)), k):
        total = sum(scores[i] for i in subset)
        if best is None or total > best[0] + 1e-12 or (
            abs(total - best[0]) <= 1e-12 and subset < best[1]
        ):
            best = (total, subset)
    return best[1]


class TestObserveScores:
    """The observe rows prefill keeps (small_trace keeps all T) as policies read them."""

    def test_softmax_rows_sum_to_one(self, small_trace):
        a = _scores(small_trace, 1, 0, w=4)
        assert np.allclose(a.sum(axis=1), 1.0, atol=1e-5)
        assert np.allclose(small_trace.observe_probs[1][0].sum(axis=1), 1.0, atol=1e-5)

    def test_w_too_large_raises(self, small_model):
        trace = prefill(small_model, random_tokens(64, 40, seed=5), observe_rows=4)
        with pytest.raises(ValueError, match="w=5 exceeds the 4 observe rows"):
            _scores(trace, 0, 0, w=5)


def top_chunks(scores, k):
    """Top-k chunks as chunkkv_from_scores ranks them, in ascending order.

    scores are chunk sums already: one-position chunks of one row rank by them.
    """
    return tuple(np.sort(chunk_order(np.asarray(scores)[None], 1)[:k]).tolist())


class TestChunkScores:
    def test_ceiling_boundaries(self):
        a = random_scores(1, 25, 0)
        scores = chunk_scores(a, c=10)
        assert scores.dtype == np.float64
        assert len(scores) == 3
        for i, (start, end) in enumerate([(0, 10), (10, 20), (20, 25)]):
            assert scores[i] == pytest.approx(a[:, start:end].sum(dtype=np.float64))

    def test_chunk_wider_than_the_scores_is_one_chunk(self):
        a = random_scores(2, 12, 0)
        assert chunk_scores(a, 10**400).tolist() == chunk_scores(a, 12).tolist()
        assert len(chunk_scores(a, 10**400)) == 1

    @pytest.mark.parametrize("t", [1, 2, 7, 256, 1024])
    def test_one_position_chunks_are_the_column_sums_bit_for_bit(self, t):
        a = random_scores(3, t, t)
        want = a.sum(axis=0, dtype=np.float64)
        assert chunk_scores(a, 1).view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_all_ones_uniform(self):
        scores = chunk_scores(np.ones((2, 6), dtype=np.float32), c=2)
        assert scores.tolist() == [4.0, 4.0, 4.0]

    def test_column_sum_oracle(self):
        cols = [0.1, 0.1, 0.5, 0.4, 0.05, 0.05, 0.9, 0.9]
        scores = chunk_scores(np.array([cols], dtype=np.float32), c=2)
        want = [cols[i] + cols[i + 1] for i in range(0, 8, 2)]
        assert np.allclose(scores, want, atol=1e-6)
        assert np.allclose(scores, [0.2, 0.9, 0.1, 1.8], atol=1e-6)


class TestSelectChunks:
    def test_example(self):
        scores = chunk_scores(
            np.array([[0.1, 0.1, 0.5, 0.4, 0.05, 0.05, 0.9, 0.9]], dtype=np.float32), c=2
        )
        assert top_chunks(scores, 2) == (1, 3)

    def test_k_equals_c(self):
        scores = chunk_scores(random_scores(2, 12, 1), c=3)
        assert top_chunks(scores, len(scores)) == tuple(range(len(scores)))

    def test_k_zero(self):
        scores = chunk_scores(random_scores(2, 12, 1), c=3)
        assert top_chunks(scores, 0) == ()

    @settings(max_examples=100)
    @given(
        st.integers(min_value=2, max_value=24),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=10_000),
        st.data(),
    )
    def test_exhaustive_subset_oracle(self, t, c, seed, data):
        scores = chunk_scores(random_scores(2, t, seed), c)
        if len(scores) > 8:
            c = -(-t // 8)
            scores = chunk_scores(random_scores(2, t, seed), c)
        k = data.draw(st.integers(min_value=0, max_value=len(scores)))
        assert top_chunks(scores, k) == exhaustive_best_chunks(scores.tolist(), k)

    def test_tie_break_earlier(self):
        scores = chunk_scores(np.ones((1, 9), dtype=np.float32), c=3)
        assert top_chunks(scores, 2) == (0, 1)


def chunkkv_oracle(a, c, w, max_len):
    """The first (max_len - w) // c chunks of chunk_order, each expanded, plus the last w.

    A budget that covers T keeps the whole prompt.
    """
    t = a.shape[1]
    if max_len >= t:
        return tuple(range(t))
    kept = set(range(t - w, t))
    for i in chunk_order(a, c)[: (max_len - w) // c].tolist():
        kept.update(range(i * c, min(i * c + c, t)))
    return tuple(sorted(kept))


@st.composite
def chunkkv_cases(draw):
    """(scores, c, w, max_len): T in 1..40, c from 1 past T or 10**400, w in 0..4."""
    t = draw(st.integers(1, 40), label="t")
    rows = draw(st.integers(1, 3), label="rows")
    rng = np.random.Generator(np.random.Philox(key=draw(st.integers(0, 10_000), label="seed")))
    ties = draw(st.booleans(), label="ties")
    a = rng.integers(0, 3, size=(rows, t)) if ties else rng.uniform(size=(rows, t))
    c = draw(st.one_of(st.integers(1, t + 2), st.just(10**400)), label="c")
    w = draw(st.integers(0, 4), label="w")
    return a.astype(np.float32), c, w, draw(st.integers(w, max(w, t + 2)), label="max_len")


class TestChunkKV:
    @settings(max_examples=300, deadline=None)
    @given(chunkkv_cases())
    @example((np.array([[0, 0, 1]], dtype=np.float32), 2, 0, 2))  # the short last chunk wins
    def test_matches_the_expanded_ranking_oracle(self, case):
        assert chunkkv_from_scores(*case).positions == chunkkv_oracle(*case)

    def test_worked_example(self):
        a = np.array([[0.1, 0.1, 0.5, 0.4, 0.05, 0.05, 0.9, 0.9]], dtype=np.float32)
        kept = chunkkv_from_scores(a, c=2, w=2, max_len=6)
        assert kept.positions == (2, 3, 6, 7)

    def test_identity_when_budget_covers(self):
        a = random_scores(2, 10, 0)
        kept = chunkkv_from_scores(a, c=3, w=2, max_len=10)
        assert kept.positions == tuple(range(10))

    def test_uniform_tie_break(self):
        a = np.ones((1, 9), dtype=np.float32)
        kept = chunkkv_from_scores(a, c=3, w=0, max_len=6)
        assert kept.positions == tuple(range(6))

    def test_w_exceeding_budget_raises(self):
        with pytest.raises(ValueError):
            chunkkv_from_scores(random_scores(2, 10, 0), c=2, w=5, max_len=4)

    @pytest.mark.parametrize("head_pool", [False, True])
    def test_zero_window_keeps_the_earliest_chunks(self, small_trace, head_pool):
        # w = 0 reads no observe rows: every chunk scores +0.0, and stable
        # ties keep the first max_len // c chunks
        assert _scores(small_trace, 0, 0, w=0).shape == (0, small_trace.seq_len)
        spec = PolicySpec("ChunkKV", BudgetSpec(max_len=12, w=0, c=5), head_pool=head_pool)
        for l in range(small_trace.n_layers):
            for kept in compress_layer(small_trace, l, spec):
                assert kept.positions == tuple(range(12 // 5 * 5))

    def test_trace_compress_budget_and_recency(self, small_trace):
        spec = PolicySpec("ChunkKV", BudgetSpec(max_len=14, w=4, c=5))
        kept = compress_layer(small_trace, 0, spec)[0]
        t = small_trace.seq_len
        assert len(kept) <= 14
        assert set(range(t - 4, t)) <= kept.as_set()

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=4, max_value=40),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=10_000),
        st.data(),
    )
    def test_chunk_integrity(self, t, c, w, seed, data):
        max_len = data.draw(st.integers(min_value=max(w, 1), max_value=t))
        a = random_scores(w, t, seed)
        kept = chunkkv_from_scores(a, c, w, max_len)
        if max_len >= t:
            assert kept.positions == tuple(range(t))
            return
        assert len(kept) <= max_len
        recent = set(range(t - w, t))
        kept_set = kept.as_set()
        for pos in kept_set - recent:
            start = pos // c * c
            assert set(range(start, min(start + c, t))) <= kept_set

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=10, max_value=40),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_budget_monotonicity_by_chunk(self, t, c, w, seed):
        a = random_scores(w, t, seed)
        lo = max(w, 1)
        if lo + c >= t:
            return
        small = chunkkv_from_scores(a, c, w, lo)
        big = chunkkv_from_scores(a, c, w, lo + c)
        assert small.as_set() <= big.as_set()

    def test_score_shift_invariant_with_equal_chunks(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        base = rng.uniform(0, 1, size=(2, 12)).astype(np.float32)
        k1 = chunkkv_from_scores(base, c=3, w=0, max_len=6)
        k2 = chunkkv_from_scores(base + np.float32(5.0), c=3, w=0, max_len=6)
        assert k1.positions == k2.positions

    def test_score_shift_can_flip_with_short_final_chunk(self):
        # chunks (0,2),(2,4),(4,5): the short chunk wins raw sums but loses
        # once a constant inflates the full-length chunks
        a = np.array([[0.0, 0.0, 0.0, 0.0, 0.9]], dtype=np.float32)
        k1 = chunkkv_from_scores(a, c=2, w=0, max_len=2)
        assert k1.positions == (4,)
        shifted = np.array([[1.0, 1.0, 1.0, 1.0, 1.9]], dtype=np.float32)
        k2 = chunkkv_from_scores(shifted, c=2, w=0, max_len=2)
        assert k2.positions == (0, 1)

    def test_short_last_chunk_scores_by_its_sum_not_its_mean(self):
        # T mod c != 0: chunks (0,2),(2,4),(4,5); the short chunk sums one
        # column, so summed scores rank it last where a mean rule ranks it first
        a = np.array([[0.3, 0.3, 0.3, 0.3, 0.5]], dtype=np.float32)
        sums = chunk_scores(a, c=2)
        assert sums.tolist() == [2 * float(np.float32(0.3))] * 2 + [0.5]
        assert chunkkv_from_scores(a, c=2, w=0, max_len=2).positions == (0, 1)
        means = sums / np.array([2, 2, 1])
        (best,) = top_chunks(means, 1)
        assert tuple(range(2 * best, min(2 * best + 2, 5))) == (4,)

    @pytest.mark.parametrize("w", range(9))
    def test_one_position_chunks_keep_what_snapkv_p1_keeps(self, small_trace, w):
        # ChunkKV (arXiv 2502.00299) at c = 1 is token-level SnapKV (arXiv
        # 2404.14469): the same kept set for every layer and head
        for max_len in range(9, small_trace.seq_len):
            budget = BudgetSpec(max_len=max_len, w=w, c=1)
            chunk = PolicySpec("ChunkKV", budget)
            snap = PolicySpec("SnapKVStyle", budget, pool_width=1)
            for l in range(small_trace.n_layers):
                got = [k.positions for k in compress_layer(small_trace, l, chunk)]
                assert got == [k.positions for k in compress_layer(small_trace, l, snap)]


class TestStreaming:
    def test_example(self):
        assert streaming_compress(6, sink=2, max_len=4).positions == (0, 1, 4, 5)

    def test_pure_recent(self):
        assert streaming_compress(6, sink=0, max_len=3).positions == (3, 4, 5)

    def test_identity(self):
        assert streaming_compress(5, sink=2, max_len=8).positions == tuple(range(5))

    def test_sink_past_the_prompt_keeps_only_prompt_positions(self):
        assert streaming_compress(5, sink=8, max_len=6).positions == tuple(range(5))

    def test_budget_covers_all(self):
        spec = PolicySpec("StreamingStyle", BudgetSpec(max_len=8, w=0), sink=2)
        source = ScoreMatrices((random_scores(1, 5, 0),))
        assert compress_layer(source, 0, spec)[0].positions == tuple(range(5))


class TestResolvedLayerBudgets:
    """The one budget rule: each range error starts with the PolicySpec field at fault."""

    def test_sink_exceeds_budget(self):
        spec = PolicySpec("StreamingStyle", BudgetSpec(max_len=3, w=0), sink=4)
        with pytest.raises(ValueError, match=r"^sink 4 exceeds the budget 3 resolved$"):
            resolved_layer_budgets(spec, 2, 10)
        with pytest.raises(ValueError, match="^sink 4"):
            compress_layer(ScoreMatrices((random_scores(1, 10, 0),)), 0, spec)

    def test_pyramid_max_len_below_w_plus_c_blames_budget(self):
        spec = PolicySpec("PyramidStyle", BudgetSpec(max_len=6, w=4, c=5), skew=0.0)
        with pytest.raises(ValueError, match=r"^budget: max_len 6 is below the minimum budget"):
            resolved_layer_budgets(spec, 4, 48)

    @pytest.mark.parametrize("skew", [0.5, 1.5])
    def test_pyramid_skew_rules_blame_skew(self, skew):
        spec = PolicySpec("PyramidStyle", BudgetSpec(ratio=0.25, w=4, c=5), skew=skew)
        with pytest.raises(ValueError, match=rf"^skew {skew}: "):
            resolved_layer_budgets(spec, 4, 48)

    @pytest.mark.parametrize(
        "spec, t_k",
        [
            (PolicySpec("SnapKVStyle", BudgetSpec(ratio=0.5)), 10**400),
            (PolicySpec("PyramidStyle", BudgetSpec(max_len=10**400), skew=0.2), 48),
        ],
        ids=["ratio-of-huge-length", "pyramid-huge-max-len"],
    )
    def test_float_overflow_blames_budget(self, spec, t_k):
        with pytest.raises(ValueError, match="^budget: "):
            resolved_layer_budgets(spec, 4, t_k)

    def test_hybrid_prefixes_its_inner_field(self):
        budget = BudgetSpec(ratio=0.25, w=4, c=5)
        spec = PolicySpec(
            "Hybrid", budget, split=2,
            inner_a=PolicySpec("ChunkKV", budget),
            inner_b=PolicySpec("StreamingStyle", budget, sink=13),
        )
        with pytest.raises(ValueError, match=r"^inner_b\.sink 13 exceeds the budget 12"):
            resolved_layer_budgets(spec, 4, 48)


def topk_oracle(col, w, max_len):
    """Brute-force token top-k: the first max_len - w by (-score, position), plus the last w."""
    t = len(col)
    if max_len >= t:
        return set(range(t))
    order = sorted(range(t), key=lambda j: (-col[j], j))
    return set(order[: max_len - w]) | set(range(t - w, t))


class TestTopK:
    @settings(max_examples=300, deadline=None)
    @given(
        col=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 0.25, 1.0]),  # ties, and zeros of both signs
                st.floats(allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        ),
        data=st.data(),
    )
    def test_matches_sort_oracle(self, col, data):
        t = len(col)
        w = data.draw(st.integers(0, t), label="w")
        max_len = data.draw(st.integers(w, t + 3), label="max_len")
        kept = topk_from_scores(np.array(col), w, max_len)
        assert kept.as_set() == topk_oracle(col, w, max_len)
        assert all(p < t for p in kept)


class TestH2O:
    def test_budget_covers_all(self, small_trace):
        spec = PolicySpec("H2OStyle", BudgetSpec(max_len=small_trace.seq_len, w=2))
        kept = compress_layer(small_trace, 0, spec)[0]
        assert kept.positions == tuple(range(small_trace.seq_len))

    def test_dominating_column_always_kept(self):
        t = 12
        raw = np.zeros((t, t), dtype=np.float32)
        raw[:, 5] = 50.0
        probs = causal_softmax_rows(raw, query_offset=0)
        for normalize in ("exposure", "none"):
            col = h2o_scores(probs.sum(axis=0, dtype=np.float64), normalize)
            kept = topk_from_scores(col, w=2, max_len=4)
            assert 5 in kept.as_set()

    def test_sort_based_oracle(self, small_model, small_trace):
        w, max_len = 3, 10
        t = small_trace.seq_len
        spec = PolicySpec("H2OStyle", BudgetSpec(max_len=max_len, w=w))
        kept = compress_layer(small_trace, 1, spec)[1]

        # independent path: explicit python-loop scores + sorted() selection
        probs = observe_scores(small_model, small_trace, 1, 1, w=t, mode="softmax")
        exposure = [sum(1.0 / (i + 1) for i in range(j, t)) for j in range(t)]
        scores = [sum(float(probs[i][j]) for i in range(t)) / exposure[j] for j in range(t)]
        order = sorted(range(t), key=lambda j: (-scores[j], j))
        want = set(order[: max_len - w]) | set(range(t - w, t))
        assert kept.as_set() == want


class TestSnapKV:
    def test_p1_reduces_to_plain_topk(self, small_model, small_trace):
        spec = PolicySpec("SnapKVStyle", BudgetSpec(max_len=12, w=4), pool_width=1)
        kept = compress_layer(small_trace, 0, spec)[0]
        a = observe_scores(small_model, small_trace, 0, 0, 4, "softmax")
        want = topk_from_scores(a.sum(axis=0, dtype=np.float64), 4, 12)
        assert kept.positions == want.positions

    def test_budget_covers_all(self, small_trace):
        spec = PolicySpec("SnapKVStyle", BudgetSpec(max_len=small_trace.seq_len, w=2))
        assert len(compress_layer(small_trace, 0, spec)[0]) == small_trace.seq_len

    def test_pooling_hand_case(self):
        pooled = max_pool_1d(np.array([0.0, 5.0, 0.0, 0.0]), 3)
        assert pooled.tolist() == [5.0, 5.0, 5.0, 0.0]
        kept = topk_from_scores(pooled, w=0, max_len=2)
        assert kept.positions == (0, 1)

    def test_even_pool_width_rejected(self):
        with pytest.raises(ValueError):
            max_pool_1d(np.ones(4), 2)

    def test_width_above_the_input_pools_over_all_of_it(self):
        x = np.array([0.5, -1.0, 3.0, 0.0, 2.0])
        assert max_pool_1d(x, 10**400 + 1).tolist() == [3.0] * 5
        assert max_pool_1d(x, 10**400 + 1).tolist() == max_pool_1d(x, 2 * len(x) - 1).tolist()
        assert max_pool_1d(x[:1], 10**400 + 1).tolist() == [0.5]

    @settings(max_examples=150, deadline=None)
    @given(
        half=st.integers(0, 25),
        n=st.integers(1, 2048),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_max_pool_matches_loop_oracle(self, half, n, seed, data):
        # widths 1..51 (above the 8-lane SIMD reduce), signed zeros, negatives,
        # and 1e+-30 magnitudes, with runs of equal values for ties
        rng = np.random.default_rng(seed)
        palette = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -7.0, 1e30, -1e30, 1e-30, -1e-30])
        x = np.where(
            rng.random(n) < 0.7,
            palette[rng.integers(0, len(palette), n)],
            rng.standard_normal(n) * 10.0 ** rng.integers(-30, 31, n),
        )
        width = 2 * half + 1
        got, want = max_pool_1d(x, width), max_pool_loop_oracle(x, width)
        assert got.shape == want.shape and (got == want).all()
        w = data.draw(st.integers(0, n))
        max_len = data.draw(st.integers(w, n))
        assert (
            topk_from_scores(got, w, max_len).positions
            == topk_from_scores(want, w, max_len).positions
        )


def max_pool_loop_oracle(x, width):
    """The per-position loop max_pool_1d used to run, verbatim."""
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


class TestPyramidBudgets:
    def test_zero_skew_uniform(self):
        assert pyramid_budgets(100, 4, 0.0) == [100, 100, 100, 100]

    def test_linear_endpoints(self):
        assert pyramid_budgets(100, 2, 0.5) == [150, 50]

    def test_largest_remainder_sums_exactly(self):
        budgets = pyramid_budgets(100, 5, 0.4)
        assert sum(budgets) == 500
        assert budgets == sorted(budgets, reverse=True)

    @given(
        st.integers(min_value=20, max_value=400),
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.0, max_value=0.9),
    )
    def test_total_preserved(self, b, n, skew):
        budgets = pyramid_budgets(b, n, skew)
        assert sum(budgets) == n * b

    def test_infeasible_floor_raises(self):
        with pytest.raises(ValueError):
            pyramid_budgets(10, 4, 0.9, min_budget=8)


class TestHybrid:
    def _spec(self, split, kind_b="SnapKVStyle"):
        budget = BudgetSpec(max_len=12, w=4, c=5)
        return PolicySpec(
            "Hybrid",
            budget,
            split=split,
            inner_a=PolicySpec("ChunkKV", budget),
            inner_b=PolicySpec(kind_b, budget, pool_width=3),
        )

    def test_degenerate_split_is_pure_a(self, small_trace):
        spec = self._spec(split=small_trace.n_layers)
        kept = run_with_reuse(small_trace, spec, ReusePlan(small_trace.n_layers, 1))
        pure = run_with_reuse(small_trace, spec.inner_a, ReusePlan(small_trace.n_layers, 1))
        for l in range(small_trace.n_layers):
            for h in range(small_trace.n_heads):
                assert kept[l][h].positions == pure[l][h].positions

    def test_depth_split_structure(self, small_trace):
        spec = self._spec(split=2)
        kept = run_with_reuse(small_trace, spec, ReusePlan(small_trace.n_layers, 1))
        a = run_with_reuse(small_trace, spec.inner_a, ReusePlan(small_trace.n_layers, 1))
        b = run_with_reuse(small_trace, spec.inner_b, ReusePlan(small_trace.n_layers, 1))
        for l in range(small_trace.n_layers):
            want = a[l] if l < 2 else b[l]
            for h in range(small_trace.n_heads):
                assert kept[l][h].positions == want[h].positions

    def test_same_inner_equals_non_hybrid(self, small_trace):
        budget = BudgetSpec(max_len=12, w=4, c=5)
        inner = PolicySpec("ChunkKV", budget)
        spec = PolicySpec("Hybrid", budget, split=1, inner_a=inner, inner_b=inner)
        kept = run_with_reuse(small_trace, spec, ReusePlan(small_trace.n_layers, 1))
        pure = run_with_reuse(small_trace, inner, ReusePlan(small_trace.n_layers, 1))
        for l in range(small_trace.n_layers):
            for h in range(small_trace.n_heads):
                assert kept[l][h].positions == pure[l][h].positions

    def test_nested_hybrid_rejected(self):
        budget = BudgetSpec(max_len=12, w=4, c=5)
        inner = PolicySpec("ChunkKV", budget)
        hy = PolicySpec("Hybrid", budget, split=1, inner_a=inner, inner_b=inner)
        with pytest.raises(ValueError):
            PolicySpec("Hybrid", budget, split=1, inner_a=hy, inner_b=inner)

    def test_split_below_one_rejected(self):
        budget = BudgetSpec(max_len=12, w=4, c=5)
        inner = PolicySpec("ChunkKV", budget)
        with pytest.raises(ValueError, match="split"):
            PolicySpec("Hybrid", budget, split=0, inner_a=inner, inner_b=inner)


ALL_KINDS = ["FullKV", "ChunkKV", "SnapKVStyle", "H2OStyle", "StreamingStyle", "PyramidStyle"]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_budget_and_recency_law(kind, small_trace):
    t = small_trace.seq_len
    from kvlab.policies import resolved_layer_budgets

    for max_len in (8, 14, 20, t):
        w = 4
        budget = BudgetSpec(max_len=max_len, w=w, c=3)
        spec = PolicySpec(kind, budget, pool_width=3, sink=2, skew=0.1)
        kept = run_with_reuse(small_trace, spec, ReusePlan(small_trace.n_layers, 1))
        budgets = resolved_layer_budgets(spec, small_trace.n_layers, t)
        for l in range(small_trace.n_layers):
            for h in range(small_trace.n_heads):
                ks = kept[l][h]
                if kind == "FullKV":
                    assert ks.positions == tuple(range(t))
                else:
                    assert len(ks) <= budgets[l]
                assert set(range(t - w, t)) <= ks.as_set()
                pos = ks.positions
                assert all(pos[i] < pos[i + 1] for i in range(len(pos) - 1))


@pytest.fixture(scope="module")
def law_model():
    return init_model(ModelConfig(n_layers=4, n_heads=2, head_dim=8, vocab_size=64, seed=11))


@st.composite
def law_budgets(draw):
    w, c = draw(st.integers(0, 8)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        return BudgetSpec(ratio=draw(st.floats(0.01, 1.0)), w=w, c=c)
    return BudgetSpec(max_len=w + draw(st.integers(0, 80)), w=w, c=c)


LAW_PLAIN_SPECS = st.builds(
    PolicySpec,
    kind=st.sampled_from(ALL_KINDS),
    budget=law_budgets(),
    pool_width=st.sampled_from([1, 3, 5]),
    sink=st.integers(0, 6),
    skew=st.sampled_from([0.0, 0.3]),
    head_pool=st.booleans(),
    h2o_normalize=st.sampled_from(["exposure", "none"]),
)
LAW_SPECS = LAW_PLAIN_SPECS | st.builds(
    PolicySpec,
    kind=st.just("Hybrid"),
    budget=law_budgets(),
    split=st.integers(1, 4),
    inner_a=LAW_PLAIN_SPECS,
    inner_b=LAW_PLAIN_SPECS,
)


@settings(max_examples=200, deadline=None)
@given(
    spec=LAW_SPECS,
    t=st.integers(1, 80),
    seed=st.integers(0, 2**32),
    n_reuse=st.integers(1, 4),
)
def test_policy_laws(law_model, spec, t, seed, n_reuse):
    # budget, recency window, chunk integrity and reuse set-equality, per
    # layer and head, on a 4-layer, 2-head prefill of a seeded prompt
    try:
        budgets = resolved_layer_budgets(spec, 4, t)
    except ValueError:
        assume(False)
    trace = prefill(law_model, random_tokens(64, t, seed),
                    max(1, observe_rows([spec])), reads_col_mass([spec]))
    kept = run_with_reuse(trace, spec, ReusePlan(4, 1))
    reused = run_with_reuse(trace, spec, ReusePlan(4, n_reuse))
    for l in range(4):
        layer = spec if spec.kind != "Hybrid" else spec.inner_a if l < spec.split else spec.inner_b
        b = layer.budget
        for h in range(2):
            pos = kept[l][h].as_set()
            if layer.kind == "FullKV" or budgets[l] >= t:
                assert pos == set(range(t))
            else:
                assert len(pos) <= budgets[l]
            if layer.kind == "StreamingStyle":
                recent = range(max(0, t - (budgets[l] - layer.sink)), t)
                assert pos == set(range(min(layer.sink, t))) | set(recent)
            else:
                assert set(range(t - min(b.w, t), t)) <= pos
            if layer.kind == "ChunkKV":
                for p in pos:
                    if p < t - b.w:
                        i = p // b.c
                        assert set(range(i * b.c, min(i * b.c + b.c, t))) <= pos
            assert reused[l][h] == kept[l - l % n_reuse][h]


@st.composite
def shared_rule_calls(draw):
    """(layer, spec) calls of one or two kinds over two layers and few field values,
    so that most scoring rules recur under other budgets and calls differing in
    one rule field meet on a layer."""
    kinds = draw(st.lists(st.sampled_from(ALL_KINDS), min_size=1, max_size=2))

    def plain():
        w, c = draw(st.sampled_from([0, 2, 5])), draw(st.sampled_from([1, 3]))
        if draw(st.booleans()):
            budget = BudgetSpec(ratio=draw(st.floats(0.01, 1.0)), w=w, c=c)
        else:
            budget = BudgetSpec(max_len=w + draw(st.integers(0, 40)), w=w, c=c)
        return PolicySpec(
            draw(st.sampled_from(kinds)),
            budget,
            pool_width=draw(st.sampled_from([1, 3])),
            sink=draw(st.integers(0, 4)),
            skew=draw(st.sampled_from([0.0, 0.3])),
            head_pool=draw(st.booleans()),
            h2o_normalize=draw(st.sampled_from(["exposure", "none"])),
        )

    def spec():
        if draw(st.integers(0, 4)) == 0:
            split = draw(st.integers(1, 2))
            return PolicySpec("Hybrid", BudgetSpec(ratio=0.5), split=split,
                              inner_a=plain(), inner_b=plain())
        return plain()

    return [(draw(st.integers(0, 1)), spec()) for _ in range(draw(st.integers(1, 16)))]


def _one_field_apart() -> list:
    """Layer-0 calls whose scoring rules differ from the one before in one field each."""
    b = BudgetSpec(max_len=12, w=2, c=3)
    chunk = PolicySpec("ChunkKV", b)
    snap = PolicySpec("SnapKVStyle", b, pool_width=3)
    h2o = PolicySpec("H2OStyle", b)
    specs = [
        chunk, replace(chunk, budget=replace(b, w=5)), replace(chunk, budget=replace(b, c=1)),
        replace(chunk, head_pool=True),
        snap, replace(snap, budget=replace(b, w=5)), replace(snap, pool_width=1),
        replace(snap, head_pool=True), replace(snap, kind="PyramidStyle", skew=0.3),
        h2o, replace(h2o, h2o_normalize="none"), replace(h2o, head_pool=True),
        PolicySpec("Hybrid", b, split=1, inner_a=replace(snap, budget=replace(b, max_len=20)),
                   inner_b=chunk),
    ]
    return [(0, spec) for spec in specs]


@settings(max_examples=200, deadline=None)
@example(calls=_one_field_apart(), t=40, seed=1, synthetic=False)
@given(
    calls=shared_rule_calls(),
    t=st.integers(1, 48),
    seed=st.integers(0, 2**32),
    synthetic=st.booleans(),
)
def test_a_shared_ranking_memo_keeps_what_fresh_selection_keeps(law_model, calls, t, seed, synthetic):
    # the source's memo across a sequence of (layer, spec): each budget cuts the
    # ranking an earlier spec of its scoring rule left, and keeps the sets
    # compress_layer keeps on a copy of the source with an empty memo
    def valid(spec):
        try:
            resolved_layer_budgets(spec, 4, t)
        except ValueError:
            return False
        return True

    calls = [(l, spec) for l, spec in calls if valid(spec)]
    assume(calls)
    specs = [spec for _, spec in calls]
    if synthetic:
        source = ScoreMatrices(tuple(random_scores(4, t, seed + l) for l in range(4)))
    else:
        source = prefill(law_model, random_tokens(64, t, seed),
                         max(1, observe_rows(specs)), reads_col_mass(specs))
    for l, spec in calls:
        assert compress_layer(source, l, spec) == compress_layer(replace(source), l, spec)
    assert all(key[0] == "ranking" for key in source.memo)


def test_a_hybrid_cuts_the_ranking_its_inner_policy_left():
    # the memo reaches a Hybrid's inner policies: a plain ChunkKV and a Hybrid
    # over it at another budget find one ranking per layer
    source = ScoreMatrices(tuple(random_scores(4, 40, l) for l in range(2)))
    chunk = PolicySpec("ChunkKV", BudgetSpec(max_len=12, w=2, c=3))
    hybrid = PolicySpec("Hybrid", BudgetSpec(ratio=0.5), split=1,
                        inner_a=replace(chunk, budget=replace(chunk.budget, max_len=20)),
                        inner_b=PolicySpec("H2OStyle", BudgetSpec(max_len=12)))
    for l, spec in [(0, chunk), (1, chunk), (0, hybrid), (1, hybrid)]:
        assert compress_layer(source, l, spec) == compress_layer(replace(source), l, spec)
    assert sorted(l for _, l, _ in source.memo) == [0, 1, 1]  # layer 1's Hybrid ranks as H2OStyle


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_observe_rows_are_the_rows_compress_layer_reads(small_model, kind):
    # a trace with observe_rows(specs) rows (prefill keeps at least 1) runs
    # every layer; one row fewer is too few for a row reader
    budget = BudgetSpec(max_len=12, w=6, c=3)
    if kind == "Hybrid":  # its own w (9) counts for nothing; inner_b reads 5 rows
        inner_b = PolicySpec("ChunkKV", replace(budget, w=5))
        spec = PolicySpec(kind, replace(budget, w=9), split=1,
                          inner_a=PolicySpec("H2OStyle", budget), inner_b=inner_b)
    else:
        spec = PolicySpec(kind, budget)
    n = observe_rows([spec])
    assert n == {"ChunkKV": 6, "SnapKVStyle": 6, "PyramidStyle": 6, "Hybrid": 5}.get(kind, 0)
    tokens = random_tokens(64, 40, seed=5)
    trace = prefill(small_model, tokens, observe_rows=max(1, n))
    for l in range(trace.n_layers):
        assert len(compress_layer(trace, l, spec)) == trace.n_heads
    if n:
        fewer = prefill(small_model, tokens, observe_rows=n - 1)
        with pytest.raises(ValueError, match=f"w={n} exceeds the {n - 1} observe rows"):
            for l in range(fewer.n_layers):
                compress_layer(fewer, l, spec)


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_col_mass_is_built_for_the_policies_that_read_it(small_model, kind):
    # H2OStyle ranks col_mass, also as a Hybrid's inner policy; on a trace
    # prefilled without it, compress_layer raises a ValueError that names it
    budget = BudgetSpec(max_len=12, w=6, c=3)
    if kind == "Hybrid":
        spec = PolicySpec(kind, budget, split=1, inner_a=PolicySpec("ChunkKV", budget),
                          inner_b=PolicySpec("H2OStyle", budget))
    else:
        spec = PolicySpec(kind, budget)
    reads = reads_col_mass([spec])
    assert reads == (kind in ("H2OStyle", "Hybrid"))
    tokens = random_tokens(64, 40, seed=5)
    trace = prefill(small_model, tokens, observe_rows=6, col_mass=reads)
    assert (trace.col_mass is None) == (not reads)
    for l in range(trace.n_layers):
        assert len(compress_layer(trace, l, spec)) == trace.n_heads
    if reads:
        bare = prefill(small_model, tokens, observe_rows=6, col_mass=False)
        with pytest.raises(ValueError, match="H2OStyle reads col_mass"):
            for l in range(bare.n_layers):
                compress_layer(bare, l, spec)


def test_needle_preservation_vs_token_policy():
    # a chunk-aligned span with uniformly dominant scores is kept whole by
    # chunk selection; token-level top-k with a sub-span budget cannot
    t, c, w = 30, 5, 2
    rng = np.random.Generator(np.random.Philox(key=9))
    noise = rng.uniform(0, 1, size=(2, t)).astype(np.float32)
    span = range(10, 15)
    scores = noise.copy()
    scores[:, 10:15] += np.float32(t)

    kept_chunk = chunkkv_from_scores(scores, c, w, max_len=w + c)
    assert set(span) <= kept_chunk.as_set()

    budget = w + len(span) - 1  # strictly between w and span + w
    col = scores.sum(axis=0, dtype=np.float64)
    kept_token = topk_from_scores(col, w, budget)
    assert not set(span) <= kept_token.as_set()
    assert len(set(span) & kept_token.as_set()) > 0


def test_head_pool_gives_identical_sets_across_heads(small_trace):
    spec = PolicySpec("ChunkKV", BudgetSpec(max_len=12, w=4, c=5), head_pool=True)
    kept = run_with_reuse(small_trace, spec, ReusePlan(small_trace.n_layers, 1))
    for l in range(small_trace.n_layers):
        assert all(
            kept[l][h].positions == kept[l][0].positions
            for h in range(small_trace.n_heads)
        )


@pytest.mark.parametrize("head_pool", [False, True])
@pytest.mark.parametrize("kind", ALL_KINDS + ["Hybrid"])
def test_score_source_matches_selection_primitives(kind, head_pool):
    # a synthetic source hands every policy its layer's matrix as given; H2O
    # ranks plain column sums because no causal mask shaped the scores
    t, w, c, max_len, n_layers = 40, 4, 5, 14, 3
    mats = tuple(random_scores(w, t, seed) for seed in range(n_layers))
    budget = BudgetSpec(max_len=max_len, w=w, c=c)
    inner = dict(pool_width=3, sink=2, skew=0.2, head_pool=head_pool)
    if kind == "Hybrid":
        spec = PolicySpec(
            kind, budget, split=1,
            inner_a=PolicySpec("H2OStyle", budget, **inner),
            inner_b=PolicySpec("PyramidStyle", budget, **inner),
        )
    else:
        spec = PolicySpec(kind, budget, **inner)
    pyramid = pyramid_budgets(max_len, n_layers, 0.2, min_budget=w + c)
    for l in range(n_layers):
        k = kind if kind != "Hybrid" else ("H2OStyle" if l < 1 else "PyramidStyle")
        a = mats[l]
        col = a.sum(axis=0, dtype=np.float64)
        if k == "FullKV":
            want = tuple(range(t))
        elif k == "ChunkKV":
            want = chunkkv_from_scores(a, c, w, max_len).positions
        elif k == "SnapKVStyle":
            want = topk_from_scores(max_pool_1d(col, 3), w, max_len).positions
        elif k == "PyramidStyle":
            want = topk_from_scores(max_pool_1d(col, 3), w, pyramid[l]).positions
        elif k == "H2OStyle":
            want = topk_from_scores(col, w, max_len).positions
        else:
            want = streaming_compress(t, 2, max_len).positions
        got = compress_layer(ScoreMatrices(mats), l, spec)
        assert [kept.positions for kept in got] == [want]


@pytest.mark.parametrize("head_pool", [False, True])
@pytest.mark.parametrize("kind", ["ChunkKV", "SnapKVStyle", "PyramidStyle", "H2OStyle"])
def test_compress_layer_makes_one_cut_per_ranking(small_trace, monkeypatch, kind, head_pool):
    # the budget is below T = 40, so every kind ranks and cuts: one
    # chunkkv_from_scores call per head, or one pooled; none via topk_from_scores
    calls = {"chunkkv_from_scores": 0, "topk_from_scores": 0}

    def counting(name):
        inner = getattr(kvlab.policies, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(kvlab.policies, name, counting(name))
    trace = replace(small_trace)  # an empty memo: this call ranks afresh
    spec = PolicySpec(kind, BudgetSpec(ratio=0.25, w=4, c=5), pool_width=3, head_pool=head_pool)
    assert resolved_layer_budgets(spec, trace.n_layers, trace.seq_len)[0] < trace.seq_len
    kept = compress_layer(trace, 0, spec)
    assert len(kept) == trace.n_heads
    cuts = 1 if head_pool else trace.n_heads
    assert calls == {"chunkkv_from_scores": cuts, "topk_from_scores": 0}


def test_pyramid_zero_skew_equals_snapkv_on_scores():
    # the pooled neighbours of a zeroed span column keep it under both
    case = NeedleCase(seq_len=200, span_start=50, span_len=10, signal=50.0, weak_offset=4)
    source = ScoreMatrices((make_needle_case(case, observe_rows=8),) * 4)
    budget = BudgetSpec(ratio=0.1, w=8, c=10)
    snap = PolicySpec("SnapKVStyle", budget, pool_width=3)
    pyramid = PolicySpec("PyramidStyle", budget, pool_width=3, skew=0.0)
    for l in range(source.n_layers):
        kept = compress_layer(source, l, pyramid)[0]
        assert kept.positions == compress_layer(source, l, snap)[0].positions
        assert 54 in kept.as_set()


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([97, 256, 512]),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.01, max_value=1.0),
    st.integers(min_value=0, max_value=16),
)
def test_chunkkv_one_token_chunks_equal_snapkv_top_k(small_model, t, seed, ratio, w):
    # ChunkKV with one-token chunks is SnapKV's token top-k (pool width 1).
    # Per head only: head pooling averages float32 matrices in ChunkKV and
    # float64 column sums in SnapKVStyle, so pooled ties may break apart.
    budget = BudgetSpec(ratio=ratio, w=w, c=1)
    trace = prefill(small_model, random_tokens(64, t, seed), observe_rows=max(w, 1))
    chunk = PolicySpec("ChunkKV", budget)
    snap = PolicySpec("SnapKVStyle", budget, pool_width=1)
    for l in range(trace.n_layers):
        got = compress_layer(trace, l, chunk)
        want = compress_layer(trace, l, snap)
        assert [k.positions for k in got] == [k.positions for k in want]
