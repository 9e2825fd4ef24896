import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kvlab.cache import BudgetSpec, KeptIndices
from kvlab.policies import PolicySpec, compress_layer
from kvlab.reuse import (
    ReusePlan,
    adjacent_similarity,
    jaccard,
    modeled_micros,
    run_with_reuse,
    similarity_matrix,
    speedup_estimate,
)


def ki(*positions):
    return KeptIndices.from_iterable(positions)


def per_layer(trace, spec):
    return [compress_layer(trace, l, spec) for l in range(trace.n_layers)]


class TestJaccard:
    def test_half_overlap(self):
        assert jaccard(ki(1, 2, 3), ki(2, 3, 4)) == 0.5

    def test_identical(self):
        assert jaccard(ki(1, 5, 9), ki(1, 5, 9)) == 1.0

    def test_disjoint(self):
        assert jaccard(ki(1, 2), ki(3, 4)) == 0.0

    def test_both_empty(self):
        assert jaccard(KeptIndices(()), KeptIndices(())) == 1.0

    @given(
        st.frozensets(st.integers(0, 30), max_size=10),
        st.frozensets(st.integers(0, 30), max_size=10),
    )
    def test_bounds_and_symmetry(self, a, b):
        s = jaccard(KeptIndices.from_iterable(a), KeptIndices.from_iterable(b))
        assert 0.0 <= s <= 1.0
        assert s == jaccard(KeptIndices.from_iterable(b), KeptIndices.from_iterable(a))


class TestRunWithReuse:
    SPEC = PolicySpec("ChunkKV", BudgetSpec(max_len=14, w=4, c=5))

    def test_n_reuse_1_equals_independent(self, small_trace):
        plan = ReusePlan(small_trace.n_layers, 1)
        reused = run_with_reuse(small_trace, self.SPEC, plan)
        fresh = per_layer(small_trace, self.SPEC)
        for l in range(small_trace.n_layers):
            for h in range(small_trace.n_heads):
                assert reused[l][h].positions == fresh[l][h].positions

    def test_full_reuse_copies_layer_zero(self, small_trace):
        plan = ReusePlan(small_trace.n_layers, small_trace.n_layers)
        reused = run_with_reuse(small_trace, self.SPEC, plan)
        for l in range(small_trace.n_layers):
            for h in range(small_trace.n_heads):
                assert reused[l][h].positions == reused[0][h].positions

    def test_anchor_copy_oracle(self, small_trace):
        # 3-layer trace, n_reuse=2: layer 1 copies layer 0, layer 2 is fresh
        plan = ReusePlan(small_trace.n_layers, 2)
        reused = run_with_reuse(small_trace, self.SPEC, plan)
        fresh = per_layer(small_trace, self.SPEC)
        for h in range(small_trace.n_heads):
            assert reused[1][h].positions == reused[0][h].positions
            assert reused[2][h].positions == fresh[2][h].positions

    def test_plan_mismatch_rejected(self, small_trace):
        with pytest.raises(ValueError):
            run_with_reuse(small_trace, self.SPEC, ReusePlan(small_trace.n_layers + 1, 2))

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ReusePlan(4, 5)
        with pytest.raises(ValueError):
            ReusePlan(4, 0)


class TestAdjacentSimilarity:
    def test_identical_layers(self):
        assert adjacent_similarity([ki(1, 2)] * 4 ) == 1.0

    def test_alternating_disjoint(self):
        assert adjacent_similarity([ki(0), ki(1), ki(0), ki(1)]) == 0.0

    def test_arithmetic(self):
        got = adjacent_similarity([ki(1, 2), ki(2, 3), ki(2, 3)])
        assert got == pytest.approx((1 / 3 + 1.0) / 2)

    def test_single_layer_rejected(self):
        with pytest.raises(ValueError):
            adjacent_similarity([ki(1)])


class TestSimilarityMatrix:
    def test_single_layer(self):
        m = similarity_matrix([ki(3, 4)])
        assert len(m) == 1 and m == ((1.0,),)

    def test_two_identical_layers(self):
        m = similarity_matrix([ki(1, 2), ki(1, 2)])
        assert m == ((1.0, 1.0), (1.0, 1.0))

    def test_symmetric_unit_diagonal(self, small_trace):
        kept = per_layer(small_trace, TestRunWithReuse.SPEC)
        m = similarity_matrix([kept[l][0] for l in range(small_trace.n_layers)])
        for i in range(len(m)):
            assert m[i][i] == 1.0
            for j in range(len(m)):
                assert m[i][j] == m[j][i]
                assert m[i][j] == jaccard(kept[i][0], kept[j][0])

    def test_each_layer_set_built_once(self, monkeypatch):
        # the pairwise jaccard bits, from one frozenset per layer, not two per pair
        layers = [ki(*range(l, 3 * l + 5)) for l in range(8)]
        want = tuple(tuple(jaccard(a, b) for b in layers) for a in layers)
        built = []
        real = KeptIndices.as_set
        monkeypatch.setattr(KeptIndices, "as_set", lambda self: built.append(self) or real(self))
        assert similarity_matrix(layers) == want
        assert built == layers


class TestSpeedupEstimate:
    def test_negligible_select_gives_n_reuse(self):
        assert speedup_estimate(32, 4, 1.0, 0.0) == pytest.approx(4.0)

    def test_no_reuse_is_unity(self):
        assert speedup_estimate(32, 1, 3.7, 0.4) == pytest.approx(1.0)

    def test_worked_formula(self):
        assert speedup_estimate(32, 2, 10.0, 1.0) == pytest.approx(320 / 176)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
    def test_divisor_identity(self, n):
        assert speedup_estimate(32, n, 2.5, 0.0) == pytest.approx(float(n))

    def test_non_dividing_counts_anchor_layers(self):
        # 8 layers at n_reuse 3 compress layers 0, 3 and 6: 3 anchors, not 8 / 3
        assert speedup_estimate(8, 3, 1.0, 0.0) == 8 / 3
        costs = [modeled_micros(8, n, 10.0, 1.0) for n in (1, 3)]
        assert speedup_estimate(8, 3, 10.0, 1.0) == costs[0] / costs[1]
        plan = ReusePlan(n_layers=8, n_reuse=3)
        assert sum(plan.anchor(l) == l for l in range(8)) == 3

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            speedup_estimate(32, 2, 0.0, 1.0)
        with pytest.raises(ValueError):
            speedup_estimate(32, 2, 1.0, -1.0)
