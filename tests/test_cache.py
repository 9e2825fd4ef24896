from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kvlab.cache import BudgetSpec, KeptIndices, memory_bytes
from kvlab.policies import chunk_order, chunkkv_from_scores


def make_layer_kv(seq_len=6, heads=2, dim=3, seed=0):
    """One layer's per-head K and V, as (keys, values) tuples of seq_len x dim float32 arrays."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    ks = tuple(rng.normal(size=(seq_len, dim)).astype(np.float32) for _ in range(heads))
    vs = tuple(rng.normal(size=(seq_len, dim)).astype(np.float32) for _ in range(heads))
    return ks, vs


class TestMemoryBytes:
    def test_llama3_2048_is_one_gib(self):
        assert memory_bytes(batch=1, seq=2048, layers=32, heads=32, head_dim=128) == 1_073_741_824

    def test_base_case(self):
        assert memory_bytes(1, 1, 1, 1, 1, precision_bytes=1) == 2

    def test_batch_24_exceeds_rtx4090(self):
        total = memory_bytes(batch=24, seq=2048, layers=32, heads=32, head_dim=128)
        assert total == 25_769_803_776
        assert total > 24 * 10**9  # over an RTX-4090-class 24 GB

    @given(
        st.integers(1, 100),
        st.integers(1, 10_000),
        st.integers(1, 128),
        st.integers(1, 128),
        st.integers(1, 512),
    )
    def test_multiplicative_in_every_field(self, b, s, l, n, d):
        base = memory_bytes(b, s, l, n, d)
        assert memory_bytes(2 * b, s, l, n, d) == 2 * base
        assert memory_bytes(b, 2 * s, l, n, d) == 2 * base
        assert memory_bytes(b, s, 2 * l, n, d) == 2 * base
        assert memory_bytes(b, s, l, 2 * n, d) == 2 * base
        assert memory_bytes(b, s, l, n, 2 * d) == 2 * base

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            memory_bytes(0, 1, 1, 1, 1)

    @pytest.mark.parametrize(
        "name", ["batch", "seq", "layers", "heads", "head_dim", "precision_bytes"]
    )
    def test_rejection_names_the_argument(self, name):
        args = dict(batch=1, seq=1, layers=1, heads=1, head_dim=1, precision_bytes=1)
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got -3$"):
            memory_bytes(**{**args, name: -3})


class TestBudgetSpec:
    def test_ratio_resolution_floors(self):
        b = BudgetSpec(ratio=0.1, w=2, c=3)
        assert b.resolve(100) == 10
        assert b.resolve(7) == 5  # floor(0.7) < w + c

    def test_max_len_passthrough(self):
        assert BudgetSpec(max_len=12, w=2, c=3).resolve(100) == 12

    def test_exactly_one_mode(self):
        with pytest.raises(ValueError):
            BudgetSpec(max_len=5, ratio=0.5)
        with pytest.raises(ValueError):
            BudgetSpec()

    def test_max_len_below_w_rejected(self):
        with pytest.raises(ValueError):
            BudgetSpec(max_len=2, w=4)


def test_kept_indices_reject_unsorted():
    with pytest.raises(ValueError):
        KeptIndices((3, 1))
    with pytest.raises(ValueError):
        KeptIndices((1, 1))
    with pytest.raises(ValueError):
        KeptIndices((-1,))


def _loops_reject(pos) -> bool:
    """The two per-position loops KeptIndices once checked with, as the oracle."""
    return any(p < 0 for p in pos) or any(pos[i] >= pos[i + 1] for i in range(len(pos) - 1))


_DRAWN = st.lists(st.integers(-3, 40), max_size=30)  # duplicates, any order, empty
_ITERABLES = st.one_of(
    _DRAWN,
    _DRAWN.map(lambda xs: np.array(xs, dtype=np.int64)),
    st.builds(range, st.integers(0, 40), st.integers(0, 40), st.sampled_from([-3, -1, 1, 2, 5])),
)
_TUPLES = st.one_of(
    _DRAWN.map(tuple),
    st.sets(st.integers(-3, 40), max_size=30).map(lambda s: tuple(sorted(s))),
    st.sets(st.integers(0, 40), max_size=30).map(lambda s: tuple(np.array(sorted(s), np.int64))),
)


@given(_ITERABLES)
def test_kept_indices_from_iterable_sorts_and_deduplicates(xs):
    want = tuple(sorted(set(int(x) for x in xs)))
    if _loops_reject(want):
        with pytest.raises(ValueError):
            KeptIndices.from_iterable(xs)
        return
    got = KeptIndices.from_iterable(xs).positions
    assert got == want
    assert all(type(p) is int for p in got)


@given(_TUPLES)
def test_kept_indices_reject_exactly_what_the_loops_rejected(pos):
    if _loops_reject(pos):
        with pytest.raises(
            ValueError, match="^positions must be non-negative and strictly increasing$"
        ):
            KeptIndices(pos)
    else:
        assert KeptIndices(pos).positions == pos


def test_kept_indices_hash_once_and_equal_sets_are_one_key():
    # the hash is the positions' own, computed at construction and read back, and
    # adds no field: equality, repr and fields() see the positions alone
    k = KeptIndices.from_iterable([7, 2, 2, 5])
    assert hash(k) == hash(k.positions) == hash((2, 5, 7))
    assert repr(k) == "KeptIndices(positions=(2, 5, 7))"
    assert [f.name for f in fields(KeptIndices)] == ["positions"]
    # two cuts of one score row, one ranked here and one by the cut itself
    scores = np.array([[0.5, 0.1, 0.9, 0.3, 0.7, 0.2, 0.8, 0.4]], dtype=np.float32)
    a = chunkkv_from_scores(scores, 2, 2, 6)
    b = chunkkv_from_scores(scores, 2, 2, 6, chunk_order(scores, 2))
    assert a is not b and a == b
    assert {a: "first", b: "second"} == {a: "second"}
