"""Fidelity diagnostics and the synthetic needle-retention harness.

The loss/similarity definitions here are artifact-local operationalizations
used for cross-policy comparison: evicted-mass L1 over the full cache, and
cosine between a final-row attention distribution and its zero-masked
(unrenormalized) counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cache import KeptIndices
from .numerics import _frozen, check_seed


@dataclass(frozen=True)
class NeedleCase:
    """A contiguous high-signal span planted in uniform noise scores.

    weak_offset, when set, zeroes one span column so token-level selection
    can drop it while the chunk sum still dominates.
    """

    seq_len: int
    span_start: int
    span_len: int
    signal: float
    seed: int = 0
    weak_offset: Optional[int] = None

    def __post_init__(self):
        if self.span_len < 1 or self.span_start < 0:
            raise ValueError("span must be non-empty and start at >= 0")
        if self.span_start + self.span_len > self.seq_len:
            raise ValueError("span must lie within [0, seq_len)")
        if self.weak_offset is not None and not (0 <= self.weak_offset < self.span_len):
            raise ValueError("weak_offset must index into the span")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.float32(self.signal)):  # the scores are float32
                raise ValueError(f"signal must be finite in float32, got {self.signal!r}")
        check_seed(self.seed)

    @property
    def span(self) -> range:
        return range(self.span_start, self.span_start + self.span_len)


def kv_magnitudes(keys: Sequence[np.ndarray], values: Sequence[np.ndarray]) -> np.ndarray:
    """|K| and |V| of every head of one layer, stacked K0, V0, K1, V1, ... (2H x T x D)."""
    return np.abs(np.stack([m for kv in zip(keys, values) for m in kv]))


def kv_l1_loss(mags: np.ndarray, kept: KeptIndices) -> float:
    """Absolute K/V mass at evicted positions over the total entry count.

    mags is one layer's `kv_magnitudes` stack, and kept is charged against
    every head in it: callers that pass one head's kept set measure "every
    head of the layer evicts this head's set", not that head's own evicted
    mass.  One gather from the stack, then one float64 sum per array, added
    in K0, V0, K1, V1, ... order: the bits of summing each head's gathered
    |K| and |V| on its own.  The gather must come out C-contiguous
    (``np.compress``; ``mags[:, evicted]`` is position-major), since numpy's
    buffered sum rounds by memory layout once an array passes 8192 elements.
    """
    seq_len = mags.shape[1]
    if kept.positions and kept.positions[-1] >= seq_len:
        raise ValueError("kept index out of range")
    evicted = np.ones(seq_len, dtype=bool)
    evicted[np.asarray(kept.positions, dtype=np.intp)] = False
    lost = 0.0
    for s in np.compress(evicted, mags, axis=1).sum(axis=(1, 2), dtype=np.float64):
        lost += float(s)
    return lost / mags.size


def attention_cosine(full_attn_row: np.ndarray, kept: KeptIndices) -> float:
    """Cosine between a distribution and its zero-masked restriction.

    One dot product serves as both p . masked and |masked|^2: the two have the
    same products, and |p| is the sqrt of p . p, as np.linalg.norm takes it.
    A kept index past the row's end fails the gather (IndexError).
    """
    p = full_attn_row.reshape(-1).astype(np.float64)
    masked = np.zeros_like(p)
    idx = np.asarray(kept.positions, dtype=np.intp)
    masked[idx] = p[idx]
    dot = float(masked.dot(masked))
    norm = math.sqrt(p.dot(p)) * math.sqrt(dot)
    if norm == 0:
        return 0.0
    return dot / norm


def make_needle_case(case: NeedleCase, observe_rows: int = 1) -> np.ndarray:
    """Synthetic observe-window score matrix realizing a needle regime.

    Columns inside the span get signal added on top of noise; a weak_offset
    column is forced to zero.  Deterministic in the seed; the float32
    observe_rows x seq_len matrix is read-only.
    """
    rng = np.random.Generator(np.random.Philox(key=case.seed))
    scores = rng.uniform(0.0, 1.0, size=(observe_rows, case.seq_len))
    scores[:, case.span_start : case.span_start + case.span_len] += case.signal
    if case.weak_offset is not None:
        scores[:, case.span_start + case.weak_offset] = 0.0
    return _frozen(scores.astype(np.float32))


def needle_retention(kept: KeptIndices, case: NeedleCase) -> tuple[float, bool]:
    """Fraction of the needle span retained and whether it survived intact."""
    span = set(case.span)
    frac = len(kept.as_set() & span) / case.span_len
    return frac, frac == 1.0
