"""Kept-index sets, the decode-stage KV memory formula, and cache budgets."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np


@dataclass(frozen=True)
class KeptIndices:
    """Sorted, deduplicated token positions retained for one (layer, head).

    The hash of the positions is computed once, at construction: kept sets
    key the fidelity pass's per-layer dicts and a report's digests.
    """

    positions: tuple[int, ...]

    def __post_init__(self):
        pos = self.positions  # checked in one pass: from_iterable is what sorts and deduplicates
        if (pos and pos[0] < 0) or any(map(operator.ge, pos, pos[1:])):
            raise ValueError("positions must be non-negative and strictly increasing")
        object.__setattr__(self, "_hash", hash(pos))  # no field: ==, repr and fields() ignore it

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_iterable(cls, it: Iterable[int]) -> "KeptIndices":
        """The positions of it, sorted and deduplicated; input already strictly
        increasing (every selection's) passes with the constructor's one check."""
        pos = tuple(map(int, it))
        try:
            return cls(pos)
        except ValueError:  # out of order, repeated or negative: a negative raises again below
            pass
        return cls(tuple(sorted(set(pos))))

    def __len__(self) -> int:
        return len(self.positions)

    def __iter__(self):
        return iter(self.positions)

    def as_set(self) -> frozenset:
        return frozenset(self.positions)


def memory_bytes(
    batch: int, seq: int, layers: int, heads: int, head_dim: int, precision_bytes: int = 2
) -> int:
    """Exact KV cache bytes, 2 (K and V) * B * S * L * N * D * bytes; ``kvlab memory``'s flags."""
    for name, value in locals().items():  # the arguments, in order
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    return 2 * batch * seq * layers * heads * head_dim * precision_bytes


@dataclass(frozen=True)
class BudgetSpec:
    """Compressed-cache budget: absolute max length or a retention ratio.

    A ratio r resolves to max(w + c, floor(r * T)).  The observe window w
    is charged against every policy's budget; c is the chunk size used both
    by chunk selection and as the ratio-resolution floor.
    """

    max_len: Optional[int] = None
    ratio: Optional[float] = None
    w: int = 8
    c: int = 10

    def __post_init__(self):
        if (self.max_len is None) == (self.ratio is None):
            raise ValueError("exactly one of max_len / ratio must be set")
        if self.ratio is not None and not (0.0 < self.ratio <= 1.0):
            raise ValueError("ratio must be in (0, 1]")
        if self.c < 1:
            raise ValueError("chunk size c must be >= 1")
        if self.w < 0:
            raise ValueError("observe window w must be >= 0")
        if self.max_len is not None and self.max_len < self.w:
            raise ValueError("max_len must be >= w")

    def resolve(self, seq_len: int) -> int:
        if seq_len < 1:
            raise ValueError("seq_len must be >= 1")
        if self.max_len is not None:
            return self.max_len
        return max(self.w + self.c, int(np.floor(self.ratio * seq_len)))
