"""Span tracer that wraps kvlab's cross-module names from outside the package.

Each boundary names a module-level attribute through which one kvlab module
calls another (``kvlab.model._mm_t`` is how the model reaches the numerics
kernel).  ``Tracer.install`` replaces every such attribute with a wrapper that
records a span: boundary, start, end, parent span and a few exact counts taken
from the call's arguments or result.  Nothing inside ``src/kvlab`` changes.

A boundary that no longer exists (a later refactor deleted or renamed it) is
reported as missing, and a layer none of whose boundaries exist is reported as
unmeasured; neither is an error.
"""

from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass
from typing import Callable, Optional


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _shape(x) -> tuple:
    return getattr(x, "data", x).shape


def _madds(args, kwargs, result) -> dict:
    (m, d), (n, _) = _shape(args[0]), _shape(args[1])
    return {"madds": m * n * d}


def _elems(args, kwargs, result) -> dict:
    rows, cols = _shape(result)
    return {"elems": rows * cols}


def _positions(args, kwargs, result) -> dict:
    return {"positions": len(result)}


def _layer(args, kwargs, result) -> dict:
    return {"layer": _arg(args, kwargs, 1, "layer")}


def _plan(args, kwargs, result) -> dict:
    plan = _arg(args, kwargs, 2, "plan")
    anchors = len(range(0, plan.n_layers, plan.n_reuse))
    return {
        "n_layers": plan.n_layers,
        "n_reuse": plan.n_reuse,
        "anchor_layers": anchors,
        "copied_layers": plan.n_layers - anchors,
    }


def _cell(args, kwargs, result) -> dict:
    return {"cells": 1}


@dataclass(frozen=True)
class Boundary:
    module: str
    attr: str  # dotted path below the module, e.g. "KeptIndices.from_iterable"
    layer: str
    counts: Optional[Callable] = None  # (args, kwargs, result) -> {counter: value}


_SELECT = ("chunkkv_from_scores", "topk_from_scores", "max_pool_1d", "streaming_compress")

BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("kvlab.model", "_mm_t", "numerics.mm_t", _madds),
    Boundary("kvlab.policies", "matmul_transposed", "numerics.mm_t", _madds),
    Boundary("kvlab.model", "_causal_softmax", "numerics.softmax", _elems),
    Boundary("kvlab.policies", "causal_softmax_rows", "numerics.softmax", _elems),
    Boundary("kvlab.experiments", "prefill", "model.prefill"),
    Boundary("kvlab.experiments", "init_model", "model.init"),
    Boundary("kvlab.cache", "KeptIndices.from_iterable", "cache.kept", _positions),
    Boundary("kvlab.experiments", "run_policy", "policies.compress"),
    Boundary("kvlab.experiments", "compress_layer", "policies.compress", _layer),
    Boundary("kvlab.reuse", "compress_layer", "policies.compress", _layer),
    Boundary("kvlab.experiments", "compress_from_scores", "policies.compress"),
    Boundary("kvlab.policies", "observe_scores", "policies.observe"),
    *(Boundary("kvlab.policies", name, "policies.select") for name in _SELECT),
    *(Boundary("kvlab.experiments", name, "policies.select") for name in _SELECT),
    Boundary("kvlab.experiments", "run_with_reuse", "reuse.run", _plan),
    Boundary("kvlab.experiments", "adjacent_similarity", "reuse.similarity"),
    Boundary("kvlab.experiments", "similarity_matrix", "reuse.similarity"),
    Boundary("kvlab.experiments", "kv_l1_loss", "metrics.fidelity"),
    Boundary("kvlab.experiments", "attention_cosine", "metrics.fidelity"),
    Boundary("kvlab.experiments", "_final_row_attention", "metrics.fidelity"),
    Boundary("kvlab.experiments", "make_needle_case", "metrics.needle"),
    Boundary("kvlab.experiments", "needle_retention", "metrics.needle"),
    Boundary("kvlab.experiments", "run_sweep_cell", "experiments", _cell),
    Boundary("kvlab.experiments", "write_json", "experiments.write"),
    Boundary("kvlab.experiments", "csv.DictWriter.writeheader", "experiments.write"),
    Boundary("kvlab.experiments", "csv.DictWriter.writerow", "experiments.write"),
    *(
        Boundary("kvlab.cli", f"cmd_{name}", "experiments")
        for name in ("simulate", "sweep", "similarity", "needle", "reuse_bench")
    ),
)

# A span takes its parent's layer when the parent is one of these: the
# fidelity metric re-derives the final attention row through observe_scores,
# and that work belongs to the metric, not to a policy.
ADOPTED_BY = {"policies.observe": ("metrics.fidelity",)}


@dataclass
class Span:
    boundary: int
    start: float
    end: float
    parent: int
    counts: Optional[dict]


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self, boundaries: tuple[Boundary, ...] = BOUNDARIES):
        self.boundaries = boundaries
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._observed: set = set()

    def install(self) -> None:
        for i, b in enumerate(self.boundaries):
            try:
                owner = importlib.import_module(b.module)
                *path, name = b.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(f"{b.module}.{b.attr}")
                continue
            counts = self._observe_counts if b.layer == "policies.observe" else b.counts
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, i, counts))
            else:
                wrapped = self._wrap(raw, i, counts)
            self._restore.append((owner, name, raw))
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._restore):
            setattr(owner, name, raw)
        self._restore.clear()

    def _wrap(self, fn, index: int, counts):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            me = len(spans)
            span = Span(index, 0.0, 0.0, stack[-1] if stack else -1, None)
            spans.append(span)
            stack.append(me)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counts is not None:
                try:
                    span.counts = counts(args, kwargs, result)
                except Exception:  # noqa: BLE001 - a changed signature must not fail the command
                    span.counts = {"count_errors": 1}
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_counts(self, args, kwargs, result) -> dict:
        trace = _arg(args, kwargs, 0, "trace")
        key = (
            hash((trace.config, trace.tokens)),
            _arg(args, kwargs, 1, "layer"),
            _arg(args, kwargs, 2, "head"),
            _arg(args, kwargs, 3, "w"),
            args[4] if len(args) > 4 else kwargs.get("mode", "softmax"),
        )
        repeat = key in self._observed
        self._observed.add(key)
        return {"rows": _shape(result)[0], "repeat": int(repeat)}

    def layers(self) -> list[str]:
        return list(dict.fromkeys(b.layer for b in self.boundaries))

    def unmeasured_layers(self) -> list[str]:
        present = {b.layer for b in self.boundaries if f"{b.module}.{b.attr}" not in self.missing}
        return [layer for layer in self.layers() if layer not in present]

    def dump(self) -> list:
        """Spans as [boundary, start, end, parent, counts] rows for JSON."""
        names = [f"{b.module}.{b.attr}" for b in self.boundaries]
        return [[names[s.boundary], s.start, s.end, s.parent, s.counts] for s in self.spans]


def layer_table(tracer: Tracer) -> dict:
    """Self time, outermost calls and their total time, and counters per layer.

    A layer's self time is the time its spans cover minus the time their
    child spans cover; its total time is that of its outermost calls,
    including the layers they call.  A span whose parent is in the same
    layer (Hybrid's recursion, run_policy calling compress_layer) adds self
    time but not a call.
    """
    spans = tracer.spans
    layer_of: list[str] = []
    child_time = [0.0] * len(spans)
    for s in spans:
        layer = tracer.boundaries[s.boundary].layer
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
            if layer_of[s.parent] in ADOPTED_BY.get(layer, ()):
                layer = layer_of[s.parent]
        layer_of.append(layer)

    table = {
        layer: {"self_s": 0.0, "total_s": 0.0, "calls": 0, "spans": 0}
        for layer in tracer.layers()
    }
    for i, s in enumerate(spans):
        row = table[layer_of[i]]
        row["self_s"] += (s.end - s.start) - child_time[i]
        row["spans"] += 1
        if s.parent < 0 or layer_of[s.parent] != layer_of[i]:
            row["calls"] += 1
            row["total_s"] += s.end - s.start
        for key, value in (s.counts or {}).items():
            row[key] = row.get(key, 0) + value
    return table


def reuse_costs(tracer: Tracer) -> dict:
    """Per-layer-index compress time and reuse-loop time by n_reuse.

    Compress spans are those of ``kvlab.reuse.compress_layer``, the anchor
    layer compressions inside ``run_with_reuse``.
    """
    compress: dict[int, list[float]] = {}
    loop_s: dict[int, float] = {}
    n_layers = 0
    for s in tracer.spans:
        b, counts = tracer.boundaries[s.boundary], s.counts or {}
        if b.module == "kvlab.reuse" and b.attr == "compress_layer" and "layer" in counts:
            compress.setdefault(counts["layer"], []).append(s.end - s.start)
        elif b.layer == "reuse.run" and "n_reuse" in counts:
            n = counts["n_reuse"]
            loop_s[n] = loop_s.get(n, 0.0) + (s.end - s.start)
            n_layers = counts["n_layers"]
    return {
        "n_layers": n_layers,
        "compress_s_by_layer": {str(k): sum(v) / len(v) for k, v in sorted(compress.items())},
        "compress_calls_by_layer": {str(k): len(v) for k, v in sorted(compress.items())},
        "loop_s_by_n_reuse": {str(k): v for k, v in sorted(loop_s.items())},
    }
