"""Experiment harness: config ingestion, simulation, sweeps, and reports.

Deterministic report data never mixes with wall-clock measurements: timing
goes to timings.json, everything else is reproducible byte-for-byte from
the config.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import json
import sys
import time
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .cache import BudgetSpec, KeptIndices, memory_bytes
from .metrics import (
    NeedleCase,
    attention_cosine,
    kv_l1_loss,
    kv_magnitudes,
    make_needle_case,
    needle_retention,
)
from .model import ModelConfig, PrefillTrace, init_model, prefill
from .numerics import check_seed
from .policies import (
    PolicySpec, ScoreMatrices, compress_layer, observe_rows, reads_col_mass, resolved_layer_budgets
)
from .reuse import (
    ReusePlan,
    adjacent_similarity,
    modeled_micros,
    run_with_reuse,
    similarity_matrix,
    speedup_estimate,
)


class ConfigError(ValueError):
    """Raised for malformed or invalid experiment configuration documents."""


SCHEMA_VERSION = 1

# prompt kind -> the PromptSpec fields its JSON object sets; a needle prompt's
# other keys are NeedleCase fields
PROMPT_KEYS = {
    "random": ("kind", "length", "seed"),
    "needle": ("kind", "observe_rows"),
}


@dataclass(frozen=True)
class PromptSpec:
    kind: str  # random | needle: a seeded draw of tokens, or of a needle's scores
    length: int = 0
    seed: int = 0
    needle: Optional[NeedleCase] = None
    observe_rows: int = 8

    def __post_init__(self):
        if self.kind == "random" and self.length < 1:
            raise ValueError("random prompt needs length >= 1")
        if self.observe_rows < 1:
            raise ValueError(f"observe_rows must be >= 1, got {self.observe_rows}")
        check_seed(self.seed)


@dataclass(frozen=True)
class ReuseSpec:
    n_reuse: int = 1


@dataclass(frozen=True)
class SweepSpec:
    """Sweep axes; an axis left out keeps the config's own value.

    Without `c` or `ratio` each policy keeps its own budget's, a Hybrid's
    inner policies theirs; without `n_reuse` the `reuse` plan's (1 if none);
    without `seeds` the prompt seed.
    """

    c: Optional[tuple[int, ...]] = None
    ratio: Optional[tuple[float, ...]] = None
    n_reuse: Optional[tuple[int, ...]] = None
    seeds: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config document.

    With the dataclasses its fields hold (ModelConfig, PromptSpec, PolicySpec,
    BudgetSpec, NeedleCase, ReuseSpec, SweepSpec) this is the JSON schema:
    every key is a field, every JSON type a field annotation and every
    default a field default.  The document's `schema` key is checked before
    the build; `raw` keeps the document as written, and a `sweep` that sets
    no axis is stored as None.
    """

    model: ModelConfig
    prompt: PromptSpec
    policies: tuple[PolicySpec, ...]
    reuse: Optional[ReuseSpec] = None
    sweep: Optional[SweepSpec] = None
    raw: Optional[dict] = None


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


_JSON_TYPES = {
    int: "an integer",
    float: "a finite number",
    str: "a string",
    bool: "true or false",
}


_type_hints = functools.cache(get_type_hints)


def _at(path: str, key: str | int) -> str:
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def _value(hint, value, path: str):
    """value as a field of type hint: Optional[X], a dataclass, tuple[X, ...] or a JSON scalar.

    JSON true/false never counts as a number, and a number in a float field
    is stored as a Python float.
    """
    if get_origin(hint) is Union:  # Optional[X]
        if value is None:
            return None
        hint = get_args(hint)[0]
    if is_dataclass(hint):
        return _build(hint, value, path)
    if get_origin(hint) is tuple:
        _require(isinstance(value, list), f"{path} must be a JSON list, got {value!r}")
        return tuple(_value(get_args(hint)[0], v, _at(path, i)) for i, v in enumerate(value))
    ok = isinstance(value, (int, float) if hint is float else hint)
    ok = ok and (hint is bool or not isinstance(value, bool))
    if ok and hint is float:
        ok = abs(value) <= sys.float_info.max  # finite, and an integer a float holds
    _require(ok, f"{path} must be {_JSON_TYPES[hint]}, got {value!r}")
    return float(value) if hint is float else value


def _build(cls, doc, path: str, keys: Optional[tuple[str, ...]] = None, **given):
    """The dataclass cls from the JSON object doc at path.

    doc may set the fields in keys (default: every field not in given); a
    missing key takes its field's default, an unknown key is an error.  The
    given fields come from the caller.  The dataclass's own ValueError is
    raised again as a ConfigError naming path.
    """
    _require(isinstance(doc, dict), f"{path} must be a JSON object, got {doc!r}")
    keys = keys or [f.name for f in fields(cls) if f.name not in given]
    for key in doc:
        _require(key in keys, f"unknown field {_at(path, key)}")
    for f in fields(cls):
        known = f.name in doc or f.name in given or f.default is not MISSING
        _require(known, f"missing field {_at(path, f.name)}")
    hints = _type_hints(cls)
    kwargs = {k: _value(hints[k], v, _at(path, k)) for k, v in doc.items()}
    try:
        return cls(**kwargs, **given)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def parse_prompt(doc) -> PromptSpec:
    _require(isinstance(doc, dict), f"prompt must be a JSON object, got {doc!r}")
    kind = doc.get("kind")
    _require(isinstance(kind, str) and kind in PROMPT_KEYS, f"unknown prompt kind {kind!r}")
    keys = PROMPT_KEYS[kind]
    if kind == "needle":
        case = _build(NeedleCase, {k: v for k, v in doc.items() if k not in keys}, "prompt")
        own = {k: v for k, v in doc.items() if k in keys}
        return _build(PromptSpec, own, "prompt", length=case.seq_len, seed=case.seed, needle=case)
    return _build(PromptSpec, doc, "prompt", keys)


def parse_config(doc) -> ExperimentConfig:
    _require(isinstance(doc, dict), "config must be a JSON object")
    schema = doc.get("schema")
    _require(type(schema) is int and schema == SCHEMA_VERSION, "config requires 'schema': 1")
    _require("prompt" in doc, "missing field prompt")
    body = {k: v for k, v in doc.items() if k not in ("schema", "prompt")}
    cfg = _build(ExperimentConfig, body, "", prompt=parse_prompt(doc["prompt"]), raw=doc)
    vocab, h, n_layers = cfg.model.vocab_size, cfg.model.hidden_dim, cfg.model.n_layers
    _require_bytes("model.n_heads * model.head_dim", 16 * h * h)  # a float64 feed-forward draw
    _require_bytes("model.vocab_size", 8 * vocab * h)  # the float64 embedding draw
    _require_bytes("model.n_layers", 4 * (vocab * h + 8 * n_layers * h * h))  # all float32 weights
    _require(len(cfg.policies) >= 1, "config requires at least one policy")
    for i, spec in enumerate(cfg.policies):
        _require(
            spec.kind != "Hybrid" or spec.split <= n_layers,
            f"policies[{i}].split {spec.split} exceeds model.n_layers {n_layers}",
        )
    if cfg.reuse is not None:
        _require(1 <= cfg.reuse.n_reuse <= n_layers, "reuse.n_reuse outside [1, n_layers]")
    sw = cfg.sweep
    if sw is not None:
        for f in fields(sw):
            _require(getattr(sw, f.name) != (), f"sweep.{f.name} must be a non-empty list")
        for i, v in enumerate(sw.n_reuse or ()):
            _require(1 <= v <= n_layers, f"sweep.n_reuse[{i}] outside [1, n_layers]")
        for i, v in enumerate(sw.seeds or ()):
            try:
                check_seed(v)
            except ValueError as e:
                raise ConfigError(f"sweep.seeds[{i}]: {e}") from e
        if sw == SweepSpec():  # no axes: `sweep` refuses it, every other command ignores it
            cfg = replace(cfg, sweep=None)
    _check_budgets(cfg)
    name = "prompt.seq_len" if cfg.prompt.needle else "prompt.length"
    _require_bytes(name, 8 * cfg.prompt.length)  # int64 tokens, or a needle's float64 score row
    for i, spec in enumerate(cfg.policies):  # bounds sweep.csv's micros_compress, a float
        cost = n_layers * cfg.model.n_heads * spec.budget.w * cfg.prompt.length
        _require(cost <= sys.float_info.max, f"policies[{i}].budget.w: its modeled cost overflows")
    if cfg.prompt.needle:  # the float64 score draw
        size = 8 * cfg.prompt.observe_rows * cfg.prompt.length
        _require_bytes("prompt.observe_rows * prompt.seq_len", size)
    return cfg


def _require_bytes(name: str, nbytes: int):
    """Arrays of nbytes must fit numpy's index-sized integers, or they cannot be made."""
    _require(nbytes <= sys.maxsize, f"{name}: its arrays need {nbytes} bytes, past {sys.maxsize}")


def _check_budgets(cfg: ExperimentConfig):
    """Budget range errors a policy would raise only once it runs, raised now.

    Every policy and every sweep (c, ratio) cell is resolved at the prompt
    length, so a bad config exits before prefill.
    """
    runs = [("", cfg.policies)]
    if cfg.sweep is not None:
        for c, r in dict.fromkeys((c, r) for c, r, _, _ in _sweep_cells(cfg)):
            cell = ", ".join(f"{k}={v}" for k, v in (("c", c), ("ratio", r)) if v is not None)
            try:
                cells = [_cell_spec(spec, c, r) for spec in cfg.policies]
            except ValueError as e:
                raise ConfigError(f"invalid sweep cell {cell}: {e}") from e
            runs.append((f" in sweep cell {cell}", cells))
    t_k = cfg.prompt.length
    for cell, specs in runs:
        for i, spec in enumerate(specs):
            try:
                resolved_layer_budgets(spec, cfg.model.n_layers, t_k)
            except ValueError as e:
                raise ConfigError(f"policies[{i}].{e} at seq_len {t_k}{cell}") from e


def load_config(path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:  # bad UTF-8 or JSON, or an integer too long to parse
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config(doc)


def override_seed(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    """cfg at one `seeds` value of a sweep: the prompt seed replaced, `raw` as written."""
    return replace(cfg, prompt=replace(cfg.prompt, seed=seed))


def prompt_tokens(cfg: ExperimentConfig) -> tuple[int, ...]:
    p = cfg.prompt
    rng = np.random.Generator(np.random.Philox(key=p.seed))
    return tuple(int(t) for t in rng.integers(0, cfg.model.vocab_size, size=p.length))


# ---------------------------------------------------------------------------
# simulate


def _digest(kept: KeptIndices) -> str:
    payload = ",".join(str(p) for p in kept.positions).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


def _source(cfg: ExperimentConfig) -> PrefillTrace:
    """What the policies read: the prompt's prefill.

    Prefill keeps the observe rows the policies read, and the final row `_fidelity` reads,
    and builds col_mass only if a policy reads it.  A needle prompt's synthetic scores
    are read by `kvlab needle` alone, so here it is a ConfigError, raised before any draw.
    """
    if cfg.prompt.needle is not None:
        raise ConfigError("a needle prompt runs only under `kvlab needle`")
    rows = max(1, observe_rows(cfg.policies))
    return prefill(init_model(cfg.model), prompt_tokens(cfg), rows, reads_col_mass(cfg.policies))


def _final_row_attention(trace: PrefillTrace, layer: int, head: int) -> np.ndarray:
    return trace.observe_probs[layer][head][-1:]


def _fidelity(trace: PrefillTrace, kept: list[list[KeptIndices]]) -> dict:
    """report.json's fidelity block: per-layer head means of the evicted KV L1 and
    the final-row attention cosine, and their layer means, rounded.

    Head h's kept set is charged against the |K| and |V| of every head of
    its layer, so a per-head policy's KV L1 is the head mean of "every head
    evicts head h's set".
    """
    heads = range(trace.n_heads)
    l1s, coss = [], []
    for l in range(trace.n_layers):
        mags = kv_magnitudes(trace.k[l], trace.v[l])
        l1s.append(float(np.mean([kv_l1_loss(mags, kept[l][h]) for h in heads])))
        rows = [_final_row_attention(trace, l, h) for h in heads]
        coss.append(float(np.mean([attention_cosine(rows[h], kept[l][h]) for h in heads])))
    return {
        "kv_l1": round(float(np.mean(l1s)), 6),
        "attn_cos": round(float(np.mean(coss)), 6),
        "per_layer_l1": [round(x, 6) for x in l1s],
        "per_layer_cos": [round(x, 6) for x in coss],
    }


@dataclass(frozen=True)
class _Measured:
    """One policy's kept sets on a prefill trace under a reuse plan, their measures and timings.

    `simulate` and `sweep` copy these fields, rounded as written.  Only
    report.json's kept-set digests and similarity matrix, and a sweep's
    synthetic needle and modeled cost columns, are built elsewhere.
    """

    spec: PolicySpec
    kept: list[list[KeptIndices]]  # [layer][head]
    adjacent_jaccard: Optional[float]  # head 0; None below two layers
    fidelity: dict  # report.json's fidelity block
    select_s: float
    fidelity_s: float


def _measure(
    cfg: ExperimentConfig, trace: PrefillTrace, specs: Sequence, n_reuse: int
) -> list[_Measured]:
    """Each spec's `run_with_reuse` kept sets under n_reuse, what they measure and their timings."""
    plan = ReusePlan(n_layers=cfg.model.n_layers, n_reuse=n_reuse)
    out = []
    for spec in specs:
        t0 = time.perf_counter()
        kept = run_with_reuse(trace, spec, plan)
        t1 = time.perf_counter()
        fidelity = _fidelity(trace, kept)
        t2 = time.perf_counter()
        head0 = [heads[0] for heads in kept]
        out.append(_Measured(
            spec,
            kept,
            round(adjacent_similarity(head0), 6) if len(head0) >= 2 else None,
            fidelity,
            select_s=t1 - t0,
            fidelity_s=t2 - t1,
        ))
    return out


def _n_reuse(cfg: ExperimentConfig) -> int:
    return cfg.reuse.n_reuse if cfg.reuse else 1


def _policy_report(m: _Measured, t_k: int) -> dict:
    layers = [{"heads": [
        {"retained": len(k), "ratio": round(len(k) / t_k, 6), "digest": _digest(k)}
        for k in heads
    ]} for heads in m.kept]
    sim = similarity_matrix([heads[0] for heads in m.kept])
    return {
        "policy": m.spec.name,
        "layers": layers,
        "similarity_matrix": [[round(v, 6) for v in row] for row in sim],
        "adjacent_jaccard": m.adjacent_jaccard,
        "fidelity": m.fidelity,
    }


def run_simulate(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Run every policy once; returns (report, timings).

    timings holds prefill_s (model init and prefill) and a list with one
    entry per policy, in report order: its name, select_s (the reuse loop's
    kept sets) and fidelity_s (the fidelity metrics on them).
    """
    t0 = time.perf_counter()
    trace = _source(cfg)
    prefill_s = time.perf_counter() - t0
    t_k = trace.seq_len
    measured = _measure(cfg, trace, cfg.policies, _n_reuse(cfg))
    timings = {
        "prefill_s": prefill_s,
        "policies": [
            {"policy": m.spec.name, "select_s": m.select_s, "fidelity_s": m.fidelity_s}
            for m in measured
        ],
    }

    report = {
        "artifact_version": __version__,
        "config": cfg.raw,
        "seq_len": t_k,
        "memory": {
            "full_cache_bytes": memory_bytes(
                1, t_k, cfg.model.n_layers, cfg.model.n_heads, cfg.model.head_dim
            )
        },
        "policies": [_policy_report(m, t_k) for m in measured],
    }
    return report, timings


def _write(path: Path, text: str) -> Path:
    """Every output file is written here, --out made at the first write: a path the OS cannot
    make or write is a ConfigError naming it."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # a file in the way, at the path or above it
        raise ConfigError(f"--out {str(path.parent)!r} cannot be a directory: {e.strerror}") from e
    try:
        path.write_text(text, newline="")
    except OSError as e:  # a failed write or close carries no filename
        raise ConfigError(f"cannot write {path}: {e.strerror}") from e
    return path


def write_json(path: Path, obj: dict) -> Path:
    return _write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    """[report.json], written into out_dir after timings.json."""
    report, timings = run_simulate(cfg)
    write_json(out_dir / "timings.json", timings)
    return [write_json(out_dir / "report.json", report)]


# ---------------------------------------------------------------------------
# sweep

def _cell_spec(spec: PolicySpec, c: Optional[int], ratio: Optional[float]) -> PolicySpec:
    """spec, and a Hybrid's inner policies, at chunk size c and retention ratio.

    An axis that is None keeps each budget's own value: without a ratio, a
    max_len budget stays a max_len budget.
    """
    inner = {}
    if spec.kind == "Hybrid":
        inner = {k: _cell_spec(getattr(spec, k), c, ratio) for k in ("inner_a", "inner_b")}
    b = spec.budget
    c = b.c if c is None else c
    budget = replace(b, c=c) if ratio is None else BudgetSpec(ratio=ratio, w=b.w, c=c)
    return replace(spec, budget=budget, **inner)


def run_sweep_cell(
    cfg: ExperimentConfig,
    trace: PrefillTrace,
    c: Optional[int],
    ratio: Optional[float],
    n_reuse: int,
    seed: int,
) -> list[dict]:
    """One sweep cell: every policy at (c, ratio, n_reuse) on seed's prefill trace.

    A c or ratio of None keeps each policy's own (`_cell_spec`); a row's c and
    ratio are those of the budget it ran with (ratio empty for a max_len).
    The needle columns are a synthetic score-level diagnostic, not read off the
    trace: layer 0 of a chunk-aligned needle that depends only on the policy's
    c and the seed, outside the reuse loop, built once per c in the cell.
    micros_compress is a modeled cost: n_heads * max(w, 1) * T per anchor
    layer, n_heads per copied one.
    """

    @functools.cache
    def auto_needle(c: int) -> tuple[NeedleCase, ScoreMatrices]:
        t = cfg.prompt.length
        start = seed % max(t // c, 1) * c  # the seed picks the chunk
        case = NeedleCase(t, start, min(c, t - start), signal=float(t), seed=seed)
        scores = make_needle_case(case, observe_rows=cfg.prompt.observe_rows)
        return case, ScoreMatrices((scores,) * cfg.model.n_layers)

    cells = [_cell_spec(spec, c, ratio) for spec in cfg.policies]
    rows = []
    for m in _measure(cfg, trace, cells, n_reuse):
        b = m.spec.budget
        case, needle_scores = auto_needle(b.c)
        frac, intact = needle_retention(compress_layer(needle_scores, 0, m.spec)[0], case)
        cost = float(cfg.model.n_heads * max(b.w, 1) * trace.seq_len), float(cfg.model.n_heads)
        rows.append({
            "policy": m.spec.name,
            "c": b.c,
            "ratio": "" if b.ratio is None else b.ratio,
            "n_reuse": n_reuse,
            "seed": seed,
            "adjacent_jaccard": "" if m.adjacent_jaccard is None else m.adjacent_jaccard,
            "kv_l1": m.fidelity["kv_l1"],
            "attn_cos": m.fidelity["attn_cos"],
            "needle_fraction": round(frac, 6),
            "needle_intact": str(intact).lower(),
            "micros_compress": round(modeled_micros(cfg.model.n_layers, n_reuse, *cost), 3),
        })
    return rows


def _sweep_cells(cfg: ExperimentConfig) -> list[tuple[Optional[int], Optional[float], int, int]]:
    """(c, ratio, n_reuse, seed) per cell; a budget axis left out is None."""
    sw = cfg.sweep
    if sw is None:
        raise ConfigError("sweep requires a 'sweep' section with axes")
    return list(itertools.product(
        sw.c or (None,),
        sw.ratio or (None,),
        sw.n_reuse or (_n_reuse(cfg),),
        sw.seeds or (cfg.prompt.seed,),
    ))


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    """[sweep.csv] in cell order, into out_dir; one seed's source alive at once."""
    cells = _sweep_cells(cfg)
    rows = [None] * len(cells)
    for seed in dict.fromkeys(cell[3] for cell in cells):
        seeded, trace = override_seed(cfg, seed), None  # drop the last trace before building one
        trace = _source(seeded)
        for i, (c, r, n, s) in enumerate(cells):
            if s == seed:
                rows[i] = run_sweep_cell(seeded, trace, c, r, n, seed)
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=list(rows[0][0]))  # run_sweep_cell's column order
    writer.writeheader()
    for row in itertools.chain.from_iterable(rows):
        writer.writerow(row)
    return [_write(out_dir / "sweep.csv", text.getvalue())]


# ---------------------------------------------------------------------------
# needle harness


def cmd_needle(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    """[needle.json] in out_dir: per-layer needle retention under the reuse plan.

    The needle prompt's scores are one synthetic matrix per layer, each drawn
    from its own seed; retention is read off each layer's kept set.
    """
    case, rows = cfg.prompt.needle, cfg.prompt.observe_rows
    if case is None:
        raise ConfigError("needle command requires a needle prompt")
    source = ScoreMatrices(tuple(
        make_needle_case(replace(case, seed=(case.seed * 1000003 + l) % 2**128), rows)
        for l in range(cfg.model.n_layers)
    ))
    plan = ReusePlan(n_layers=cfg.model.n_layers, n_reuse=_n_reuse(cfg))
    policies = []
    for spec in cfg.policies:
        kept = run_with_reuse(source, spec, plan)
        fracs, intact = zip(*(needle_retention(heads[0], case) for heads in kept))
        policies.append({
            "policy": spec.name,
            "mean_fraction": round(float(np.mean(fracs)), 6),
            "intact_all_layers": all(intact),
            "per_layer": [
                {"layer": l, "fraction": round(f, 6), "intact": i}
                for l, (f, i) in enumerate(zip(fracs, intact))
            ],
        })
    doc = {"case": asdict(case), "policies": policies}
    return [write_json(out_dir / "needle.json", doc)]


# ---------------------------------------------------------------------------
# reuse benchmark


def cmd_reuse_bench(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    """[reuse_bench.json], written into out_dir."""
    reuses = (cfg.sweep and cfg.sweep.n_reuse) or (cfg.reuse and (cfg.reuse.n_reuse,))
    if not reuses:
        raise ConfigError("reuse-bench requires a reuse plan or an n_reuse sweep axis")
    trace = _source(cfg)
    spec = cfg.policies[0]

    def median_time(fn) -> tuple[float, Any]:  # of 5 calls, and the last call's result
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            out = fn()
            samples.append(time.perf_counter() - t0)
        return float(np.median(samples)), out

    n_layers = cfg.model.n_layers
    timed = {  # each distinct plan's median time and kept sets, the n_reuse 1 baseline first
        n: median_time(functools.partial(run_with_reuse, trace, spec, ReusePlan(n_layers, n)))
        for n in dict.fromkeys((1, *reuses))
    }
    # the n_reuse 1 loop compresses every layer: its time per layer is the
    # compress cost, and copying one of its kept lists is the select cost
    t_full, kept = timed[1]
    t_compress = t_full / n_layers
    t_select, _ = median_time(lambda: list(kept[0]))
    rows = [{
        "n_reuse": n,
        "analytic_speedup": round(speedup_estimate(n_layers, n, t_compress, t_select), 6),
        "measured_speedup": round(t_full / timed[n][0], 6) if timed[n][0] > 0 else None,
        "t_compress_s": t_compress,
        "t_select_s": t_select,
    } for n in reuses]
    doc = {"policy": spec.name, "n_layers": n_layers, "results": rows}
    return [write_json(out_dir / "reuse_bench.json", doc)]
