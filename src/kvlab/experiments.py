"""Experiment harness: config ingestion, simulation, sweeps, and reports.

Deterministic report data never mixes with wall-clock measurements: timing
goes to timings.json, everything else is reproducible byte-for-byte from
the config.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .cache import BudgetSpec, KeptIndices, MemoryParams, memory_bytes
from .metrics import (
    NeedleCase,
    attention_cosine,
    kv_l1_loss,
    kv_magnitudes,
    make_needle_case,
    needle_retention,
)
from .model import ModelConfig, PrefillTrace, init_model, prefill
from .numerics import TensorView, check_seed
from .policies import PolicySpec, ScoreMatrices, compress_layer, resolved_layer_budgets
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

# sweep axis -> the JSON type of its values
SWEEP_AXES = {"c": int, "ratio": float, "n_reuse": int, "seeds": int}

# prompt kind -> the PromptSpec fields its JSON object sets; a needle prompt's
# other keys are NeedleCase fields
PROMPT_KEYS = {
    "random": ("kind", "length", "seed"),
    "tokens": ("kind", "tokens"),
    "needle": ("kind", "observe_rows"),
}


@dataclass(frozen=True)
class PromptSpec:
    kind: str  # random | tokens | needle
    length: int = 0
    seed: int = 0
    tokens: tuple[int, ...] = ()
    needle: Optional[NeedleCase] = None
    observe_rows: int = 8

    def __post_init__(self):
        if self.kind == "random" and self.length < 1:
            raise ValueError("random prompt needs length >= 1")
        if self.kind == "tokens" and not self.tokens:
            raise ValueError("tokens prompt must be non-empty")
        if self.observe_rows < 1:
            raise ValueError(f"observe_rows must be >= 1, got {self.observe_rows}")
        check_seed(self.seed)


@dataclass(frozen=True)
class ReuseSpec:
    n_reuse: int = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config document.

    With the dataclasses its fields hold (ModelConfig, PromptSpec,
    PolicySpec, BudgetSpec, NeedleCase, ReuseSpec) this is the JSON schema:
    every key is a field, every JSON type a field annotation and every
    default a field default.  The document's `schema` key is checked before
    the build; `raw` keeps the document as written.
    """

    model: ModelConfig
    prompt: PromptSpec
    policies: tuple[PolicySpec, ...]
    reuse: Optional[ReuseSpec] = None
    sweep: Optional[dict] = None
    out_dir: str = "out"
    raw: Optional[dict] = None


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


_JSON_TYPES = {
    int: "an integer",
    float: "a finite number",
    str: "a string",
    bool: "true or false",
    dict: "a JSON object",
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
    spec = _build(PromptSpec, doc, "prompt", keys)
    return replace(spec, length=len(spec.tokens)) if kind == "tokens" else spec


def parse_config(doc) -> ExperimentConfig:
    _require(isinstance(doc, dict), "config must be a JSON object")
    schema = doc.get("schema")
    _require(type(schema) is int and schema == SCHEMA_VERSION, "config requires 'schema': 1")
    _require("prompt" in doc, "missing field prompt")
    body = {k: v for k, v in doc.items() if k not in ("schema", "prompt")}
    cfg = _build(ExperimentConfig, body, "", prompt=parse_prompt(doc["prompt"]), raw=doc)
    n_layers = cfg.model.n_layers
    _require(len(cfg.policies) >= 1, "config requires at least one policy")
    for i, spec in enumerate(cfg.policies):
        _require(
            spec.kind != "Hybrid" or spec.split <= n_layers,
            f"policies[{i}].split {spec.split} exceeds model.n_layers {n_layers}",
        )
    if cfg.reuse is not None:
        _require(1 <= cfg.reuse.n_reuse <= n_layers, "reuse.n_reuse outside [1, n_layers]")
    for axis, values in (cfg.sweep or {}).items():
        _require(axis in SWEEP_AXES, f"unknown field sweep.{axis}")
        values = _value(tuple[SWEEP_AXES[axis], ...], values, f"sweep.{axis}")
        _require(len(values) >= 1, f"sweep.{axis} must be a non-empty list")
        for i, v in enumerate(values):
            if axis == "n_reuse":
                _require(1 <= v <= n_layers, f"sweep.n_reuse[{i}] outside [1, n_layers]")
            elif axis == "seeds":
                try:
                    check_seed(v)
                except ValueError as e:
                    raise ConfigError(f"sweep.seeds[{i}]: {e}") from e
    _check_budgets(cfg)
    return cfg


def _check_budgets(cfg: ExperimentConfig):
    """Budget range errors a policy would raise only once it runs, raised now.

    Every policy, every Hybrid inner policy and every sweep (c, ratio) cell
    is checked at the prompt length, so a bad config exits before prefill.
    """
    runs = [("", cfg.policies)]
    if cfg.sweep:
        for c, r in dict.fromkeys((c, r) for c, r, _, _ in _sweep_cells(cfg)):
            try:
                cells = [_cell_spec(spec, c, r) for spec in cfg.policies]
            except ValueError as e:
                raise ConfigError(f"invalid sweep cell c={c}, ratio={r}: {e}") from e
            runs.append((f" in sweep cell c={c}, ratio={r}", cells))
    for at, specs in runs:
        for i, spec in enumerate(specs):
            _check_policy_budget(spec, f"policies[{i}]", at, cfg)


def _check_policy_budget(spec: PolicySpec, field: str, at: str, cfg: ExperimentConfig):
    t_k = cfg.prompt.length
    if spec.kind == "Hybrid":
        _check_policy_budget(spec.inner_a, f"{field}.inner_a", at, cfg)
        _check_policy_budget(spec.inner_b, f"{field}.inner_b", at, cfg)
        return
    try:
        budget = spec.budget.resolve(t_k)
    except OverflowError as e:  # a ratio of a prompt length too large for a float
        raise ConfigError(f"{field}.budget: {e} at seq_len {t_k}{at}") from e
    if spec.kind == "PyramidStyle":
        try:
            resolved_layer_budgets(spec, cfg.model.n_layers, t_k)
        except OverflowError as e:  # a budget too large for the float skew arithmetic
            raise ConfigError(f"{field}.budget: {e} at seq_len {t_k}{at}") from e
        except ValueError as e:
            raise ConfigError(f"{field}.skew {spec.skew}: {e} at seq_len {t_k}{at}") from e
    elif spec.kind == "StreamingStyle":
        _require(
            spec.sink <= budget,
            f"{field}.sink {spec.sink} exceeds the budget {budget} resolved at seq_len {t_k}{at}",
        )


def load_config(path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:  # bad UTF-8 or JSON, or an integer too long to parse
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config(doc)


def override_seed(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    """cfg with its prompt seed replaced, needle case and echoed config included.

    A tokens prompt has no seed key, so its echoed config stays as written.
    """
    p = cfg.prompt
    needle = replace(p.needle, seed=seed) if p.needle is not None else None
    raw = cfg.raw
    if p.kind != "tokens":
        raw = {**raw, "prompt": {**raw["prompt"], "seed": seed}}
    return replace(cfg, prompt=replace(p, seed=seed, needle=needle), raw=raw)


def prompt_tokens(cfg: ExperimentConfig) -> tuple[int, ...]:
    p = cfg.prompt
    if p.kind == "tokens":
        return p.tokens
    rng = np.random.Generator(np.random.Philox(key=p.seed))
    return tuple(int(t) for t in rng.integers(0, cfg.model.vocab_size, size=p.length))


# ---------------------------------------------------------------------------
# synthetic needle scores


def needle_source(cfg: ExperimentConfig) -> ScoreMatrices:
    """Layer-varying synthetic scores of the config's needle case, one per layer."""
    case = cfg.prompt.needle
    return ScoreMatrices(
        tuple(
            make_needle_case(
                replace(case, seed=(case.seed * 1000003 + l) % 2**128),
                observe_rows=cfg.prompt.observe_rows,
            )
            for l in range(cfg.model.n_layers)
        )
    )


# ---------------------------------------------------------------------------
# deterministic cost model (report-safe stand-in for wall-clock timing)


def modeled_layer_costs(trace_like_t: int, n_heads: int, w: int) -> tuple[float, float]:
    """(t_compress, t_select) in model micro-units per layer."""
    t_compress = float(n_heads * max(w, 1) * trace_like_t)
    t_select = float(n_heads)
    return t_compress, t_select


# ---------------------------------------------------------------------------
# simulate


def _digest(kept: KeptIndices) -> str:
    payload = ",".join(str(p) for p in kept.positions).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


def _observe_rows(cfg: ExperimentConfig) -> int:
    """Observe rows prefill keeps: the widest w of any policy or Hybrid inner policy."""
    specs = [s for p in cfg.policies for s in (p, p.inner_a, p.inner_b) if s is not None]
    return max(1, *(s.budget.w for s in specs))


def _source(cfg: ExperimentConfig) -> PrefillTrace | ScoreMatrices:
    """What the policies read: a needle prompt's synthetic scores, or the prompt's prefill."""
    if cfg.prompt.kind == "needle":
        return needle_source(cfg)
    return prefill(init_model(cfg.model), prompt_tokens(cfg), observe_rows=_observe_rows(cfg))


def _final_row_attention(trace: PrefillTrace, layer: int, head: int) -> TensorView:
    return TensorView(trace.observe_probs[layer][head].data[-1:])


def _fidelity(
    trace: PrefillTrace, kept: list[list[KeptIndices]]
) -> tuple[list[float], list[float]]:
    """Per-layer head means of the evicted KV L1 and the final-row attention cosine.

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
    return l1s, coss


def _policy_report(
    cfg: ExperimentConfig,
    fidelity: Optional[tuple[list[float], list[float]]],
    spec: PolicySpec,
    kept: list[list[KeptIndices]],
    t_k: int,
) -> dict:
    n_layers = len(kept)
    layers = []
    for l in range(n_layers):
        heads = []
        for k in kept[l]:
            heads.append(
                {
                    "retained": len(k),
                    "ratio": round(len(k) / t_k, 6),
                    "digest": _digest(k),
                }
            )
        layers.append({"heads": heads})

    head0 = [kept[l][0] for l in range(n_layers)]
    sim = similarity_matrix(head0)
    rep: dict[str, Any] = {
        "policy": spec.name,
        "layers": layers,
        "similarity_matrix": [[round(v, 6) for v in row] for row in sim],
        "adjacent_jaccard": round(adjacent_similarity(head0), 6) if n_layers >= 2 else None,
    }

    if fidelity is not None:
        l1s, coss = fidelity
        rep["fidelity"] = {
            "kv_l1": round(float(np.mean(l1s)), 6),
            "attn_cos": round(float(np.mean(coss)), 6),
            "per_layer_l1": [round(x, 6) for x in l1s],
            "per_layer_cos": [round(x, 6) for x in coss],
        }
    if cfg.prompt.needle is not None:
        fracs, intacts = [], []
        for l in range(n_layers):
            frac, intact = needle_retention(kept[l][0], cfg.prompt.needle)
            fracs.append(frac)
            intacts.append(intact)
        rep["needle"] = {
            "fraction": round(float(np.mean(fracs)), 6),
            "intact_all_layers": all(intacts),
            "per_layer_fraction": [round(f, 6) for f in fracs],
        }
    if cfg.reuse is not None:
        t_c, t_s = modeled_layer_costs(t_k, cfg.model.n_heads, spec.budget.w)
        rep["speedup_estimate"] = round(
            speedup_estimate(cfg.model.n_layers, cfg.reuse.n_reuse, t_c, t_s), 6
        )
    return rep


def run_simulate(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Run every policy once; returns (report, timings).

    timings holds prefill_s (model init and prefill; traces only) and a list
    with one entry per policy, in report order: its name, select_s (the reuse
    loop's kept sets) and fidelity_s (the fidelity metrics on them).
    """
    timings: dict[str, Any] = {"policies": []}

    t0 = time.perf_counter()
    source = _source(cfg)
    trace = source if isinstance(source, PrefillTrace) else None
    if trace is not None:
        timings["prefill_s"] = time.perf_counter() - t0
    t_k = source.seq_len
    plan = ReusePlan(n_layers=cfg.model.n_layers, n_reuse=cfg.reuse.n_reuse if cfg.reuse else 1)

    policy_reports = []
    for spec in cfg.policies:
        t0 = time.perf_counter()
        kept = run_with_reuse(source, spec, plan)
        t1 = time.perf_counter()
        fidelity = _fidelity(trace, kept) if trace is not None else None
        timings["policies"].append({
            "policy": spec.name,
            "select_s": t1 - t0,
            "fidelity_s": time.perf_counter() - t1,
        })
        if trace is None:  # synthetic scores have one head; report it for every head
            kept = [heads * cfg.model.n_heads for heads in kept]
        policy_reports.append(_policy_report(cfg, fidelity, spec, kept, t_k))

    config_echo = dict(cfg.raw or {})
    config_echo.pop("out_dir", None)  # output location is not experiment content
    report = {
        "artifact_version": __version__,
        "config": config_echo,
        "seq_len": t_k,
        "memory": {
            "full_cache_bytes": memory_bytes(
                MemoryParams(
                    batch=1,
                    seq_len=t_k,
                    layers=cfg.model.n_layers,
                    heads=cfg.model.n_heads,
                    head_dim=cfg.model.head_dim,
                    bytes_per_scalar=2,
                )
            )
        },
        "policies": policy_reports,
    }
    return report, timings


def write_json(path: Path, obj: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> Path:
    report, timings = run_simulate(cfg)
    write_json(out_dir / "report.json", report)
    write_json(out_dir / "timings.json", timings)
    return out_dir / "report.json"


# ---------------------------------------------------------------------------
# sweep

SWEEP_COLUMNS = [
    "policy",
    "c",
    "ratio",
    "n_reuse",
    "seed",
    "adjacent_jaccard",
    "kv_l1",
    "attn_cos",
    "needle_fraction",
    "needle_intact",
    "micros_compress",
]


def _auto_needle(cfg: ExperimentConfig, c: int, seed: int) -> NeedleCase:
    """Chunk-aligned dominant needle derived from the cell seed."""
    t = cfg.prompt.length
    n_chunks = max(t // c, 1)
    chunk = seed % n_chunks
    start = chunk * c
    span = min(c, t - start)
    return NeedleCase(seq_len=t, span_start=start, span_len=span, signal=float(t), seed=seed)


def _cell_spec(spec: PolicySpec, c: int, ratio: float) -> PolicySpec:
    budget = BudgetSpec(ratio=ratio, w=spec.budget.w, c=c)
    out = replace(spec, budget=budget)
    if spec.kind == "Hybrid":
        out = replace(
            out,
            inner_a=_cell_spec(spec.inner_a, c, ratio),
            inner_b=_cell_spec(spec.inner_b, c, ratio),
        )
    return out


def run_sweep_cell(
    cfg: ExperimentConfig,
    source: PrefillTrace | ScoreMatrices,
    c: int,
    ratio: float,
    n_reuse: int,
    seed: int,
) -> list[dict]:
    """One sweep cell: every policy at (c, ratio, n_reuse) on seed's source."""
    trace = source if isinstance(source, PrefillTrace) else None
    t_k = source.seq_len
    plan = ReusePlan(n_layers=cfg.model.n_layers, n_reuse=n_reuse)
    # score-level needle diagnostic for this cell's budget, outside the reuse
    # loop; its case depends only on (c, seed), so every policy shares it
    case = _auto_needle(cfg, c, seed) if trace is not None else cfg.prompt.needle
    scores = make_needle_case(case, observe_rows=cfg.prompt.observe_rows)
    needle_scores = ScoreMatrices((scores,) * cfg.model.n_layers)

    rows = []
    for spec in cfg.policies:
        cell = _cell_spec(spec, c, ratio)
        row: dict[str, Any] = {
            "policy": cell.name,
            "c": c,
            "ratio": ratio,
            "n_reuse": n_reuse,
            "seed": seed,
        }
        kept = run_with_reuse(source, cell, plan)
        head0 = [heads[0] for heads in kept]
        row["adjacent_jaccard"] = (
            round(adjacent_similarity(head0), 6) if cfg.model.n_layers >= 2 else ""
        )
        if trace is not None:
            l1s, coss = _fidelity(trace, kept)
            row["kv_l1"] = round(float(np.mean(l1s)), 6)
            row["attn_cos"] = round(float(np.mean(coss)), 6)
        else:
            row["kv_l1"] = ""
            row["attn_cos"] = ""

        kept0 = compress_layer(needle_scores, 0, cell)[0]
        frac, intact = needle_retention(kept0, case)
        row["needle_fraction"] = round(frac, 6)
        row["needle_intact"] = str(intact).lower()

        t_c, t_s = modeled_layer_costs(t_k, cfg.model.n_heads, cell.budget.w)
        row["micros_compress"] = round(modeled_micros(cfg.model.n_layers, n_reuse, t_c, t_s), 3)
        rows.append(row)
    return rows


def _sweep_cells(cfg: ExperimentConfig) -> list[tuple[int, float, int, int]]:
    if not cfg.sweep:
        raise ConfigError("sweep requires a 'sweep' section with axes")
    sw = cfg.sweep
    cs = sw.get("c", [cfg.policies[0].budget.c])
    ratios = sw.get("ratio", [cfg.policies[0].budget.ratio or 0.1])
    reuses = sw.get("n_reuse", [cfg.reuse.n_reuse if cfg.reuse else 1])
    seeds = sw.get("seeds", [cfg.prompt.seed])
    return [
        (int(c), float(r), int(n), int(s))
        for c, r, n, s in itertools.product(cs, ratios, reuses, seeds)
    ]


def _seed_rows(cfg: ExperimentConfig, seed: int, cells: list) -> list[list[dict]]:
    """Every cell of one prompt seed, on one source built (prefilled) once."""
    cfg = override_seed(cfg, seed)
    source = _source(cfg)
    return [run_sweep_cell(cfg, source, c, r, n, seed) for c, r, n, _ in cells]


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path, workers: int = 1) -> Path:
    cells = _sweep_cells(cfg)
    seeds = list(dict.fromkeys(cell[3] for cell in cells))
    groups = [(s, [cell for cell in cells if cell[3] == s]) for s in seeds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_seed_rows, [cfg] * len(groups), *zip(*groups)))
    else:
        done = [_seed_rows(cfg, *g) for g in groups]
    pending = {s: iter(rows) for s, rows in zip(seeds, done)}
    results = [next(pending[cell[3]]) for cell in cells]  # back in cell order

    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "sweep.csv"
    with out_path.open("w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for rows in results:
            for row in rows:
                writer.writerow(row)
    return out_path


# ---------------------------------------------------------------------------
# similarity heatmaps


def write_pgm(path: Path, matrix: list[list[float]], max_level: int = 255):
    n = len(matrix)
    lines = ["P2", f"{n} {n}", str(max_level)]
    for row in matrix:
        lines.append(" ".join(str(int(round(v * max_level))) for v in row))
    path.write_text("\n".join(lines) + "\n")


def cmd_similarity(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    if cfg.model.n_layers < 2:
        raise ConfigError("similarity requires at least 2 layers")
    report, _ = run_simulate(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for prep in report["policies"]:
        name = prep["policy"].replace("|", "_").replace("[", "_").replace("]", "").replace("@", "_")
        matrix = prep["similarity_matrix"]
        csv_path = out_dir / f"similarity_{name}.csv"
        with csv_path.open("w", newline="") as f:
            writer = csv.writer(f)
            for row in matrix:
                writer.writerow([f"{v:.3f}" for v in row])
        pgm_path = out_dir / f"similarity_{name}.pgm"
        write_pgm(pgm_path, matrix)
        written.extend([csv_path, pgm_path])
    return written


# ---------------------------------------------------------------------------
# needle harness


def cmd_needle(cfg: ExperimentConfig, out_dir: Path) -> Path:
    if cfg.prompt.needle is None:
        raise ConfigError("needle command requires a needle prompt")
    case = cfg.prompt.needle
    out: dict[str, Any] = {"case": {
        "seq_len": case.seq_len,
        "span_start": case.span_start,
        "span_len": case.span_len,
        "signal": case.signal,
        "seed": case.seed,
        "weak_offset": case.weak_offset,
    }, "policies": []}
    source = needle_source(cfg)
    fresh = ReusePlan(n_layers=cfg.model.n_layers, n_reuse=1)
    for spec in cfg.policies:
        per_layer = []
        for l, heads in enumerate(run_with_reuse(source, spec, fresh)):
            frac, intact = needle_retention(heads[0], case)
            per_layer.append({"layer": l, "fraction": round(frac, 6), "intact": intact})
        out["policies"].append({
            "policy": spec.name,
            "mean_fraction": round(float(np.mean([p["fraction"] for p in per_layer])), 6),
            "intact_all_layers": all(p["intact"] for p in per_layer),
            "per_layer": per_layer,
        })
    path = out_dir / "needle.json"
    write_json(path, out)
    return path


# ---------------------------------------------------------------------------
# reuse benchmark


def cmd_reuse_bench(cfg: ExperimentConfig, out_dir: Path, repetitions: int = 5) -> Path:
    if cfg.reuse is None and not (cfg.sweep and cfg.sweep.get("n_reuse")):
        raise ConfigError("reuse-bench requires a reuse plan or an n_reuse sweep axis")
    source = _source(cfg)
    spec = cfg.policies[0]

    def median_time(fn) -> float:
        samples = []
        for _ in range(max(repetitions, 5)):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return float(np.median(samples))

    t_compress = median_time(lambda: compress_layer(source, 0, spec))
    anchor = compress_layer(source, 0, spec)
    t_select = median_time(lambda: list(anchor))

    reuses = cfg.sweep.get("n_reuse") if cfg.sweep else None
    reuses = [int(n) for n in (reuses or [cfg.reuse.n_reuse])]
    fresh = ReusePlan(n_layers=cfg.model.n_layers, n_reuse=1)
    rows = []
    for n_reuse in reuses:
        plan = ReusePlan(n_layers=cfg.model.n_layers, n_reuse=n_reuse)
        t_full = median_time(lambda: run_with_reuse(source, spec, fresh))
        t_reuse = median_time(lambda: run_with_reuse(source, spec, plan))
        rows.append({
            "n_reuse": n_reuse,
            "analytic_speedup": round(speedup_estimate(cfg.model.n_layers, n_reuse, t_compress, max(t_select, 0.0)), 6),
            "measured_speedup": round(t_full / t_reuse, 6) if t_reuse > 0 else None,
            "t_compress_s": t_compress,
            "t_select_s": t_select,
        })
    out = {"policy": spec.name, "n_layers": cfg.model.n_layers, "results": rows}
    path = out_dir / "reuse_bench.json"
    write_json(path, out)
    return path
