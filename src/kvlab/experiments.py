"""Experiment harness: config ingestion, simulation, sweeps, and reports.

Deterministic report data never mixes with wall-clock measurements: timing
goes to timings.json, everything else is reproducible byte-for-byte from
the config.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Optional

import numpy as np

from . import __version__
from .cache import BudgetSpec, KeptIndices, MemoryParams, memory_bytes
from .metrics import (
    NeedleCase,
    attention_cosine,
    kv_l1_loss,
    make_needle_case,
    needle_retention,
)
from .model import ModelConfig, PrefillTrace, init_model, prefill
from .numerics import TensorView
from .policies import PolicySpec, ScoreMatrices, compress_layer, resolved_layer_budgets
from .reuse import (
    ReusePlan,
    adjacent_similarity,
    run_with_reuse,
    similarity_matrix,
    speedup_estimate,
)


class ConfigError(ValueError):
    """Raised for malformed or invalid experiment configuration documents."""


SCHEMA_VERSION = 1

# sweep axis -> (JSON type of its values, how an error message names it)
SWEEP_AXES = {
    "c": (int, "an integer"),
    "ratio": ((int, float), "a number"),
    "n_reuse": (int, "an integer"),
    "seeds": (int, "an integer"),
}


@dataclass(frozen=True)
class PromptSpec:
    kind: str  # random | tokens | needle
    length: int = 0
    seed: int = 0
    tokens: tuple[int, ...] = ()
    needle: Optional[NeedleCase] = None
    observe_rows: int = 8


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig
    prompt: PromptSpec
    policies: tuple[PolicySpec, ...]
    reuse: Optional[int] = None
    sweep: Optional[dict] = None
    out_dir: str = "out"
    raw: Optional[dict] = None


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _require_type(value, types, field: str, what: str):
    """Type check for a JSON scalar; JSON true/false never counts as a number."""
    _require(
        isinstance(value, types) and not isinstance(value, bool),
        f"{field} must be {what}, got {value!r}",
    )


def parse_budget(doc: dict) -> BudgetSpec:
    _require_type(doc, dict, "budget", "a JSON object")
    max_len, ratio = doc.get("max_len"), doc.get("ratio")
    w, c = doc.get("w", 8), doc.get("c", 10)
    if max_len is not None:
        _require_type(max_len, int, "budget.max_len", "an integer")
    if ratio is not None:
        _require_type(ratio, (int, float), "budget.ratio", "a number")
    _require_type(w, int, "budget.w", "an integer")
    _require_type(c, int, "budget.c", "an integer")
    try:
        return BudgetSpec(max_len=max_len, ratio=ratio, w=w, c=c)
    except ValueError as e:
        raise ConfigError(f"invalid budget: {e}") from e


def parse_policy(doc: dict, field: str = "policy") -> PolicySpec:
    _require_type(doc, dict, field, "a JSON object")
    _require("kind" in doc, "policy requires 'kind'")
    kwargs: dict[str, Any] = {
        "kind": doc["kind"],
        "score_mode": doc.get("score_mode", "softmax"),
        "pool_width": doc.get("pool_width", 1),
        "sink": doc.get("sink", 4),
        "skew": doc.get("skew", 0.0),
        "split": doc.get("split"),
        "head_pool": doc.get("head_pool", False),
        "h2o_normalize": doc.get("h2o_normalize", "exposure"),
    }
    _require_type(kwargs["sink"], int, "sink", "an integer")
    _require_type(kwargs["skew"], (int, float), "skew", "a number")
    if kwargs["split"] is not None:
        _require_type(kwargs["split"], int, "split", "an integer")
    head_pool = kwargs["head_pool"]
    _require(isinstance(head_pool, bool), f"head_pool must be true or false, got {head_pool!r}")
    _require("budget" in doc, "policy requires 'budget'")
    kwargs["budget"] = parse_budget(doc["budget"])
    if doc["kind"] == "Hybrid":
        _require(
            "inner_a" in doc and "inner_b" in doc,
            "Hybrid policy requires inner_a and inner_b",
        )
        kwargs["inner_a"] = parse_policy(doc["inner_a"], "inner_a")
        kwargs["inner_b"] = parse_policy(doc["inner_b"], "inner_b")
    try:
        return PolicySpec(**kwargs)
    except ValueError as e:
        raise ConfigError(f"invalid policy: {e}") from e


def _field(doc: dict, section: str, name: str, default=None, types=int, what="an integer"):
    """doc[name] checked against JSON types; missing is an error unless a default is given."""
    value = doc.get(name, default)
    _require(value is not None, f"{section} requires '{name}'")
    _require_type(value, types, f"{section}.{name}", what)
    return value


def parse_prompt(doc: dict) -> PromptSpec:
    _require_type(doc, dict, "prompt", "a JSON object")
    kind = doc.get("kind")
    if kind == "random":
        length = _field(doc, "prompt", "length", 0)
        _require(length >= 1, "random prompt needs length >= 1")
        return PromptSpec(kind="random", length=length, seed=_field(doc, "prompt", "seed", 0))
    if kind == "tokens":
        toks = doc.get("tokens", [])
        _require_type(toks, list, "prompt.tokens", "a JSON list")
        for i, t in enumerate(toks):
            _require_type(t, int, f"prompt.tokens[{i}]", "an integer")
        _require(len(toks) >= 1, "tokens prompt must be non-empty")
        return PromptSpec(kind="tokens", tokens=tuple(toks), length=len(toks))
    if kind == "needle":
        signal = _field(doc, "prompt", "signal", types=(int, float), what="a number")
        weak = doc.get("weak_offset")
        if weak is not None:
            _require_type(weak, int, "prompt.weak_offset", "an integer")
        ints = {n: _field(doc, "prompt", n) for n in ("seq_len", "span_start", "span_len")}
        seed = _field(doc, "prompt", "seed", 0)
        try:
            case = NeedleCase(
                **ints,
                signal=float(signal),
                seed=seed,
                noise=doc.get("noise", "uniform"),
                weak_offset=weak,
            )
        except ValueError as e:
            raise ConfigError(f"invalid needle prompt: {e}") from e
        return PromptSpec(
            kind="needle",
            length=case.seq_len,
            seed=case.seed,
            needle=case,
            observe_rows=_field(doc, "prompt", "observe_rows", 8),
        )
    raise ConfigError(f"unknown prompt kind {kind!r}")


def parse_config(doc: dict) -> ExperimentConfig:
    _require(isinstance(doc, dict), "config must be a JSON object")
    _require(doc.get("schema") == SCHEMA_VERSION, "config requires 'schema': 1")
    _require("model" in doc, "config requires 'model'")
    m = doc["model"]
    _require_type(m, dict, "model", "a JSON object")
    dims = {n: _field(m, "model", n) for n in ("n_layers", "n_heads", "head_dim", "vocab_size")}
    dims["seed"] = _field(m, "model", "seed", 0)
    try:
        model = ModelConfig(**dims)
    except ValueError as e:
        raise ConfigError(f"invalid model config: {e}") from e
    _require("prompt" in doc, "config requires 'prompt'")
    prompt = parse_prompt(doc["prompt"])
    policy_docs = doc.get("policies", [])
    _require_type(policy_docs, list, "policies", "a JSON list")
    policies = tuple(parse_policy(p, f"policies[{i}]") for i, p in enumerate(policy_docs))
    _require(len(policies) >= 1, "config requires at least one policy")
    for spec in policies:
        _require(
            spec.kind != "Hybrid" or spec.split <= model.n_layers,
            f"Hybrid split {spec.split} exceeds model n_layers {model.n_layers}",
        )
    reuse = None
    if doc.get("reuse") is not None:
        _require_type(doc["reuse"], dict, "reuse", "a JSON object")
        reuse = doc["reuse"].get("n_reuse", 1)
        _require_type(reuse, int, "reuse.n_reuse", "an integer")
        _require(1 <= reuse <= model.n_layers, "reuse n_reuse outside [1, n_layers]")
    sweep = doc.get("sweep")
    if sweep is not None:
        _require_type(sweep, dict, "sweep", "a JSON object")
        for axis, values in sweep.items():
            _require(axis in SWEEP_AXES, f"unknown sweep axis {axis!r}")
            _require(isinstance(values, list) and len(values) >= 1, f"sweep axis {axis!r} must be a non-empty list")
            types, what = SWEEP_AXES[axis]
            for i, v in enumerate(values):
                _require_type(v, types, f"sweep.{axis}[{i}]", what)
                if axis == "n_reuse":
                    _require(1 <= v <= model.n_layers, f"sweep.n_reuse[{i}] outside [1, n_layers]")
    out_dir = doc.get("out_dir", "out")
    _require_type(out_dir, str, "out_dir", "a string")
    cfg = ExperimentConfig(
        model=model,
        prompt=prompt,
        policies=policies,
        reuse=reuse,
        sweep=sweep,
        out_dir=out_dir,
        raw=doc,
    )
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
    elif spec.kind == "PyramidStyle":
        try:
            resolved_layer_budgets(spec, cfg.model.n_layers, t_k)
        except ValueError as e:
            raise ConfigError(f"{field}.skew {spec.skew}: {e} at seq_len {t_k}{at}") from e
    elif spec.kind == "StreamingStyle":
        budget = spec.budget.resolve(t_k)
        _require(
            spec.sink <= budget,
            f"{field}.sink {spec.sink} exceeds the budget {budget} resolved at seq_len {t_k}{at}",
        )


def load_config(path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config(doc)


def override_seed(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    """cfg with its prompt seed replaced, needle case and echoed config included."""
    p = cfg.prompt
    needle = replace(p.needle, seed=seed) if p.needle is not None else None
    raw = {**cfg.raw, "prompt": {**cfg.raw["prompt"], "seed": seed}}
    return replace(cfg, prompt=replace(p, seed=seed, needle=needle), raw=raw)


def prompt_tokens(cfg: ExperimentConfig, seed_override: Optional[int] = None) -> tuple[int, ...]:
    p = cfg.prompt
    if p.kind == "tokens":
        return p.tokens
    seed = p.seed if seed_override is None else seed_override
    rng = np.random.Generator(np.random.Philox(key=seed))
    return tuple(int(t) for t in rng.integers(0, cfg.model.vocab_size, size=p.length))


# ---------------------------------------------------------------------------
# synthetic needle scores


def needle_source(cfg: ExperimentConfig) -> ScoreMatrices:
    """Layer-varying synthetic scores of the config's needle case, one per layer."""
    case = cfg.prompt.needle
    return ScoreMatrices(
        tuple(
            make_needle_case(
                replace(case, seed=case.seed * 1000003 + l),
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


def modeled_micros(n_layers: int, n_reuse: int, t_compress: float, t_select: float) -> float:
    anchors = len(range(0, n_layers, n_reuse))
    return anchors * t_compress + (n_layers - anchors) * t_select


# ---------------------------------------------------------------------------
# simulate


def _digest(kept: KeptIndices) -> str:
    payload = ",".join(str(p) for p in kept.positions).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


def _observe_rows(cfg: ExperimentConfig) -> int:
    """Observe rows prefill keeps: the widest w of any policy or Hybrid inner policy."""
    specs = [s for p in cfg.policies for s in (p, p.inner_a, p.inner_b) if s is not None]
    return max(1, *(s.budget.w for s in specs))


def _final_row_attention(trace: PrefillTrace, layer: int, head: int) -> TensorView:
    return TensorView(trace.observe_probs[layer][head].data[-1:])


def _fidelity(
    trace: PrefillTrace, kept: list[list[KeptIndices]]
) -> tuple[list[float], list[float]]:
    """Per-layer head means of the evicted KV L1 and the final-row attention cosine."""
    heads = range(trace.n_heads)
    l1s, coss = [], []
    for l in range(trace.n_layers):
        kv = trace.layer_kv(l)
        l1s.append(float(np.mean([kv_l1_loss(kv, kept[l][h]) for h in heads])))
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
            speedup_estimate(cfg.model.n_layers, cfg.reuse, t_c, t_s), 6
        )
    return rep


def run_simulate(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Run every policy once; returns (report, timings).

    timings holds prefill_s and a list with one entry per policy, in report
    order: its name, select_s (the reuse loop's kept sets) and fidelity_s
    (the fidelity metrics on them).
    """
    timings: dict[str, Any] = {"policies": []}

    trace: Optional[PrefillTrace] = None
    if cfg.prompt.kind == "needle":
        source = needle_source(cfg)
    else:
        model = init_model(cfg.model)
        t0 = time.perf_counter()
        trace = source = prefill(model, prompt_tokens(cfg), observe_rows=_observe_rows(cfg))
        timings["prefill_s"] = time.perf_counter() - t0
    t_k = source.seq_len
    plan = ReusePlan(n_layers=cfg.model.n_layers, n_reuse=cfg.reuse or 1)

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
    reuses = sw.get("n_reuse", [cfg.reuse or 1])
    seeds = sw.get("seeds", [cfg.prompt.seed])
    return [
        (int(c), float(r), int(n), int(s))
        for c, r, n, s in itertools.product(cs, ratios, reuses, seeds)
    ]


def _seed_rows(cfg: ExperimentConfig, seed: int, cells: list) -> list[list[dict]]:
    """Every cell of one prompt seed, on one source built (prefilled) once."""
    if cfg.prompt.kind == "needle":
        source = needle_source(cfg)
    else:
        tokens = prompt_tokens(cfg, seed_override=seed)
        source = prefill(init_model(cfg.model), tokens, observe_rows=_observe_rows(cfg))
    return [run_sweep_cell(cfg, source, c, r, n, seed) for c, r, n, _ in cells]


def _seed_worker(args):
    doc, seed, cells = args
    return _seed_rows(parse_config(doc), seed, cells)


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path, workers: int = 1) -> Path:
    cells = _sweep_cells(cfg)
    seeds = list(dict.fromkeys(cell[3] for cell in cells))
    groups = [(s, [cell for cell in cells if cell[3] == s]) for s in seeds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_seed_worker, [(cfg.raw, *g) for g in groups]))
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
    model = init_model(cfg.model)
    trace = prefill(model, prompt_tokens(cfg), observe_rows=_observe_rows(cfg))
    spec = cfg.policies[0]

    def median_time(fn) -> float:
        samples = []
        for _ in range(max(repetitions, 5)):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return float(np.median(samples))

    t_compress = median_time(lambda: compress_layer(trace, 0, spec))
    anchor = compress_layer(trace, 0, spec)
    t_select = median_time(lambda: list(anchor))

    reuses = cfg.sweep.get("n_reuse") if cfg.sweep else None
    reuses = [int(n) for n in (reuses or [cfg.reuse])]
    fresh = ReusePlan(n_layers=cfg.model.n_layers, n_reuse=1)
    rows = []
    for n_reuse in reuses:
        plan = ReusePlan(n_layers=cfg.model.n_layers, n_reuse=n_reuse)
        t_full = median_time(lambda: run_with_reuse(trace, spec, fresh))
        t_reuse = median_time(lambda: run_with_reuse(trace, spec, plan))
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
