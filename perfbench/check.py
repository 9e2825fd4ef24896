"""Output checks for the benchmark workloads.

Two kinds of check, both reading only named fields so that outputs may gain
fields without failing:

* rules that hold at every seed: the report has one entry per configured
  policy, layer and head; retained <= resolved budget; FullKV retains all T
  positions; reused layers repeat their anchor's kept sets; fractions,
  cosines and Jaccard values lie in [0, 1]; sweep rows follow the grid;
* at the seed golden.json was recorded with, digests of kept sets and
  retained counts, fidelity values, sweep rows and needle fractions must
  equal the recorded ones.

Each check returns a list of error strings; an empty list means the output
is correct.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# sweep.csv columns whose values golden.json records.
SWEEP_FIELDS = (
    "policy", "c", "ratio", "n_reuse", "seed", "adjacent_jaccard", "kv_l1",
    "attn_cos", "needle_fraction", "needle_intact", "micros_compress",
)

_EPS = 1e-6


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def policy_name(doc: dict) -> str:
    if doc["kind"] == "Hybrid":
        return f"Hybrid[{doc['inner_a']['kind']}|{doc['inner_b']['kind']}@{doc['split']}]"
    return doc["kind"]


def layer_budget(doc: dict, seq_len: int, layer: int) -> int:
    """Upper bound on the positions a policy may keep in one layer."""
    if doc["kind"] == "Hybrid":
        return layer_budget(doc["inner_a" if layer < doc["split"] else "inner_b"], seq_len, layer)
    if doc["kind"] == "FullKV":
        return seq_len
    b = doc["budget"]
    base = max(b["w"] + b["c"], math.floor(b["ratio"] * seq_len))
    if doc["kind"] == "PyramidStyle":
        # layer 0 targets (1 + skew) * base; rounding adds at most one
        return math.floor(base * (1.0 + doc.get("skew", 0.0))) + 1
    return base


def _unit(name: str, value, errors: list[str]) -> None:
    if not (isinstance(value, (int, float)) and -_EPS <= value <= 1.0 + _EPS):
        errors.append(f"{name}={value!r} outside [0, 1]")


def _report_rules(cfg: dict, report: dict) -> list[str]:
    errors: list[str] = []
    t = cfg["prompt"]["length"]
    n_layers, n_heads = cfg["model"]["n_layers"], cfg["model"]["n_heads"]
    n_reuse = (cfg.get("reuse") or {}).get("n_reuse")
    if report.get("seq_len") != t:
        errors.append(f"seq_len {report.get('seq_len')} != {t}")
    names = [policy_name(p) for p in cfg["policies"]]
    got = [p.get("policy") for p in report.get("policies", [])]
    if got != names:
        return errors + [f"policies {got} != {names}"]
    for i, (doc, rep) in enumerate(zip(cfg["policies"], report["policies"])):
        where = f"policy {i} {names[i]}"
        layers = rep["layers"]
        if len(layers) != n_layers or any(len(l["heads"]) != n_heads for l in layers):
            errors.append(f"{where}: not {n_layers} layers x {n_heads} heads")
            continue
        for l, layer in enumerate(layers):
            budget = min(layer_budget(doc, t, l), t)
            for h, head in enumerate(layer["heads"]):
                kept = head["retained"]
                if doc["kind"] == "FullKV" and kept != t:
                    errors.append(f"{where} layer {l} head {h}: FullKV retains {kept} != {t}")
                if not 1 <= kept <= budget:
                    errors.append(f"{where} layer {l} head {h}: retained {kept} > budget {budget}")
            if n_reuse and l % n_reuse:
                anchor = layers[l - l % n_reuse]["heads"]
                if [x["digest"] for x in layer["heads"]] != [x["digest"] for x in anchor]:
                    errors.append(f"{where} layer {l}: kept sets differ from anchor layer")
        fid = rep["fidelity"]
        for v in [fid["attn_cos"], *fid["per_layer_cos"]]:
            _unit(f"{where} attn_cos", v, errors)
        if min(fid["kv_l1"], *fid["per_layer_l1"]) < 0:
            errors.append(f"{where}: kv_l1 < 0")
        if doc["kind"] == "FullKV" and (fid["kv_l1"] != 0 or abs(fid["attn_cos"] - 1) > _EPS):
            errors.append(f"{where}: FullKV fidelity {fid['kv_l1']}, {fid['attn_cos']}")
        _unit(f"{where} adjacent_jaccard", rep["adjacent_jaccard"], errors)
    return errors


def _report_digests(cfg: dict, report: dict) -> dict:
    out = {}
    for i, rep in enumerate(report["policies"]):
        kept = [[[h["retained"], h["digest"]] for h in l["heads"]] for l in rep["layers"]]
        out[f"{i}:{rep['policy']}.kept"] = digest(kept)
        out[f"{i}:{rep['policy']}.fidelity"] = digest(rep["fidelity"])
    return out


def _sweep_rules(cfg: dict, rows: list[dict]) -> list[str]:
    errors: list[str] = []
    sw = cfg["sweep"]
    names = [policy_name(p) for p in cfg["policies"]]
    grid = [
        (c, r, n, s, name)
        for c, r, n, s in itertools.product(sw["c"], sw["ratio"], sw["n_reuse"], sw["seeds"])
        for name in names
    ]
    if len(rows) != len(grid):
        return [f"{len(rows)} sweep rows, expected {len(grid)}"]
    for i, (row, (c, r, n, s, name)) in enumerate(zip(rows, grid)):
        where = f"sweep row {i}"
        try:
            key = (int(row["c"]), float(row["ratio"]), int(row["n_reuse"]), int(row["seed"]), row["policy"])
            values = {k: float(row[k]) for k in ("adjacent_jaccard", "kv_l1", "attn_cos", "needle_fraction")}
        except (KeyError, ValueError) as e:
            errors.append(f"{where}: unreadable ({e})")
            continue
        if key != (c, r, n, s, name):
            errors.append(f"{where}: {key} != {(c, r, n, s, name)}")
        for k in ("adjacent_jaccard", "attn_cos", "needle_fraction"):
            _unit(f"{where} {k}", values[k], errors)
        if values["kv_l1"] < 0:
            errors.append(f"{where} kv_l1 < 0")
        if row["needle_intact"] != str(values["needle_fraction"] == 1.0).lower():
            errors.append(f"{where}: needle_intact disagrees with needle_fraction")
    return errors


def _sweep_digests(cfg: dict, rows: list[dict]) -> dict:
    by_policy: dict[str, list] = {}
    for row in rows:
        by_policy.setdefault(row["policy"], []).append([row.get(k) for k in SWEEP_FIELDS])
    return {f"{name}.rows": digest(v) for name, v in by_policy.items()}


def _needle_rules(cfg: dict, out: dict) -> list[str]:
    errors: list[str] = []
    n_layers = cfg["model"]["n_layers"]
    prompt = cfg["prompt"]
    case = out.get("case", {})
    for k in ("seq_len", "span_start", "span_len", "seed", "weak_offset"):
        if case.get(k) != prompt[k]:
            errors.append(f"needle case {k}={case.get(k)!r} != {prompt[k]!r}")
    names = [policy_name(p) for p in cfg["policies"]]
    got = [p.get("policy") for p in out.get("policies", [])]
    if got != names:
        return errors + [f"policies {got} != {names}"]
    for rep in out["policies"]:
        where = f"needle {rep['policy']}"
        per_layer = rep["per_layer"]
        if [p["layer"] for p in per_layer] != list(range(n_layers)):
            errors.append(f"{where}: layers are not 0..{n_layers - 1}")
            continue
        fracs = [p["fraction"] for p in per_layer]
        for l, p in enumerate(per_layer):
            _unit(f"{where} layer {l} fraction", p["fraction"], errors)
            if p["intact"] != (p["fraction"] == 1.0):
                errors.append(f"{where} layer {l}: intact disagrees with fraction")
        if abs(rep["mean_fraction"] - sum(fracs) / len(fracs)) > _EPS:
            errors.append(f"{where}: mean_fraction is not the mean of the layers")
        if rep["intact_all_layers"] != all(p["intact"] for p in per_layer):
            errors.append(f"{where}: intact_all_layers disagrees with the layers")
    return errors


def _needle_digests(cfg: dict, out: dict) -> dict:
    return {
        f"{i}:{rep['policy']}.fractions": digest(
            [rep["mean_fraction"], rep["intact_all_layers"],
             [[p["layer"], p["fraction"], p["intact"]] for p in rep["per_layer"]]]
        )
        for i, rep in enumerate(out["policies"])
    }


def _load(command: str, path: Path):
    if command == "sweep":
        with path.open(newline="") as f:
            return list(csv.DictReader(f))
    return json.loads(path.read_text())


_RULES = {"simulate": _report_rules, "sweep": _sweep_rules, "needle": _needle_rules}
_DIGESTS = {"simulate": _report_digests, "sweep": _sweep_digests, "needle": _needle_digests}


def field_digests(command: str, cfg: dict, path: Path) -> dict:
    return _DIGESTS[command](cfg, _load(command, path))


def check_output(command: str, cfg: dict, path: Path, golden: dict | None) -> list[str]:
    """Errors found in one command's output; golden is None at other seeds."""
    try:
        data = _load(command, path)
        errors = _RULES[command](cfg, data)
        if golden is not None:
            got = _DIGESTS[command](cfg, data)
            errors += [
                f"{field} differs from the recorded output"
                for field, want in golden.items()
                if got.get(field) != want
            ]
    except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
        errors = [f"unreadable output {path.name}: {type(e).__name__}: {e}"]
    return errors


def load_golden(workload: str, seed: int) -> dict | None:
    """Recorded digests for a workload, or None when seed is not the recorded one."""
    doc = json.loads(GOLDEN.read_text())
    if seed != doc["seed"]:
        return None
    return doc["workloads"][workload]
