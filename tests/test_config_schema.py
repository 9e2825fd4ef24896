"""parse_config against arbitrary JSON, and against the benchmark's own configs.

Whatever budget parse_config accepts must run: every policy and every sweep
cell, over a score source of the prompt's length.  Every command exits 0 or
2 on a bounded config, whatever its output path, and on a valid config with
one numeric field at an extreme value.
"""

import contextlib
import copy
import importlib.util
import io
import json
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvlab.cache import BudgetSpec
from kvlab.cli import main
from kvlab.experiments import (
    ConfigError,
    ExperimentConfig,
    PromptSpec,
    ReuseSpec,
    SweepSpec,
    _cell_spec,
    _sweep_cells,
    parse_config,
)
from kvlab.metrics import NeedleCase
from kvlab.model import ModelConfig
from kvlab.policies import POLICY_KINDS, PolicySpec, ScoreMatrices
from kvlab.reuse import ReusePlan, run_with_reuse

ROOT = Path(__file__).resolve().parents[1]

SCHEMA = (
    ExperimentConfig, ModelConfig, PromptSpec, PolicySpec, BudgetSpec, NeedleCase, ReuseSpec,
    SweepSpec,
)
KEYS = sorted({f.name for cls in SCHEMA for f in fields(cls)} | {"schema"})
WORDS = [
    *POLICY_KINDS, "random", "tokens", "needle", "exposure", "none",
    "uniform", "gaussian",
]

# Integers stay small: parse_config checks one budget per model layer and
# per sweep cell, so a large n_layers or sweep axis only makes an example
# slow.  parse_config never prefills, so nothing else grows with them.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 40),
    st.floats(),  # json.loads also yields NaN and Infinity
    st.sampled_from(WORDS),
    st.text(max_size=3),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=5),
    ),
    max_leaves=20,
)


def _budget(**extra):
    return {"ratio": 0.25, "w": 4, "c": 5, **extra}


VALID = [
    {
        "schema": 1,
        "model": {"n_layers": 4, "n_heads": 2, "head_dim": 8, "vocab_size": 64, "seed": 3},
        "prompt": {"kind": "random", "length": 48, "seed": 1},
        "policies": [
            {"kind": "StreamingStyle", "budget": _budget(), "sink": 2},
            {
                "kind": "Hybrid", "split": 2, "budget": _budget(),
                "inner_a": {"kind": "PyramidStyle", "budget": _budget(), "skew": 0.2},
                "inner_b": {"kind": "SnapKVStyle", "budget": _budget(), "pool_width": 3},
            },
        ],
        "reuse": {"n_reuse": 2},
        "sweep": {"c": [3, 5], "ratio": [0.2], "n_reuse": [1, 2], "seeds": [0]},
    },
    {
        "schema": 1,
        "model": {"n_layers": 2, "n_heads": 1, "head_dim": 4, "vocab_size": 16},
        "prompt": {
            "kind": "needle", "seq_len": 30, "span_start": 5, "span_len": 3, "signal": 9,
            "weak_offset": 1, "observe_rows": 2,
        },
        "policies": [{"kind": "H2OStyle", "budget": {"max_len": 12, "w": 2, "c": 3}}],
    },
    {
        "schema": 1,
        "model": {"n_layers": 2, "n_heads": 1, "head_dim": 4, "vocab_size": 16},
        "prompt": {"kind": "random", "length": 8},
        "policies": [{"kind": "ChunkKV", "budget": _budget(), "head_pool": True}],
    },
]


def _slots(node, path=()):
    """Every (container path, key) of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path, key
        if isinstance(value, (dict, list)):
            yield from _slots(value, path + (key,))


@st.composite
def near_valid(draw):
    """A valid config with up to three keys replaced, removed or added."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID)))
    for _ in range(draw(st.integers(1, 3))):
        path, key = draw(st.sampled_from(list(_slots(doc))))
        node = doc
        for step in path:
            node = node[step]
        action = draw(st.sampled_from(["replace", "remove", "add"]))
        if action == "replace":
            node[key] = draw(JSON)
        elif isinstance(node, dict) and action == "remove":
            del node[key]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(KEYS))] = draw(JSON)
    return doc


@settings(max_examples=400, deadline=None)
@given(st.one_of(JSON, near_valid()))
@example({"prompt": {"kind": {}}})
@example({**VALID[0], "prompt": {"kind": {}}})
@example({**VALID[0], "sweep": {"ratio": [10**400]}})
@example({**VALID[0], "policies": [{"kind": "PyramidStyle", "budget": {"max_len": 10**400}}]})
@example(
    {
        **VALID[0],
        "prompt": {"kind": "random", "length": 10**400},
        "policies": [{"kind": "StreamingStyle", "budget": {"ratio": 0.5}}],
    }
)
@example({**VALID[0], "model": {**VALID[0]["model"], "seed": 10**400}})
@example({**VALID[0], "prompt": {**VALID[0]["prompt"], "seed": -1}})
def test_parse_config_returns_a_config_or_raises_config_error(doc):
    try:
        cfg = parse_config(doc)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_configs_parse(name, seed):
    assert isinstance(parse_config(WORKLOADS[name].config(seed)), ExperimentConfig)


# Budget fields near their edges: a max_len below w, a sink or skew above
# what the budget allows and a split past the last layer all occur, so
# parse_config rejects some drafts and the rest must run.
BUDGETS = st.one_of(
    st.fixed_dictionaries({"max_len": st.integers(0, 80)}, optional={
        "w": st.integers(0, 6), "c": st.integers(1, 10),
    }),
    st.fixed_dictionaries({"ratio": st.floats(0.0, 1.0, exclude_min=True)}, optional={
        "w": st.integers(0, 6), "c": st.integers(1, 10),
    }),
)
PLAIN_KINDS = [k for k in POLICY_KINDS if k != "Hybrid"]


def _policies(kinds, budgets=BUDGETS):
    return st.fixed_dictionaries({"kind": st.sampled_from(kinds), "budget": budgets}, optional={
        "sink": st.integers(0, 20),
        "skew": st.floats(0.0, 0.95),
        "pool_width": st.sampled_from([1, 3, 7]),
        "head_pool": st.booleans(),
    })


POLICIES = st.one_of(
    _policies(PLAIN_KINDS),
    st.fixed_dictionaries({
        "kind": st.just("Hybrid"),
        "budget": BUDGETS,
        "split": st.integers(1, 4),
        "inner_a": _policies(PLAIN_KINDS),
        "inner_b": _policies(PLAIN_KINDS),
    }),
)
SWEEPS = st.fixed_dictionaries({}, optional={
    "c": st.lists(st.integers(1, 10), min_size=1, max_size=2),
    "ratio": st.lists(st.floats(0.05, 1.0), min_size=1, max_size=2),
    "n_reuse": st.lists(st.integers(1, 4), min_size=1, max_size=2),
})


@settings(max_examples=300, deadline=None)
@given(
    n_layers=st.integers(1, 6),
    seq_len=st.integers(1, 64),
    policies=st.lists(POLICIES, min_size=1, max_size=2),
    sweep=st.none() | SWEEPS,
)
def test_every_accepted_budget_runs(n_layers, seq_len, policies, sweep):
    doc = {
        "schema": 1,
        "model": {"n_layers": n_layers, "n_heads": 1, "head_dim": 4, "vocab_size": 16},
        "prompt": {"kind": "random", "length": seq_len},
        "policies": policies,
        "sweep": sweep,
    }
    try:
        cfg = parse_config(doc)
    except ConfigError:
        return
    rng = np.random.Generator(np.random.Philox(key=seq_len))
    source = ScoreMatrices(tuple(
        rng.uniform(0, 1, size=(4, seq_len)).astype(np.float32)
        for _ in range(n_layers)
    ))
    runs = [(spec, 1) for spec in cfg.policies]
    if cfg.sweep is not None:
        cells = _sweep_cells(cfg)
        runs += [(_cell_spec(spec, c, r), n) for c, r, n, _ in cells for spec in cfg.policies]
    for spec, n_reuse in runs:
        kept = run_with_reuse(source, spec, ReusePlan(n_layers, n_reuse))
        assert all(p < seq_len for heads in kept for k in heads for p in k)


# Every size stays small, so no draw reaches the allocator with a large
# array: free JSON (near_valid) can ask for gigabytes.  The draws lean
# towards configs that parse, so that most examples run their command.
RUNNABLE_BUDGETS = st.one_of(
    st.fixed_dictionaries({"max_len": st.integers(8, 80)}, optional={
        "w": st.integers(0, 6), "c": st.integers(1, 10),
    }),
    st.fixed_dictionaries({"ratio": st.floats(0.05, 1.0)}, optional={
        "w": st.integers(0, 6), "c": st.integers(1, 10),
    }),
)


@st.composite
def command_docs(draw):
    """A bounded config document for every command, mostly one parse_config accepts."""
    n_layers = draw(st.integers(1, 6))
    length = draw(st.integers(1, 64))
    span_len = draw(st.integers(1, min(length, 16)))
    plain = _policies(PLAIN_KINDS, RUNNABLE_BUDGETS)
    hybrid = st.fixed_dictionaries({
        "kind": st.just("Hybrid"),
        "budget": RUNNABLE_BUDGETS,
        "split": st.integers(1, n_layers),
        "inner_a": plain,
        "inner_b": plain,
    })
    prompt = st.one_of(
        st.fixed_dictionaries(
            {"kind": st.just("random"), "length": st.just(length)},
            optional={"seed": st.integers(0, 3)},
        ),
        st.fixed_dictionaries({
            "kind": st.just("needle"),
            "seq_len": st.just(length),
            "span_start": st.integers(0, length - span_len),
            "span_len": st.just(span_len),
            "signal": st.floats(0.0, 50.0),
        }, optional={
            "weak_offset": st.integers(0, span_len - 1),
            "observe_rows": st.integers(1, 8),
            "seed": st.integers(0, 3),
        }),
    )
    doc = {
        "schema": 1,
        "model": {
            "n_layers": n_layers, "n_heads": draw(st.integers(1, 2)), "head_dim": 4,
            "vocab_size": 16,
        },
        "prompt": draw(prompt),
        "policies": draw(st.lists(plain | hybrid, min_size=1, max_size=2)),
    }
    reuse = draw(st.none() | st.integers(1, n_layers))
    if reuse is not None:
        doc["reuse"] = {"n_reuse": reuse}
    sweep = draw(st.none() | st.fixed_dictionaries({
        "seeds": st.lists(st.integers(0, 3), min_size=1, max_size=2),
    }, optional={
        "c": st.lists(st.integers(1, 10), min_size=1, max_size=2),
        "ratio": st.lists(st.floats(0.05, 1.0), min_size=1, max_size=2),
        "n_reuse": st.lists(st.integers(1, n_layers), min_size=1, max_size=2),
    }))
    if sweep is not None:
        doc["sweep"] = sweep
    return doc


COMMANDS = ["simulate", "sweep", "needle", "similarity", "reuse-bench"]
# the file each command writes whose name does not depend on the config
OUTPUT_FILE = {
    "simulate": "report.json", "sweep": "sweep.csv", "needle": "needle.json",
    "reuse-bench": "reuse_bench.json",
}


@settings(max_examples=150, deadline=None)
@given(
    command_out=st.sampled_from([
        (command, out) for command in COMMANDS
        for out in ["fresh", "file", "below-file", "output-file"]
        if out != "output-file" or command in OUTPUT_FILE
    ]),
    doc=command_docs(),
    seed=st.none() | st.integers(-1, 3),
)
def test_every_command_exits_0_or_2(command_out, doc, seed):
    command, out = command_out
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "afile").write_text("")
        if out == "output-file":  # a directory where the command's output file goes
            (tmp / "out" / OUTPUT_FILE[command]).mkdir(parents=True)
        out_dir = {
            "fresh": tmp / "out", "output-file": tmp / "out",
            "file": tmp / "afile", "below-file": tmp / "afile" / "x",
        }[out]
        argv = [command, "--config", str(tmp / "config.json"), "--out", str(out_dir)]
        if seed is not None:  # -1 lies outside Philox's key range
            doc = {**doc, "prompt": {**doc["prompt"], "seed": seed}}
        (tmp / "config.json").write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2), err.getvalue()
    assert out == "fresh" or code == 2, err.getvalue()
    assert seed != -1 or code == 2, err.getvalue()


def _half():
    return {"ratio": 0.5, "w": 2, "c": 3}  # a fresh dict each call: one edit changes one field


# A valid config of every policy kind (a Hybrid among them), a reuse plan and
# all four sweep axes, with a random or a needle prompt.
_EXTREME_POLICIES = [
    {"kind": "FullKV", "budget": {"ratio": 1.0, "w": 0, "c": 1}},
    {"kind": "ChunkKV", "budget": _half(), "head_pool": True},
    {"kind": "SnapKVStyle", "budget": _half(), "pool_width": 3},
    {"kind": "H2OStyle", "budget": {"max_len": 12, "w": 2, "c": 3}},
    {"kind": "StreamingStyle", "budget": _half(), "sink": 2},
    {
        "kind": "Hybrid", "split": 1, "budget": _half(),
        "inner_a": {"kind": "PyramidStyle", "budget": _half(), "skew": 0.2},
        "inner_b": {"kind": "ChunkKV", "budget": {"max_len": 10, "w": 1, "c": 2}},
    },
]
EXTREME_BASES = [
    {
        "schema": 1,
        "model": {"n_layers": 2, "n_heads": 1, "head_dim": 4, "vocab_size": 16, "seed": 1},
        "prompt": prompt,
        "policies": _EXTREME_POLICIES,
        "reuse": {"n_reuse": 2},
        "sweep": {"c": [3], "ratio": [0.5], "n_reuse": [2], "seeds": [1]},
    }
    for prompt in (
        {"kind": "random", "length": 24, "seed": 2},
        {
            "kind": "needle", "seq_len": 24, "span_start": 6, "span_len": 3, "signal": 9.0,
            "weak_offset": 1, "observe_rows": 2, "seed": 2,
        },
    )
]
# Fields that size arrays are left out: they can reach the allocator, and
# the _require_bytes tests cover them.
SIZE_FIELDS = {
    ("model", "n_layers"), ("model", "n_heads"), ("model", "head_dim"), ("model", "vocab_size"),
    ("prompt", "length"), ("prompt", "seq_len"), ("prompt", "observe_rows"),
}


def _node(doc, path):
    for step in path:
        doc = doc[step]
    return doc


# (base index, container path, key) of every numeric field but the sizes
EXTREME_SLOTS = [
    (i, path, key)
    for i, doc in enumerate(EXTREME_BASES)
    for path, key in _slots(doc)
    if path[-1:] + (key,) not in SIZE_FIELDS and type(_node(doc, path)[key]) in (int, float)
]
EXTREMES = [
    0, -1, 2**63, 2**64 + 1, 2**128, 10**400, -(10**400),
    0.0, -0.0, 5e-324, 1e-300, 1.0000001, 1e308, -1e308, 1.7976931348623157e308, 3.5e38,
]


def _run(command, doc) -> tuple[int, str]:
    """command's exit code on doc, with a fresh output directory, and its stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(config), "--out", str(Path(tmp) / "out")])
    return code, err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("base", range(len(EXTREME_BASES)), ids=["random", "needle"])
def test_extreme_bases_run(base, command):
    needle_on_random = command == "needle" and base == 0
    expected = (2, "error: needle command requires a needle prompt\n") if needle_on_random else (0, "")
    assert _run(command, EXTREME_BASES[base]) == expected


@st.composite
def _extreme_edits(draw) -> tuple[int, list]:
    """A base index and one or two distinct slots of that base, each with its own extreme."""
    base = draw(st.sampled_from(range(len(EXTREME_BASES))))
    slots = [(path, key) for i, path, key in EXTREME_SLOTS if i == base]
    first = draw(st.sampled_from(slots))
    rest = [s for s in slots if s != first]
    picked = [first, *draw(st.lists(st.sampled_from(rest), max_size=1))]
    return base, [(path, key, draw(st.sampled_from(EXTREMES))) for path, key in picked]


@settings(max_examples=150, deadline=None)
@given(edits=_extreme_edits(), command=st.sampled_from(COMMANDS))
def test_every_command_exits_0_or_2_at_the_extremes(edits, command):
    base, slots = edits
    doc = copy.deepcopy(EXTREME_BASES[base])
    for path, key, value in slots:
        _node(doc, path)[key] = value
    code, err = _run(command, doc)
    assert code in (0, 2), err
