"""Smoke tests of the study scripts: each runs to exit 0 and writes what it announces."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("chunk_size_sweep.py", ["--length", "32", "--seeds", "0", "1"]),
        ("reuse_similarity.py", ["--length", "32"]),
    ],
)
def test_script_writes_what_it_announces(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # no bytecode under src
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out", str(out), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    written = [Path(line[len("wrote ") :]) for line in proc.stdout.splitlines() if line.startswith("wrote ")]
    assert written
    for path in written:
        assert path.is_file()
        assert out in path.parents


POLICIES = ["ChunkKV", "SnapKVStyle", "H2OStyle"]  # the script's policies, in its order


@pytest.fixture(scope="module")
def reuse_similarity(tmp_path_factory):
    """The script's --out and the number of prefills it ran, from one run at length 32."""
    import kvlab.experiments

    prefills = []
    real = kvlab.experiments.prefill
    out = tmp_path_factory.mktemp("reuse_similarity") / "out"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kvlab.experiments, "prefill", lambda *a, **k: prefills.append(1) or real(*a, **k))
        mp.setattr(sys, "argv", ["reuse_similarity.py", "--out", str(out), "--length", "32"])
        runpy.run_path(str(ROOT / "scripts" / "reuse_similarity.py"), run_name="__main__")
    return out, len(prefills)


def _matrix(out, policy):
    report = json.loads((out / "report.json").read_text())
    (matrix,) = [p["similarity_matrix"] for p in report["policies"] if p["policy"] == policy]
    return matrix


def test_reuse_similarity_prefills_once_per_command(reuse_similarity):
    # one prefill for report.json and one for reuse-bench, with every layer
    # selecting its own kept set
    out, prefills = reuse_similarity
    assert prefills == 2
    report = json.loads((out / "report.json").read_text())
    assert "reuse" not in report["config"]
    assert [p["policy"] for p in report["policies"]] == POLICIES


def test_reuse_similarity_writes_a_heatmap_pair_per_policy(reuse_similarity):
    out, _ = reuse_similarity
    assert sorted(p.name for p in out.glob("similarity_*")) == sorted(
        f"similarity_{name}.{ext}" for name in POLICIES for ext in ("csv", "pgm")
    )


@pytest.mark.parametrize("policy", POLICIES)
def test_reuse_similarity_csv_is_its_report(reuse_similarity, policy):
    out, _ = reuse_similarity
    matrix = _matrix(out, policy)
    table = (out / f"similarity_{policy}.csv").read_bytes().decode()
    assert table == "".join(",".join(f"{v:.3f}" for v in row) + "\r\n" for row in matrix)


@pytest.mark.parametrize("policy", POLICIES)
def test_reuse_similarity_pgm_is_its_report(reuse_similarity, policy):
    out, _ = reuse_similarity
    matrix = _matrix(out, policy)
    lines = (out / f"similarity_{policy}.pgm").read_text().splitlines()
    assert lines[:3] == ["P2", "8 8", "255"]  # the script's 8 layers
    levels = [[int(px) for px in line.split()] for line in lines[3:]]
    assert levels == [[round(v * 255) for v in row] for row in matrix]
    assert [levels[i][i] for i in range(8)] == [255] * 8  # a layer against itself
