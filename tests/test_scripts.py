"""Smoke tests of the study scripts: each runs to exit 0 and writes what it announces."""

import os
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
