"""The README's example config runs under every command that reads it."""

import json
import re
from pathlib import Path

import pytest

from kvlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config() -> dict:
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1, "README.md should hold exactly one json example block"
    return json.loads(blocks[0])


@pytest.mark.parametrize("command", ["simulate", "sweep", "similarity", "reuse-bench"])
def test_readme_example_config_runs(tmp_path, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(readme_config()))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    assert any(out.iterdir())
