"""The README's example config runs under every command that reads it, and its
flags are the CLI's."""

import argparse
import json
import re
from pathlib import Path

import pytest

from kvlab.cli import build_parser, main

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


def test_readme_flags_are_the_cli_flags():
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    defined = {
        flag
        for sub in subs.choices.values()
        for action in sub._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    lines = [line for line in README.read_text().splitlines() if not line.startswith("pip ")]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", "\n".join(lines)))
    assert documented == defined  # a stale flag on the left, an undocumented one on the right
