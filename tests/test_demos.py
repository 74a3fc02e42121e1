"""Every narrative script in demos/, every Python block of README.md and
every `isolab` command line of README.md runs to completion, and README's
flags table lists the flags each subcommand takes."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isolab import write_operator
from isolab.harness import _COMMAND_FLAGS, main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README,
                           flags=re.M | re.S)
README_CLI_LINES = re.findall(r"^isolab (.+)$", README, flags=re.M)


def run_python(args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("script", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.stem)
def test_demo_exits_zero(script):
    run_python([str(script)])


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_exits_zero(block):
    run_python(["-c", block])


@pytest.mark.parametrize("line", README_CLI_LINES,
                         ids=[line.split()[0] for line in README_CLI_LINES])
def test_readme_cli_line_exits_zero(line, tmp_path, monkeypatch, capsys):
    # run where README's relative paths (operator.json, table.csv) resolve
    monkeypatch.chdir(tmp_path)
    write_operator("operator.json", 2 * np.eye(3))
    assert main(shlex.split(line)) == 0, capsys.readouterr().err


def test_readme_flags_table_lists_each_subcommands_flags():
    section = README.split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, flags=re.M)
    assert sorted(cmd for cmd, _ in rows) == sorted(_COMMAND_FLAGS)
    for cmd, cell in rows:
        flags = re.findall(r"`(--[a-z-]+)`", cell)
        assert len(flags) == len(set(flags)), cmd
        assert set(flags) == {*_COMMAND_FLAGS[cmd], "--config"}, cmd
