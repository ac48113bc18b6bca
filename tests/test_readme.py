"""Every command of README's "Command line" block runs and exits 0."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from cliquedyn.cli import main

README = Path(__file__).parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    text = README.read_text()
    section = text[text.index("## Command line") :]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("cliquedyn ")]


def test_readme_commands_run_in_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        code = main(argv)
        _, err = capsys.readouterr()
        assert (code, err) == (0, ""), argv
