"""README's examples run as written.

Every `colonlab ...` line of README's shell blocks goes through cli.main and
must exit 0; the `--in session.txt` line reads README's session block, written
to a scratch directory first. README's two Python blocks run in one namespace
and must print what README says they print.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from colonlab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def blocks(language):
    """The bodies of README's fenced blocks tagged with language ("" for untagged)."""
    text = README.read_text(encoding="utf-8")
    return [body for tag, body in re.findall(r"^```(\w*)\n(.*?)^```", text, re.M | re.S)
            if tag == language]


COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for block in blocks("sh")
    for line in block.splitlines()
    if line.startswith("colonlab ")
]


def test_readme_examples_were_found():
    assert len(COMMANDS) >= 14
    assert ["hilbert", "--in", "session.txt", "--ideal2", "x,y"] in COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    session = next(body for body in blocks("") if body.startswith("field = "))
    (tmp_path / "session.txt").write_text(session, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err


def test_python_examples_print_what_readme_says(capsys):
    namespace = {}
    for block in blocks("python"):
        exec(block, namespace)
    assert capsys.readouterr().out.splitlines() == ["(1, 2, 1, 1) False False True", "1"]
