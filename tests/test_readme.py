"""Every ``torusdet`` line in README.md's fenced blocks exits 0, and every
option README.md names exists."""

import pathlib
import re
import shlex

import pytest

from torusdet.cli import COMMANDS, main

README = pathlib.Path(__file__).parent.parent / "README.md"


def _fenced_lines(text):
    inside = False
    for line in text.splitlines():
        if line.startswith("```"):
            inside = not inside
        elif inside:
            yield line


LINES = [line for line in _fenced_lines(README.read_text())
         if line.startswith("torusdet ")]


def test_readme_shows_every_command():
    assert {shlex.split(line)[1] for line in LINES} == set(COMMANDS)


@pytest.mark.parametrize("line", LINES, ids=lambda line: line[9:])
def test_readme_line_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)   # a line may write its --csv-out file
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().err == ""


def test_readme_names_only_existing_options():
    options = {flag for row in COMMANDS.values() for flag, _ in row.args}
    options |= {"--json-out", "--csv-out"}
    named = {flag for line in README.read_text().splitlines()
             if "pip install" not in line
             for flag in re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", line)}
    assert named and named <= options, sorted(named - options)
