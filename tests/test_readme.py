"""README examples: the library quickstart and every command-line example run."""

import shlex
from pathlib import Path

import pytest

from fuzzycorr.cli import COMMANDS, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading, language):
    """The first fenced ``language`` block after the line ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


COMMAND_LINES = [line for line in _block("## Command line", "sh").splitlines()
                 if line.startswith("fuzzycorr ")]


def test_quickstart_runs(capsys):
    exec(_block("## Library quickstart", "python"), {})
    assert capsys.readouterr().out


def test_every_command_has_an_example():
    assert sorted(shlex.split(line)[1] for line in COMMAND_LINES) == sorted(COMMANDS)


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_command_example_exits_0(tmp_path, monkeypatch, line):
    monkeypatch.chdir(tmp_path)  # the examples write their --out files here
    assert main(shlex.split(line)[1:]) == 0
