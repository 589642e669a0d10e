"""README examples: the library quickstart and every command-line example run, and the
macroscopic-limit table reads what the package computes."""

import dataclasses
import math
import re
import shlex
import types
from pathlib import Path

import pytest
from scipy.special import erfinv

import fuzzycorr
from fuzzycorr import NoViolationAtLo, V_c, bell_spec, macroscopic_limit
from fuzzycorr import correlation, transition, witness
from fuzzycorr.cli import COMMANDS, ExperimentConfig, build_parser, main

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


def test_config_keys_are_the_fields_in_order():
    keys = README.split("with the keys ", 1)[1].split(";", 1)[0]
    assert re.findall(r"`(\w+)`", keys) == [f.name for f in dataclasses.fields(ExperimentConfig)]


def test_flags_are_the_parser_options_in_order():
    flags = README.split("Flags:", 1)[1].split(". ", 1)[0]
    options = [option for action in build_parser()._actions if action.dest != "help"
               for option in action.option_strings]
    assert re.findall(r"`(--[\w-]+)", flags) == options


def _printed(value, cell):
    """value at the precision of the README cell, with the README's minus sign."""
    decimals = len(cell.split(".")[1])
    return f"{value:.{decimals}f}".replace("-", "\N{MINUS SIGN}")


def test_macroscopic_limit_table():
    # rows m = 2..11 and m = inf; columns p_c(m) = V_c(m), then (x*^2, kappa) at
    # s = 1, 0.85 and 0.75, a dash where macroscopic_limit raises NoViolationAtLo
    lines = README.split("\n| m | p_c(m) |", 1)[1].splitlines()[2:]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in lines[:lines.index("")]]
    assert [row[0] for row in rows] == [*map(str, range(2, 12)), "\N{INFINITY}"]
    for m, *cells in rows:
        if m == "\N{INFINITY}":  # V_c -> pi/4, kappa -> -1/6 as rho = sin(pi/2m)/s -> 0
            expected = [math.pi / 4]
            for s in (1.0, 0.85, 0.75):
                y = math.sqrt(math.pi / (4.0 * s))
                expected += [1.0 / (2.0 * erfinv(y) ** 2), -1.0 / 6.0] if y < 1 else [None, None]
        else:
            expected = [V_c(bell_spec(int(m)), 0.0)]
            for s in (1.0, 0.85, 0.75):
                try:
                    expected += macroscopic_limit(bell_spec(int(m)), s)
                except NoViolationAtLo:
                    expected += [None, None]
        assert cells == ["\N{EM DASH}" if value is None else _printed(value, cell)
                         for value, cell in zip(expected, cells)], m


# What ``import fuzzycorr`` exports besides its submodules: the names of the three modules'
# __all__, which __init__ re-exports and does not list again.
PUBLIC_NAMES = [
    "AngleAssignment", "CoarseningParams", "Correlator", "NoTransitionAtHi", "NoViolationAtLo",
    "NoViolationAtPureState", "StateSpec", "TransitionError", "TransitionPoint", "V_c",
    "WitnessSpec", "bell_spec", "evaluate", "find_critical_Delta", "find_critical_delta",
    "find_critical_visibility", "macroscopic_limit", "optimal_angles", "optimum",
    "steering_spec", "trace_boundary",
]


def test_public_names_are_pinned():
    # the submodules are left out: which of them are attributes depends on what was imported
    names = sorted(name for name, value in vars(fuzzycorr).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
    assert sorted(correlation.__all__ + transition.__all__ + witness.__all__) == PUBLIC_NAMES
    assert transition.check_tol is correlation.check_tol


def test_public_api_list_names_every_export():
    # the bullet list under "## Public API", not the prose after it
    exports = README.split("\n## Public API\n", 1)[1].split(" exports:\n\n", 1)[1]
    named = set(re.findall(r"`(\w+)", exports.split("\n\n", 1)[0]))
    assert [name for name in PUBLIC_NAMES if name not in named] == []
