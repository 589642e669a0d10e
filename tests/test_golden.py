"""Output equivalence with recorded CLI runs.

``tests/golden/`` holds the stdout of the CLI runs in ``CASES``, recorded
before the kernel and witness reductions.  A rerun must print the same
``table1`` text byte for byte; in the CSV runs the config header, the
column header and every non-numeric cell must be identical, each
transition root within the run's ``transition_tol``, and every other
number (witness and correlator values, angles, bounds) within 1e-12.

Regenerate the fixtures with ``PYTHONPATH=src python tests/test_golden.py``,
or only some of them by name: ``... tests/test_golden.py table1.txt``.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

import table1_oracle
from fuzzycorr.cli import main
from fuzzycorr.transition import DEFAULT_TOL

GOLDEN = Path(__file__).parent / "golden"
VALUE_ATOL = 1e-12

_PROFILE = {"delta_sq": "--delta-sq-grid=0:20:2", "Delta_sq": "--Delta-sq-grid=0:0.5:0.05"}
_CORRELATE = {
    "n": 5,
    "p": 0.9,
    "delta_sq": 1.0,
    "angle_pairs": [[0.0, 0.0], [0.3, -0.7], [1.1, 2.5]],
}

# fixture name -> (argv, config file contents or None)
CASES = {"table1.txt": (["table1"], None)}
for _kind, _m in (("bell", 2), ("bell", 3), ("steering", 2), ("steering", 5)):
    for _axis, _grid in _PROFILE.items():
        CASES[f"profile_{_kind}{_m}_{_axis}.csv"] = (
            ["profile", "--witness", _kind, "--m", str(_m), "--p", "0.93", _grid], None)
for _kind, _m in (("bell", 2), ("steering", 3)):
    CASES[f"boundary_{_kind}{_m}.csv"] = (
        ["boundary", "--witness", _kind, "--m", str(_m), "--p", "0.95",
         "--Delta-sq-grid=0:0.2:0.02"], None)
for _Delta_sq in (0.3, 16.0):
    CASES[f"correlate_Delta_sq_{_Delta_sq:g}.csv"] = (
        ["correlate"], {**_CORRELATE, "Delta_sq": _Delta_sq})


def run_case(name, tmp_dir):
    """Stdout of the CLI run ``name``; its config file, if any, goes in ``tmp_dir``."""
    argv, config = CASES[name]
    if config is not None:
        path = Path(tmp_dir) / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    return stdout.getvalue()


def regenerate(names, golden=GOLDEN):
    """Rewrite the fixtures ``names`` under ``golden``; raise KeyError for an unknown name."""
    for name in names:
        if name not in CASES:
            raise KeyError(f"no golden case {name!r}; the cases are {', '.join(sorted(CASES))}")
    golden.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            (golden / name).write_text(run_case(name, tmp))


def _numbers(cell):
    return [float(x) for x in cell.split(";")]


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    expected = (GOLDEN / name).read_text()
    actual = run_case(name, tmp_path)
    if not name.endswith(".csv"):
        assert actual == expected
        return
    # boundary rows hold a search root, delta_c^2 at fixed Delta^2
    roots = {"delta_sq"} if CASES[name][0][0] == "boundary" else set()
    exp_lines, act_lines = expected.splitlines(), actual.splitlines()
    assert act_lines[:2] == exp_lines[:2]  # config header and column names
    assert len(act_lines) == len(exp_lines)
    tol = json.loads(exp_lines[0][len("# config "):])["transition_tol"]
    columns = exp_lines[1].split(",")
    for exp_row, act_row in zip(exp_lines[2:], act_lines[2:]):
        for column, exp, act in zip(columns, exp_row.split(","), act_row.split(",")):
            if column in ("witness_kind", "violated"):
                assert act == exp, (column, exp_row)
                continue
            atol = tol if column in roots else VALUE_ATOL
            for e, a in zip(_numbers(exp), _numbers(act), strict=True):
                assert math.isclose(a, e, rel_tol=0, abs_tol=atol) or (
                    math.isnan(a) and math.isnan(e)
                ), (column, exp, act, exp_row)


def test_table1_Delta_sq_cells_are_the_closed_form(tmp_path):
    # at delta = 0, c0 = 0 and a_n = 1, so V_c = 1/sqrt(2) for both m = 2
    # witnesses and Delta_c^2 = ln(sqrt(2) p) / 4 exactly, whatever the tol
    for text in (run_case("table1.txt", tmp_path), (GOLDEN / "table1.txt").read_text()):
        rows = [line.split() for line in text.splitlines()[1:]]
        assert len(rows) == 6
        for row in rows:
            assert row[5] == f"{0.25 * math.log(math.sqrt(2) * float(row[0])):.5f}", row


def test_table1_delta_sq_cells_are_the_oracle_root(tmp_path):
    # the root is the midpoint of a final bracket no wider than the tol, so
    # it lies within tol/2 of the model's root; the cell rounds it to 4 places
    for text in (run_case("table1.txt", tmp_path), (GOLDEN / "table1.txt").read_text()):
        rows = [line.split() for line in text.splitlines()[1:]]
        assert len(rows) == 6
        for row in rows:
            root = table1_oracle.critical_delta_sq(row[1], 5, float(row[0]))
            assert abs(float(row[2]) - root) <= DEFAULT_TOL / 2 + 5e-5, (row, root)


def test_regenerate_rewrites_only_the_named_fixtures(tmp_path):
    regenerate(["table1.txt"], tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["table1.txt"]
    assert (tmp_path / "table1.txt").read_text() == (GOLDEN / "table1.txt").read_text()
    with pytest.raises(KeyError, match="no golden case 'table2.txt'"):
        regenerate(["table1.txt", "table2.txt"], tmp_path)


if __name__ == "__main__":
    try:
        regenerate(sys.argv[1:] or list(CASES))
    except KeyError as exc:
        sys.exit(f"error: {exc.args[0]}")
