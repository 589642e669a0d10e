"""CLI tests: config handling, output formats, exit statuses, subcommands."""

import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzycorr
from fuzzycorr import (
    AngleAssignment,
    CoarseningParams,
    Correlator,
    StateSpec,
    WitnessSpec,
    bell_spec,
    evaluate,
    find_critical_delta,
    optimal_angles,
    steering_spec,
)
from fuzzycorr import cli
from fuzzycorr.cli import (
    COMMANDS,
    RESULT_FIELDS,
    ConfigError,
    ExperimentConfig,
    build_parser,
    format_number,
    main,
    parse_grid,
)
from kernel_oracle import correlator_constants


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config ")
    config = json.loads(lines[0][len("# config "):])
    header = lines[1].split(",")
    assert header == RESULT_FIELDS
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return config, rows


# ------------------------------------------------------------- parse_grid

def test_parse_grid_range():
    assert parse_grid("0:1:0.5") == [0.0, 0.5, 1.0]
    assert parse_grid("0:0:1") == [0.0]


def test_parse_grid_list():
    assert parse_grid("0,0.25,2") == [0.0, 0.25, 2.0]


def test_parse_grid_bad_step():
    with pytest.raises(ConfigError):
        parse_grid("0:1:-0.5")


@pytest.mark.parametrize("text", ["16:0:2", "1:0:0.5"])
def test_descending_range_grid_exits_2(capsys, text):
    # a range that ends below its start is refused, as a descending list is
    assert main(["profile", "--delta-sq-grid", text]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid:") and err.count("\n") == 1, err


def test_parse_grid_bad_shape():
    with pytest.raises(ConfigError):
        parse_grid("0:1")


@pytest.mark.parametrize("text", ["0,x", "0:1:nan", "0:inf:1", "1e999"])
def test_parse_grid_rejects_non_numbers(text):
    with pytest.raises(ConfigError, match="not a finite number"):
        parse_grid(text)


# -------------------------------------------------------------- correlate

def test_correlate_sharp_value(tmp_path):
    out = tmp_path / "rows.csv"
    code = main(["correlate", "--n", "5", "--out", str(out)])
    assert code == 0
    config, rows = read_csv(out)
    assert config["n"] == 5
    resolution = [r for r in rows if r["witness_kind"] == "corr_resolution"]
    assert float(resolution[0]["witness_value"]) == pytest.approx(-1.0)


def test_correlate_reference_closed_form(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"Delta_sq": 0.25, "angle_pairs": [[0.3, -0.3]]}))
    out = tmp_path / "rows.csv"
    assert main(["correlate", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    reference = [r for r in rows if r["witness_kind"] == "corr_reference"]
    assert float(reference[0]["witness_value"]) == pytest.approx(
        -math.exp(-1.0), abs=1e-6
    )


def test_correlate_large_Delta_rows_equal_c0(tmp_path):
    # Delta = 4 attenuates V by exp(-64): the correlator is c0 at every angle
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"delta_sq": 1, "Delta_sq": 16}))
    out = tmp_path / "rows.csv"
    assert main(["correlate", "--n", "5", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    c0 = Correlator(StateSpec(5), CoarseningParams(1.0, 4.0)).c0
    assert 2e-12 < c0 < 2.5e-12
    for kind in ("corr_full", "corr_werner_full"):
        (row,) = [r for r in rows if r["witness_kind"] == kind]
        assert float(row["witness_value"]) == pytest.approx(c0, abs=1e-15)


def test_descending_grid_exits_2(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"delta_sq_grid": [2.0, 1.0]}))
    assert main(["profile", "--config", str(cfg)]) == 2
    assert "delta_sq_grid" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"no_such_key": 1}))
    assert main(["correlate", "--config", str(cfg)]) == 2
    assert "no_such_key" in capsys.readouterr().err


def test_profile_without_grid_exits_2(capsys):
    assert main(["profile"]) == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("argv,field", [
    (["profile", "--delta-sq-grid", "0", "--Delta-sq-grid", "0"], "delta_sq_grid/Delta_sq_grid"),
    (["boundary"], "Delta_sq_grid"),
])
def test_missing_or_doubled_grid_exits_2(capsys, argv, field):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}:") and err.count("\n") == 1, err


@pytest.mark.parametrize("content,field", [
    (b"3", "config"),
    (b"null", "config"),
    (b'"x"', "config"),
    (b"[]", "config"),
    (b"\xff\xfe{", "config"),  # not UTF-8
    # integers past float range in a real field
    (b'{"delta_sq": 1' + b"0" * 400 + b"}", "delta_sq"),
    (b'{"transition_tol": 1' + b"0" * 400 + b"}", "transition_tol"),
    # finite angles whose 2(theta_i + theta_j) is not
    (b'{"angle_pairs": [[1e308, 1e308]]}', "angle_pairs"),
], ids=["int", "null", "string", "list", "not-utf8", "delta_sq-1e400", "tol-1e400", "angles"])
def test_unusable_config_file_exits_2(tmp_path, capsys, content, field):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(content)
    assert main(["correlate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}:") and err.count("\n") == 1, err


@pytest.mark.parametrize("target", ["missing/x.csv", "."])
def test_unwritable_out_exits_2(tmp_path, capsys, target):
    # a missing directory or a path that is a directory: one line, no traceback
    out = tmp_path / target
    assert main(["profile", "--delta-sq-grid", "0,1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: out: cannot write {out}") and err.count("\n") == 1, err


@pytest.mark.parametrize("brk", ["\n", "\r"], ids=["LF", "CR"])
@pytest.mark.parametrize("flag,path,prefix", [
    ("--out", "no{}such/x.csv", "error: out: "),
    ("--config", "no{}such.json", "error: config: "),
], ids=["out", "config"])
def test_path_with_a_line_break_gives_one_error_line(tmp_path, capsys, brk, flag, path, prefix):
    assert main(["correlate", flag, str(tmp_path / path.format(brk))]) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and len(err.splitlines()) == 1 and err.endswith("\n"), err


def test_closed_stdout_exits_2():
    # a reader that stops early, as `| head -c 100` does: one error line, and no
    # "Exception ignored" line when the interpreter flushes stdout at exit
    src = str(Path(fuzzycorr.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "fuzzycorr.cli", "profile", "--delta-sq-grid", "0:2000:0.1"]
    with subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    assert err.startswith("error: out: cannot write ") and err.count("\n") == 1, err


class _FullFile(io.StringIO):
    """A file on a full disk: every write fails with ENOSPC and no filename."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("suffix", ["", ".plot.csv"])
def test_failed_write_names_its_file(tmp_path, capsys, monkeypatch, suffix):
    # a write error carries no filename, so the message names the file being written
    out = tmp_path / "rows.csv"
    full = str(out) + suffix
    monkeypatch.setattr(cli, "open", lambda path, *args: _FullFile() if path == full
                        else open(path, *args), raising=False)
    assert main(["profile", "--delta-sq-grid", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: out: cannot write {full}: {os.strerror(errno.ENOSPC)}\n", err


_COMMANDS = [
    ["correlate"],
    ["profile", "--delta-sq-grid", "0,2"],
    ["boundary", "--Delta-sq-grid", "0"],
    ["table1"],
]


@pytest.mark.parametrize("argv", _COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("stdout,reason", [
    (None, os.strerror(errno.EBADF)),  # the descriptor was closed before the run began
    (_FullFile(), os.strerror(errno.ENOSPC)),  # a stream with no fileno()
], ids=["closed", "full"])
def test_broken_stdout_exits_2(capsys, monkeypatch, argv, stdout, reason):
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: out: cannot write <stdout>: {reason}\n", err


def test_closed_stdout_descriptor_exits_2():
    # `fuzzycorr table1 >&-`: print dropped the table and the run exited 0
    src = str(Path(fuzzycorr.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-m", "fuzzycorr.cli", "table1"],
                         env=dict(os.environ, PYTHONPATH=src), stderr=subprocess.PIPE,
                         text=True, timeout=60, preexec_fn=lambda: os.close(1))
    assert run.returncode == 2, run.stderr
    assert run.stderr == f"error: out: cannot write <stdout>: {os.strerror(errno.EBADF)}\n"


@pytest.mark.parametrize("values", [
    {"p_list": {"k": [0.5] * 200_000}},  # the list kind quotes the whole value
    {"m": [2] * 100_000},  # so does WitnessSpec's m rule
], ids=["p_list", "m"])
def test_error_line_is_bounded(tmp_path, capsys, values):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(values))
    assert main(["table1", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {next(iter(values))}: ") and err.count("\n") == 1
    assert len(err) <= 400, len(err)


@pytest.mark.parametrize("command,values,field", [
    ("correlate", {"m": "2"}, "m"),
    ("correlate", {"m": True}, "m"),
    ("correlate", {"m": 1}, "m"),
    ("correlate", {"n": 2.5}, "n"),
    ("correlate", {"n": 0}, "n"),
    ("correlate", {"p": "0.9"}, "p"),
    ("correlate", {"p": 1.5}, "p"),
    ("correlate", {"delta_sq": -1}, "delta_sq"),
    ("correlate", {"Delta_sq": float("nan")}, "Delta_sq"),
    ("correlate", {"angle_pairs": [[0.1]]}, "angle_pairs"),
    ("correlate", {"angle_pairs": [[0.1, "x"]]}, "angle_pairs"),
    ("correlate", {"witness": "chsh"}, "witness"),
    ("correlate", {"format": "xml"}, "format"),
    ("correlate", {"out": 3}, "out"),
    ("profile", {"delta_sq_grid": "0:1:0.5"}, "delta_sq_grid"),
    ("profile", {"Delta_sq_grid": [0.1, float("inf")]}, "Delta_sq_grid"),
    ("boundary", {"Delta_sq_grid": [0.0], "transition_tol": 0}, "transition_tol"),
    ("boundary", {"Delta_sq_grid": [0.0], "transition_tol": float("nan")}, "transition_tol"),
    ("table1", {"p_list": [1.5]}, "p_list"),
    ("table1", {"p_list": 0.85}, "p_list"),
    # a grid list has the point limit of the a:b:step form
    ("profile", {"delta_sq_grid": [0.0] * (10**6 + 1)}, "delta_sq_grid"),
    ("boundary", {"Delta_sq_grid": [0.0] * (10**6 + 1)}, "Delta_sq_grid"),
])
def test_bad_config_value_exits_2(tmp_path, capsys, command, values, field):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(values))
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}:"), err


@pytest.mark.parametrize("flag,value", [("--witness", "chsh"), ("--format", "xml")])
def test_bad_flag_value_exits_2(capsys, flag, value):
    # the config check, not the argument parser, names the allowed values
    assert main(["correlate", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag[2:]}:"), err


@pytest.mark.parametrize("flag,value,values", [
    ("--m", "1", {"m": 1}),
    ("--n", "0", {"n": 0}),
    ("--p", "1.5", {"p": 1.5}),
    ("--witness", "chsh", {"witness": "chsh"}),
    ("--delta-sq-grid", "2,1", {"delta_sq_grid": [2, 1]}),
    ("--Delta-sq-grid", "-0.5", {"Delta_sq_grid": [-0.5]}),
    ("--transition-tol", "0", {"transition_tol": 0}),
    ("--format", "xml", {"format": "xml"}),
    ("--delta-sq-grid", "-1,0", {"delta_sq_grid": [-1, 0]}),  # argparse took -1,0 for a flag
    # so it did after an abbreviated flag, and took -inf, -nan and -1e-3 for flags after any
    ("--delta", "-1,0", {"delta_sq_grid": [-1, 0]}),
    ("--Delta", "-0.5", {"Delta_sq_grid": [-0.5]}),
    ("--p", "-inf", {"p": -math.inf}),
    ("--p", "-nan", {"p": math.nan}),
    ("--p", "-1e-3", {"p": -1e-3}),
    ("--transition-tol", "-1e-3", {"transition_tol": -1e-3}),
    ("--trans", "-inf", {"transition_tol": -math.inf}),
])
def test_flag_and_config_key_run_the_same_check(tmp_path, capsys, flag, value, values):
    # a value the argument parser accepts reaches the field's one check either way
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(values))
    errs = []
    for argv in ([flag, value], ["--config", str(cfg)]):
        assert main(["correlate", *argv]) == 2
        errs.append(capsys.readouterr().err)
    [key] = values
    assert errs[0] == errs[1], errs
    assert errs[0].startswith(f"error: {key}:") and errs[0].count("\n") == 1, errs


def test_each_flag_spelling_main_joins_is_read_as_its_flag():
    # main joins "<spelling> -x" into "<spelling>=-x": argparse must read each spelling as the one
    # field flag it abbreviates, which takes a value
    flags = {"--" + f.name.replace("_", "-"): f.name for f in dataclasses.fields(ExperimentConfig)
             if f.metadata["flag"] is not None}
    for spelling in cli._FLAG_SPELLINGS:
        [name] = [name for flag, name in flags.items() if flag.startswith(spelling)]
        args = vars(build_parser().parse_args(["correlate", spelling + "=7"]))
        assert str(args.pop(name)).startswith("7"), spelling
        assert args.pop("command") == "correlate" and set(args.values()) == {None}, spelling


def test_zero_transition_tol_flag_exits_2(capsys):
    assert main(["boundary", "--Delta-sq-grid", "0", "--transition-tol", "0"]) == 2
    assert "transition_tol" in capsys.readouterr().err


def test_help_lists_every_command(tmp_path, capsys, monkeypatch):
    # runs before --help use the same cached parser; the width is read when --help runs
    assert main(["profile", "--delta-sq-grid", "0", "--out", str(tmp_path / "rows.csv")]) == 0
    assert main(["profile", "--witness", "chsh", "--delta-sq-grid", "0"]) == 2
    capsys.readouterr()
    helps = []
    for columns in ("200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    for name, func in COMMANDS.items():
        assert f"{name:<10} {func.__doc__.splitlines()[0]}" in helps[0]
    assert list(COMMANDS) == ["correlate", "profile", "boundary", "table1"]
    assert len(helps[1].splitlines()) > len(helps[0].splitlines())  # the usage line wraps


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_back_to_back_runs_share_no_state(tmp_path):
    # the second run sets neither --m nor --witness: it gets the defaults
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(["profile", "--m", "3", "--witness", "steering", "--delta-sq-grid", "0",
                 "--out", str(first)]) == 0
    assert main(["profile", "--delta-sq-grid", "0", "--out", str(second)]) == 0
    config, rows = read_csv(second)
    assert (config["m"], config["witness"]) == (2, "bell")
    assert [(row["m"], row["witness_kind"]) for row in rows] == [("2", "bell")]


@pytest.mark.parametrize("bad", [["no_such_command"], ["profile", "--m", "abc"]])
def test_parse_error_leaves_the_next_run_intact(tmp_path, capsys, bad):
    out, runs = tmp_path / "rows.csv", []
    for argv in ([], bad, []):
        if argv:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err.startswith("usage:")
            continue
        assert main(["profile", "--delta-sq-grid", "0:4:2", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]


@pytest.mark.parametrize("argv", [["no_such_command"], []])
def test_unknown_or_missing_command_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "command" in capsys.readouterr().err


@pytest.mark.parametrize("argv,key", [
    (["profile", "--m", str(10**24), "--delta-sq-grid", "0"], "m"),
    (["boundary", "--m", str(10**24), "--Delta-sq-grid", "0"], "m"),
    (["profile", "--m", str(10**6 + 1), "--delta-sq-grid", "0"], "m"),
    (["profile", "--delta-sq-grid", "0:1e300:1e-300"], "grid"),
    (["profile", "--delta-sq-grid", "0:1e8:1"], "grid"),
])
def test_oversized_input_exits_2(capsys, argv, key):
    # each is refused before anything is allocated: no traceback, no MemoryError
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}:") and err.count("\n") == 1, err


@pytest.mark.parametrize("key, value, message", [
    ("p", 10**5000, "must be a finite number, got an integer of 16610 bits"),
    ("transition_tol", -10**5000, "must be a finite number, got a negative integer of 16610 bits"),
    ("m", -10**5000, "m must be an integer >= 2, got a negative integer of 16610 bits"),
    ("p_list", 10**5000, "must be a list of numbers, got an integer of 16610 bits"),
    ("out", 10**5000, "must be a path, got an integer of 16610 bits"),
    ("witness", 10**5000, "unknown witness kind: an integer of 16610 bits"),
    ("format", 10**5000, "unknown format an integer of 16610 bits"),
], ids=["p", "transition_tol", "m", "p_list", "out", "witness", "format"])
def test_a_huge_int_config_value_is_quoted_by_its_size(key, value, message):
    # JSON and the flags cannot carry an int past the 4300-digit limit; a config built in
    # Python can, and its repr raised the interpreter's limit error in place of the field's
    with pytest.raises(ConfigError) as raised:
        ExperimentConfig(**{key: value}).validate()
    assert str(raised.value) == f"{key}: {message}"


def test_grid_at_the_point_limit():
    assert len(parse_grid("0:999999:1")) == 10**6
    with pytest.raises(ConfigError, match="more than 1000000 points"):
        parse_grid("0:1000000:1")


@pytest.mark.parametrize("package", ["numpy", "scipy"])
def test_cli_import_loads_no(package):
    src = str(Path(fuzzycorr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, fuzzycorr.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------- profile

def test_a_second_profile_run_builds_no_spec_or_correlator(tmp_path, monkeypatch):
    # the shared witness specs serve every check and row; each row reads (c0, V) directly
    built = []
    for cls, method in ((WitnessSpec, "__post_init__"), (CoarseningParams, "__init__"),
                        (Correlator, "__init__")):
        def counting(self, *args, real=getattr(cls, method), **kwargs):
            built.append(type(self).__name__)
            return real(self, *args, **kwargs)
        monkeypatch.setattr(cls, method, counting)
    argv = ["profile", "--witness", "steering", "--m", "3", "--delta-sq-grid", "0,2,8",
            "--out", str(tmp_path / "rows.csv")]
    assert main(argv) == 0
    built.clear()
    assert main(argv) == 0
    assert built == []


def test_profile_formats_its_angles_once_per_file(tmp_path, monkeypatch):
    # every row holds the one angles list; the CSV file formats it once, the plot file never
    lists, real = [], cli.format_number

    def counting(value):
        if isinstance(value, list):
            lists.append(value)
        return real(value)

    monkeypatch.setattr(cli, "format_number", counting)
    out = tmp_path / "rows.csv"
    assert main(["profile", "--m", "3", "--delta-sq-grid", "0:8:2", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 5 and len({row["angles"] for row in rows}) == 1
    assert len(lists) == 1


@pytest.mark.parametrize("argv, specs", [
    (["boundary", "--p", "0.95", "--Delta-sq-grid", "0:0.04:0.02"], [bell_spec(2)]),
    (["table1"], [bell_spec(2), steering_spec(2)]),
], ids=["boundary", "table1"])
def test_optimal_angles_once_per_spec(tmp_path, monkeypatch, capsys, argv, specs):
    calls, real = [], cli.optimal_angles
    monkeypatch.setattr(cli, "optimal_angles", lambda spec: calls.append(spec) or real(spec))
    out = tmp_path / "rows.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert len(read_csv(out)[1]) > len(specs)
    assert calls == specs


def test_profile_sharp_optima(tmp_path):
    out = tmp_path / "bell.csv"
    code = main([
        "profile", "--witness", "bell", "--m", "2", "--n", "5",
        "--delta-sq-grid", "0", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out)
    assert float(rows[0]["witness_value"]) == pytest.approx(2 * math.sqrt(2), abs=1e-6)
    assert rows[0]["violated"] == "true"

    out = tmp_path / "steer.csv"
    code = main([
        "profile", "--witness", "steering", "--m", "3", "--n", "5",
        "--delta-sq-grid", "0", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out)
    assert float(rows[0]["witness_value"]) == pytest.approx(math.sqrt(3), abs=1e-6)


@pytest.mark.parametrize("witness", ["bell", "steering"])
def test_profile_large_m(witness, tmp_path, capsys):
    # m = 10^5 settings: the optimum comes from (c0, V), with no m x m array
    m, out = 100_000, tmp_path / "large.csv"
    code = main(["profile", "--witness", witness, "--m", str(m), "--n", "5",
                 "--delta-sq-grid", "0,1", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(out)
    for row, delta_sq in zip(rows, (0.0, 1.0), strict=True):
        c0, V = correlator_constants(5, 1.0, math.sqrt(delta_sq), 0.0)
        if witness == "bell":
            expected = m * c0 + V * m / math.sin(math.pi / (2 * m))
        else:
            expected = math.sqrt(m) * (c0 + V)
        assert float(row["witness_value"]) == pytest.approx(expected, rel=1e-12, abs=0)


def test_profile_kernel_wider_than_memory(tmp_path, capsys):
    # delta = 1e150 labels: the kernel masses come from its central terms and
    # the Poisson-summed norm, w_n = u and a_n = 10 u with u = 1/(sqrt(2 pi) delta)
    out = tmp_path / "wide.csv"
    assert main(["profile", "--delta-sq-grid", "1e300,1e301", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(out)
    for row, delta_sq in zip(rows, (1e300, 1e301), strict=True):
        u = 1.0 / (math.sqrt(2.0 * math.pi * delta_sq))
        expected = 2.0 * u**2 + 2.0 * math.sqrt(2.0) * (10.0 * u) ** 2
        assert float(row["witness_value"]) == pytest.approx(expected, rel=1e-12, abs=0)


def test_profile_of_a_wide_kernel_at_large_n(tmp_path, capsys):
    # n = delta = 10^9: the masses take O(1) memory; c0 ~ 1e-20 and
    # a_n = erf(1 / sqrt 2) to O(1 / delta^2)
    out = tmp_path / "macro.csv"
    assert main(["profile", "--n", "1000000000", "--delta-sq-grid", "1e18", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(out)
    expected = 2.0 * math.sqrt(2.0) * math.erf(math.sqrt(0.5)) ** 2
    assert float(rows[0]["witness_value"]) == pytest.approx(expected, rel=1e-12, abs=0)


def test_profile_at_an_n_beyond_float_range(tmp_path, capsys):
    # every kernel is narrower than n = 10^400: w_n = 0 and a_n = 1, the sharp value
    out = tmp_path / "huge.csv"
    assert main(["profile", "--n", str(10**400), "--delta-sq-grid", "0,1,400,1e300",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(out)
    values = [float(row["witness_value"]) for row in rows]
    assert values == pytest.approx([2.0 * math.sqrt(2.0)] * 4, rel=1e-13)


def test_profile_curve_crosses_bound(tmp_path):
    out = tmp_path / "curve.csv"
    code = main([
        "profile", "--witness", "bell", "--m", "2", "--n", "5",
        "--delta-sq-grid", "0:16:4", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out)
    values = [float(r["witness_value"]) for r in rows]
    assert values[0] > 2.0 and values[-1] < 2.0
    # plot companion: variance, value and constant bound
    plot = (tmp_path / "curve.csv.plot.csv").read_text().splitlines()
    assert plot[0] == "variance,witness_value,bound"
    assert len(plot) == len(rows) + 1
    assert all(line.endswith(",2") for line in plot[1:])


def test_profile_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "rerun.csv"
    args = [
        "profile", "--witness", "steering", "--m", "2", "--n", "5",
        "--delta-sq-grid", "0:6:2", "--out", str(out),
    ]
    runs = []
    for _ in range(2):
        assert main(args) == 0
        runs.append((out.read_bytes(), (tmp_path / "rerun.csv.plot.csv").read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("args", [
    ["profile", "--witness", "bell", "--m", "5", "--p", "0.9", "--delta-sq-grid", "0:40:8"],
    ["boundary", "--witness", "bell", "--m", "2", "--Delta-sq-grid", "0,0.01,0.03"],
    ["profile", "--witness", "steering", "--m", "1000", "--p", "0.9", "--delta-sq-grid", "0,4,8"],
])
def test_csv_rows_reproduce_their_witness_value(tmp_path, args):
    # every row carries the optimal angles, each float written in full,
    # so each row's angles give its value back
    out = tmp_path / "rows.csv"
    assert main(args + ["--n", "5", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) >= 3
    for row in rows:
        m = int(row["m"])
        spec = bell_spec(m) if row["witness_kind"] == "bell" else steering_spec(m)
        corr = Correlator(
            StateSpec(int(row["n"]), float(row["p"])),
            CoarseningParams(math.sqrt(float(row["delta_sq"])),
                             math.sqrt(float(row["Delta_sq"]))),
        )
        optimal = optimal_angles(spec)
        assert row["angles"] == format_number(list(optimal.alice) + list(optimal.bob))
        angles = [float(a) for a in row["angles"].split(";")]
        value = evaluate(spec, AngleAssignment(angles[:m], angles[m:]), corr)
        assert value == pytest.approx(float(row["witness_value"]), abs=1e-12)


def test_profile_json_format(tmp_path):
    out = tmp_path / "rows.json"
    code = main([
        "profile", "--witness", "bell", "--m", "2", "--n", "5",
        "--delta-sq-grid", "0",
        "--format", "json", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"config", "rows"}
    assert payload["config"]["witness"] == "bell"
    assert set(payload["rows"][0]) == set(RESULT_FIELDS)


def test_correlate_json_is_valid_json(tmp_path):
    # correlator rows have no bound: JSON writes null where the CSV writes nan
    def no_constants(name):
        raise ValueError(f"{name} is not JSON")

    out = tmp_path / "rows.json"
    assert main(["correlate", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(), parse_constant=no_constants)
    assert payload["rows"] and all(row["bound"] is None for row in payload["rows"])


@pytest.mark.parametrize("argv", [
    ["correlate"],
    ["profile", "--delta-sq-grid", "0,2"],
    ["boundary", "--Delta-sq-grid", "0:0.04:0.02"],
    ["table1"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_every_row_has_the_result_fields_in_order(tmp_path, monkeypatch, capsys, argv, fmt):
    # a row is a dict, which nothing stops from dropping or adding a column
    written, real_emit = [], cli.emit

    def emit(config, rows, plot=()):
        written.append(rows)
        real_emit(config, rows, plot)

    monkeypatch.setattr(cli, "emit", emit)
    out = tmp_path / "rows.out"
    assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
    [rows] = written  # the rows as built, each with every column and no other
    assert rows and all(sorted(row) == sorted(RESULT_FIELDS) for row in rows)
    if fmt == "json":  # the rows as written, in column order
        written_rows = json.loads(out.read_text())["rows"]
        assert [list(row) for row in written_rows] == [RESULT_FIELDS] * len(rows)
    else:
        read_csv(out)  # checks the header line against RESULT_FIELDS
        cells = [len(line.split(",")) for line in out.read_text().splitlines()[2:]]
        assert cells == [len(RESULT_FIELDS)] * len(rows)


def _asdict_output(config, rows):
    """The bytes of ``rows`` with the config written through the deep-copying ``asdict``."""
    resolved = dataclasses.asdict(config)
    if config.format == "json":
        return json.dumps({"config": resolved, "rows": [
            {name: None if isinstance(row[name], float) and not math.isfinite(row[name])
             else row[name] for name in RESULT_FIELDS} for row in rows]},
            indent=2, allow_nan=False) + "\n"
    lines = ["# config " + json.dumps(resolved, sort_keys=True), ",".join(RESULT_FIELDS)]
    lines += [",".join(format_number(row[name]) for name in RESULT_FIELDS) for row in rows]
    return "\n".join(lines) + "\n"


_PAIRS = [[0.0, 0.0], [0.3, -0.7], [1.1, 2.5]]


@pytest.mark.parametrize("command, values", [
    ("correlate", {"angle_pairs": _PAIRS, "delta_sq_grid": [0.0, 2.0],
                   "Delta_sq_grid": [0.0, 0.1], "p_list": [0.9, 0.8], "delta_sq": 1.0}),
    ("profile", {"angle_pairs": _PAIRS, "delta_sq_grid": [0.0, 2.0, 4.0], "p_list": [0.9]}),
    ("boundary", {"angle_pairs": _PAIRS, "delta_sq_grid": [0.0, 2.0],
                  "Delta_sq_grid": [0.0, 0.02], "p_list": [0.9], "p": 0.95}),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rows_are_written_as_asdict_wrote_them(tmp_path, monkeypatch, command, values, fmt):
    # the writer reads fields shallowly; the bytes stay those of the deep copy
    written, real_emit = [], cli.emit

    def emit(config, rows, plot=()):
        written.append(rows)
        real_emit(config, rows, plot)

    monkeypatch.setattr(cli, "emit", emit)
    cfg, out = tmp_path / "config.json", tmp_path / "rows.out"
    cfg.write_text(json.dumps(values))
    assert main([command, "--config", str(cfg), "--format", fmt, "--out", str(out)]) == 0
    config = ExperimentConfig(**json.loads(cfg.read_text()), format=fmt, out=str(out)).validate()
    [rows] = written
    assert out.read_text() == _asdict_output(config, rows)
    if fmt == "csv":
        header = out.read_text().splitlines()[0]
        assert header == "# config " + json.dumps(dataclasses.asdict(config), sort_keys=True)
    if command == "correlate" and fmt == "csv":  # five regimes a pair, each with its pair
        _, rows = read_csv(out)
        assert [row["angles"] for row in rows] == [format_number(pair)
                                                   for pair in _PAIRS for _ in range(5)]


@pytest.mark.parametrize("args,header,fields", [
    (["profile", "--delta-sq-grid", "0:20:4"], "variance,witness_value,bound",
     ["delta_sq", "witness_value", "bound"]),
    (["profile", "--Delta-sq-grid", "0:0.5:0.1"], "variance,witness_value,bound",
     ["Delta_sq", "witness_value", "bound"]),
    (["boundary", "--Delta-sq-grid", "0:0.06:0.02"], "Delta_sq,delta_sq",
     ["Delta_sq", "delta_sq"]),
])
def test_plot_file_is_columns_of_the_rows(tmp_path, args, header, fields):
    out = tmp_path / "rows.csv"
    assert main(args + ["--p", "0.95", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    plot = (tmp_path / "rows.csv.plot.csv").read_text().splitlines()
    assert plot[0] == header
    assert plot[1:] == [",".join(row[name] for name in fields) for row in rows]
    assert len(rows) >= 3


def _floats(value):
    if isinstance(value, dict):
        return {key: _floats(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_floats(v) for v in value]
    return float(value) if isinstance(value, int) else value


@pytest.mark.parametrize("command, config", [
    ("correlate", {"p": 1, "delta_sq": 2, "Delta_sq": 0, "angle_pairs": [[0, 1], [1, 0]]}),
    ("profile", {"witness": "steering", "p": 1, "Delta_sq": 0, "delta_sq_grid": [0, 4, 10**16]}),
    ("profile", {"p": 1, "delta_sq": 2, "Delta_sq_grid": [0, 1]}),
    ("boundary", {"p": 1, "delta_sq": 0, "Delta_sq_grid": [0], "transition_tol": 1}),
    ("table1", {"p_list": [1]}),
], ids=["correlate", "profile-delta_sq", "profile-Delta_sq", "boundary", "table1"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_json_integers_write_the_bytes_of_floats(tmp_path, capsys, command, config, fmt):
    # m and n stay integers; every real key is stored as the float a flag gives
    cfg, out, outputs = tmp_path / "config.json", tmp_path / "rows.out", []
    for values in (config, _floats(config)):
        cfg.write_text(json.dumps(values))
        assert main([command, "--config", str(cfg), "--format", fmt, "--out", str(out)]) == 0
        plot = Path(str(out) + ".plot.csv")
        outputs.append((out.read_bytes(), plot.read_bytes() if plot.exists() else None,
                        capsys.readouterr().out))
    assert json.dumps(config) != json.dumps(_floats(config))
    assert outputs[0] == outputs[1]


# --------------------------------------------------------------- boundary

def test_boundary_single_point(tmp_path):
    out = tmp_path / "boundary.csv"
    code = main([
        "boundary", "--witness", "bell", "--m", "2", "--n", "5",
        "--Delta-sq-grid", "0",
        "--transition-tol", "0.005", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out)
    direct = find_critical_delta(bell_spec(2), StateSpec(5, 1.0), tol=5e-3)
    assert float(rows[0]["delta_sq"]) == pytest.approx(direct.delta_sq, abs=1e-2)
    plot = (tmp_path / "boundary.csv.plot.csv").read_text().splitlines()
    assert plot[0] == "Delta_sq,delta_sq"


def test_boundary_rows_carry_the_grid_values(tmp_path):
    out = tmp_path / "boundary.csv"
    text = "0:0.2:0.02"
    assert main(["boundary", "--Delta-sq-grid", text, "--out", str(out)]) == 0
    config, rows = read_csv(out)
    cells = [row["Delta_sq"] for row in rows]
    assert len(cells) >= 3
    assert cells == [format_number(v) for v in parse_grid(text)[: len(cells)]]
    assert cells == [format_number(v) for v in config["Delta_sq_grid"][: len(cells)]]


def test_boundary_no_transition_exits_3(capsys):
    # p = 0.5 is below the sharp-limit threshold 1/sqrt(2): nothing violates
    code = main([
        "boundary", "--witness", "bell", "--m", "2", "--n", "5",
        "--p", "0.5", "--Delta-sq-grid", "0",
    ])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_boundary_at_an_n_beyond_float_range_exits_3(capsys):
    # 4 n^2 overflows a float: the delta^2 search has no edge, a named failure
    code = main(["boundary", "--n", str(10**400), "--Delta-sq-grid", "0,0.1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: still violating") and err.count("\n") == 1, err


# ----------------------------------------------------------------- table1

@pytest.mark.parametrize("p, published", [(0.85, True), (0.849, False)])
def test_table1_compares_only_a_published_p(tmp_path, capsys, p, published):
    # 0.849 is not the published row 0.85: its ref and rel cells read "-"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"p_list": [p]}))
    assert main(["table1", "--config", str(cfg)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[1] for row in rows] == ["bell", "steering"]
    for row in rows:
        refs = [row[3], row[4], row[6], row[7]]
        assert (refs == ["-"] * 4) != published, row


@pytest.mark.parametrize("p, label", [(0.85, "0.85"), (0.8, "0.80"), (0.849, "0.849"),
                                      (1.0, "1.00"), (0.912345678, "0.912345678")])
def test_table1_labels_each_row_with_the_p_searched(tmp_path, capsys, p, label):
    # a p on the 2-decimal grid prints as before; any other p prints in full,
    # not rounded onto a published row
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"p_list": [p]}))
    assert main(["table1", "--config", str(cfg)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[0] for row in rows] == [label, label]


def test_table1_smoke(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"p_list": [0.85]}))
    out = tmp_path / "table.csv"
    code = main([
        "table1", "--config", str(cfg),
        "--transition-tol", "0.005", "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert any("bell" in line for line in printed)
    assert any("steering" in line for line in printed)
    _, rows = read_csv(out)
    assert len(rows) == 4  # (delta and Delta point) x (bell and steering)
    # the Delta^2 column follows the closed form ln(sqrt(2) p)/4
    expected = math.log(math.sqrt(2.0) * 0.85) / 4.0
    D2 = [float(r["Delta_sq"]) for r in rows if float(r["delta_sq"]) == 0.0]
    for value in D2:
        assert value == pytest.approx(expected, abs=5e-3)
