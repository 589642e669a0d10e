"""Command-line front end: sweeps, boundary traces and transition tables.

Commands
--------
correlate   correlator spot checks for supplied angle pairs, all regimes
profile     optimized witness value along a variance grid (plot-ready)
boundary    transition curve delta_c^2(Delta^2) for one witness/state
table1      transition variances for m = 2 at several visibilities,
            compared against the published reference values

Configuration is a JSON file of key/value pairs; command-line flags
override individual keys.  Every output file starts with the fully
resolved configuration; the same configuration reproduces the same bytes.

Exit status: 0 success, 2 configuration error or failed write (a closed or full
stdout included), 3 numeric failure (no transition inside the bracket).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import json
import math
import os
import sys

from .correlation import (FLOAT_MAX, CoarseningParams, Correlator, StateSpec, check_coarsening,
                          check_n, check_p, check_tol, invariants, quoted)
from .kernel import kernel_masses
from .transition import (DEFAULT_TOL, TransitionError, find_critical_Delta, find_critical_delta,
                         trace_boundary)
from .witness import WitnessSpec, bell_spec, optimal_angles, optimum, steering_spec

__all__ = ["ExperimentConfig", "main"]

# Published transition variances (delta^2 at Delta=0, Delta^2 at delta=0)
# for the m=2 witnesses at n=5: p -> (bell_d2, bell_D2, steering_d2, steering_D2).
TABLE1_REFERENCE = {
    0.85: (8.29, 0.046, 8.94, 0.046),
    0.80: (6.72, 0.0308, 7.615, 0.0308),
    0.75: (4.81042, 0.0147, 6.137, 0.0147),
}

# Largest settings count m and largest grid: at m = 10^6 the first profile row takes about
# 2.2 s and each later one 0.06 s, 38 MB each; a 10^5-point grid about 1.2 s (wall, 2 vCPUs).
MAX_COUNT = 10**6


class ConfigError(ValueError):
    """Invalid experiment configuration or unwritable output; maps to exit status 2."""


# A field's kind reads its JSON or flag value and runs its check on the value or on each
# item of a list; either raises ValueError, which validate prefixes with the field's name.

def _same(value, check):
    check(value)
    return value


def _real(value, check):
    # an exact comparison: it rejects nan, inf and integers past float range alike
    if type(value) is not float and (isinstance(value, bool) or not isinstance(
            value, (int, float))) or not abs(value) <= FLOAT_MAX:
        raise ValueError(f"must be a finite number, got {quoted(value)}")
    return _same(float(value), check)  # a JSON 1 writes the bytes of a flag's 1.0


def _reals(values, check):
    if not isinstance(values, list):
        raise ValueError(f"must be a list of numbers, got {quoted(values)}")
    return [_real(v, check) for v in values]


def _grid(values, check):
    grid = _reals(values, check)
    if len(grid) > MAX_COUNT or any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"must be an ascending list of at most {MAX_COUNT} points")
    return grid


def _pairs(pairs, check):
    if not isinstance(pairs, list) or any(not isinstance(p, list) or len(p) != 2 for p in pairs):
        raise ValueError("must be a list of [theta_i, theta_j] pairs")
    return [_same(_reals(pair, lambda angle: None), check) for pair in pairs]


def _spec(kind, m):
    """WitnessSpec(kind, m), shared for a known kind: a run after the first builds none."""
    known = kind in ("bell", "steering")  # WitnessSpec's own test
    return (bell_spec if kind == "bell" else steering_spec)(m) if known else WitnessSpec(kind, m)


def _settings_count(m):
    bell_spec(m)  # the m rule of both kinds
    if m > MAX_COUNT:
        raise ValueError(f"must be at most {MAX_COUNT}, got {m!r}")


_check_Delta = functools.partial(check_coarsening, 0.0)  # check_coarsening(0, Delta)


def _angle_pair(pair):
    if not math.isfinite(2.0 * sum(pair)):  # the correlator's cos 2(theta_i + theta_j)
        raise ValueError(f"2(theta_i + theta_j) overflows for {pair!r}")


def _output_format(name):
    if name not in ("csv", "json"):
        raise ValueError(f"unknown format {quoted(name)}")


def _path(out):
    if not isinstance(out, str):
        raise ValueError(f"must be a path, got {quoted(out)}")


def _field(default, kind, check, flag=None):
    """A row of the field table: the default (for a list, a function that builds it), the
    kind, the check and the argparse keywords of the flag, if the field has one."""
    metadata = {"kind": kind, "check": check, "flag": flag}
    if callable(default):
        return dataclasses.field(default_factory=default, metadata=metadata)
    return dataclasses.field(default=default, metadata=metadata)


@dataclasses.dataclass
class ExperimentConfig:
    """Resolved experiment parameters; serialized verbatim into every output."""

    witness: str = _field("bell", _same, functools.partial(_spec, m=2), {})
    m: int = _field(2, _same, _settings_count, {"type": int})
    n: int = _field(5, _same, check_n, {"type": int})
    p: float = _field(1.0, _real, check_p, {"type": float})
    delta_sq: float = _field(0.0, _real, check_coarsening)
    Delta_sq: float = _field(0.0, _real, _check_Delta)
    delta_sq_grid: list = _field(list, _grid, check_coarsening, {"metavar": "a:b:step"})
    Delta_sq_grid: list = _field(list, _grid, _check_Delta, {"metavar": "a:b:step"})
    angle_pairs: list = _field(lambda: [[0.0, 0.0]], _pairs, _angle_pair)
    p_list: list = _field(lambda: [0.85, 0.80, 0.75], _reals, check_p)
    transition_tol: float = _field(DEFAULT_TOL, _real, check_tol, {"type": float})
    format: str = _field("csv", _same, _output_format, {})
    out: str = _field("", _same, _path, {})

    def validate(self):
        """Read every field by its kind and check; raise ConfigError naming the first bad one."""
        for name, kind, check in _CHECKS:
            try:
                value = kind(getattr(self, name), check)
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from exc
            setattr(self, name, value)
        return self


# The field table, read once: each field by name, by flag, and as (name, kind, check) in order.
_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
_FLAGS = {"--" + f.name.replace("_", "-"): f for f in _FIELDS.values()
          if f.metadata["flag"] is not None}
_CHECKS = tuple((f.name, f.metadata["kind"], f.metadata["check"]) for f in _FIELDS.values())

# The columns of every result row, in output order.
RESULT_FIELDS = ["m", "n", "p", "delta_sq", "Delta_sq", "witness_kind", "witness_value",
                 "bound", "violated", "angles"]
_CONFIG_ENCODER = json.JSONEncoder(sort_keys=True)  # json.dumps builds one each call


def _grid_number(text, value):
    try:
        return _real(float(value), lambda number: None)
    except ValueError:
        raise ConfigError(f"grid: {value.strip()!r} in {text!r} is not a finite number") from None


def parse_grid(text):
    """Parse a grid flag: 'a:b:step' (inclusive endpoints) or 'x,y,z'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid: expected a:b:step, got {text!r}")
        a, b, step = (_grid_number(text, v) for v in parts)
        if step <= 0:
            raise ConfigError("grid: step must be positive")
        if b < a:
            raise ConfigError(f"grid: {text!r} ends below its start")
        span = (b - a) / step + 1e-9  # inf when the count leaves float range
        if not span < MAX_COUNT:
            raise ConfigError(f"grid: {text!r} has more than {MAX_COUNT} points")
        return [a + i * step for i in range(math.floor(span) + 1)]
    return [_grid_number(text, v) for v in text.split(",") if v.strip()]


def load_config(args):
    """Merge defaults, the optional JSON config file, and every flag named after a field."""
    values = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config: top level must be an object, got {data!r:.40}")
        for key, value in data.items():
            if key not in _FIELDS:
                raise ConfigError(f"config: unknown key {key!r}")
            values[key] = value
    for key, flag in vars(args).items():
        if key in _FIELDS and flag is not None:
            values[key] = parse_grid(flag) if _FIELDS[key].metadata["kind"] is _grid else flag
    return ExperimentConfig(**values).validate()


def format_number(value):
    """CSV cell: shortest round-trip float (1.0 as "1"), true/false or ";"-joined angles."""
    if isinstance(value, float):  # most cells; a bool is no float
        return repr(value).removesuffix(".0")
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ";".join(repr(a).removesuffix(".0") for a in value)  # every angle is a float
    return str(value)


def _write_csv(header, fields, rows, stream):
    """Write the header line(s), then the ``fields`` cells of each row as one CSV line."""
    stream.write(header + "\n")
    lists = {}  # each list's cell by id: a command's rows share their angles list and hold it
    for row in rows:
        stream.write(",".join([lists.get(id(v)) or lists.setdefault(id(v), format_number(v))
                               if type(v) is list else format_number(v)
                               for v in map(row.__getitem__, fields)]) + "\n")


def write_rows(config, rows, stream):
    """Emit rows in the configured format, preceded by the resolved config."""
    resolved = vars(config)  # asdict without its deep copy: every field is a plain value
    if config.format == "json":
        payload = {
            "config": resolved,
            # JSON has no nan: a non-finite cell (the correlate bound) is null
            "rows": [{name: None if isinstance(v := row[name], float) and not math.isfinite(v)
                      else v for name in RESULT_FIELDS} for row in rows],
        }
        json.dump(payload, stream, indent=2, allow_nan=False)
        stream.write("\n")
        return
    header = f"# config {_CONFIG_ENCODER.encode(resolved)}\n{','.join(RESULT_FIELDS)}"
    _write_csv(header, RESULT_FIELDS, rows, stream)


def _sink(path, write):
    """Call ``write`` on the file at ``path``, or on stdout for "", and flush: the one place
    that opens an output file or touches stdout.  Any OSError, or a stdout closed before the
    run began (None), raises the one ConfigError naming what was written."""
    try:
        with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as stream:
            if stream is None:  # the descriptor was closed before the run began
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            write(stream)
            stream.flush()  # a closed stdout fails here, not in the flush at exit
    except OSError as exc:
        if not path and sys.stdout is not None:  # so the flush at exit prints no second error
            with open(os.devnull, "w") as null, contextlib.suppress(OSError):  # no fileno()
                os.dup2(null.fileno(), sys.stdout.fileno())
        raise ConfigError(f"out: cannot write {path or '<stdout>'}: {exc.strerror}") from exc


def emit(config, rows, plot=()):
    """Write the rows to ``config.out``, or to stdout without one.  With ``plot = (header,
    fields)`` and an output path, also write ``<out>.plot.csv``: the header, then those cells
    of each row as floats."""
    _sink(config.out, functools.partial(write_rows, config, rows))
    if plot and config.out:
        _sink(config.out + ".plot.csv", functools.partial(_write_csv, *plot, rows))


def _flat(angles):
    return list(angles.alice) + list(angles.bob)


def _row(config, **cells):
    """A result row (a dict) at the configured point; ``cells`` replace the columns that differ."""
    point = {"m": config.m, "n": config.n, "p": config.p, "delta_sq": config.delta_sq,
             "Delta_sq": config.Delta_sq, "witness_kind": config.witness,
             "bound": math.nan, "violated": False}
    return {**point, **cells}


def _transition_row(config, pt, angles):
    return _row(config, m=pt.witness.m, p=pt.p, delta_sq=pt.delta_sq, Delta_sq=pt.Delta_sq,
                witness_kind=pt.witness.kind, witness_value=pt.achieved_value,
                bound=pt.witness.bound, angles=angles)


def cmd_correlate(config):
    """Correlator values for the configured angle pairs, one row per regime.

    Each regime is the one correlator at a restricted (state, coarsening):
    the pure state or the configured p, with delta, Delta or both.
    """
    state = StateSpec(n=config.n, p=config.p)
    pure = StateSpec(n=config.n, p=1.0)
    delta, Delta = math.sqrt(config.delta_sq), math.sqrt(config.Delta_sq)
    regimes = [
        ("resolution", Correlator(pure, CoarseningParams(delta, 0.0))),
        ("reference", Correlator(pure, CoarseningParams(0.0, Delta))),
        ("full", Correlator(pure, CoarseningParams(delta, Delta))),
        ("werner_resolution", Correlator(state, CoarseningParams(delta, 0.0))),
        ("werner_full", Correlator(state, CoarseningParams(delta, Delta))),
    ]
    rows = []
    for ti, tj in config.angle_pairs:
        for name, corr in regimes:
            rows.append(_row(config, witness_kind="corr_" + name,
                             witness_value=corr(ti, tj), angles=[ti, tj]))
    emit(config, rows)
    return 0


def cmd_profile(config):
    """Optimized witness value along a one-dimensional variance grid."""
    if config.delta_sq_grid and config.Delta_sq_grid:
        raise ConfigError("delta_sq_grid/Delta_sq_grid: profile sweeps one grid at a time")
    if config.delta_sq_grid:
        axis, grid = "delta_sq", config.delta_sq_grid
    elif config.Delta_sq_grid:
        axis, grid = "Delta_sq", config.Delta_sq_grid
    else:
        raise ConfigError("delta_sq_grid: profile requires a variance grid")
    spec = _spec(config.witness, config.m)
    angles = _flat(optimal_angles(spec))
    rows = []
    for variance in grid:
        point = {"delta_sq": config.delta_sq, "Delta_sq": config.Delta_sq, axis: variance}
        c0, V = invariants(kernel_masses(config.n, math.sqrt(point["delta_sq"])), config.p,
                           math.sqrt(point["Delta_sq"]))  # a Correlator's, bit for bit
        value = optimum(spec, c0, V)
        rows.append(_row(config, **point, witness_value=value, bound=spec.bound,
                         violated=value > spec.bound, angles=angles))
    emit(config, rows, plot=("variance,witness_value,bound", (axis, "witness_value", "bound")))
    return 0


def cmd_boundary(config):
    """Trace the transition curve delta_c^2(Delta^2) over the Delta^2 grid."""
    if not config.Delta_sq_grid:
        raise ConfigError("Delta_sq_grid: boundary requires a Delta^2 grid")
    spec = _spec(config.witness, config.m)
    state = StateSpec(n=config.n, p=config.p)
    points = trace_boundary(spec, state, config.Delta_sq_grid, tol=config.transition_tol)
    if not points:
        raise TransitionError("no boundary point found on the supplied grid")
    angles = _flat(optimal_angles(spec))
    emit(config, [_transition_row(config, pt, angles) for pt in points],
         plot=("Delta_sq,delta_sq", ("Delta_sq", "delta_sq")))
    return 0


def cmd_table1(config):
    """Transition variances for m = 2 at each configured visibility.

    Prints them beside the published values and their relative deviations, and writes the
    rows to ``out`` if one is set."""
    rows = []
    lines = [
        f"{'p':>6} {'witness':>9} {'d2(D=0)':>10} {'ref':>10} {'rel':>9}"
        f" {'D2(d=0)':>10} {'ref':>10} {'rel':>9}"
    ]
    specs = [(spec, _flat(optimal_angles(spec))) for spec in (bell_spec(2), steering_spec(2))]
    for p in config.p_list:
        state = StateSpec(n=config.n, p=p)
        label = f"{p:.2f}" if float(f"{p:.2f}") == p else repr(p)  # 0.849 is not 0.85
        refs = TABLE1_REFERENCE.get(p, (None,) * 4)  # the published p exactly
        for (spec, angles), ref_d2, ref_D2 in zip(specs, refs[::2], refs[1::2]):
            d2 = find_critical_delta(spec, state, Delta_fixed=0.0, tol=config.transition_tol)
            D2 = find_critical_Delta(spec, state, delta_fixed=0.0, tol=config.transition_tol)
            line = f"{label:>6} {spec.kind:>9}"
            for value, ref, digits in ((d2.delta_sq, ref_d2, 4), (D2.Delta_sq, ref_D2, 5)):
                ref_text, rel_text = ("-", "-") if ref is None else (
                    f"{ref:.{digits}f}", f"{(value - ref) / ref:.2%}")
                line += f" {value:>10.{digits}f} {ref_text:>10} {rel_text:>9}"
            lines.append(line)
            rows += [_transition_row(config, pt, angles) for pt in (d2, D2)]
    _sink("", lambda stdout: stdout.write("\n".join(lines) + "\n"))
    if config.out:
        emit(config, rows)
    return 0


COMMANDS = {"correlate": cmd_correlate, "profile": cmd_profile,
            "boundary": cmd_boundary, "table1": cmd_table1}
# The spellings argparse reads as a field flag: each flag and its prefixes, no two options alike
_FLAG_SPELLINGS = {flag[:end] for flag in _FLAGS for end in range(3, len(flag) + 1)}


@functools.cache  # built on the first call, not at import
def build_parser():
    parser = argparse.ArgumentParser(
        prog="fuzzycorr",
        description="Coarse-grained Bell/steering witnesses and transition search",
        epilog="commands:\n" + "\n".join(f"  {name:<10} {func.__doc__.splitlines()[0]}"
                                         for name, func in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON configuration file")
    for flag, f in _FLAGS.items():
        parser.add_argument(flag, dest=f.name, **f.metadata["flag"])
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(1, len(argv))):  # argparse takes the -1,0 of "--flag -1,0" for a flag
        if argv[i - 1] in _FLAG_SPELLINGS and argv[i].startswith("-") and argv[i][1:2] != "-":
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](load_config(args))
    except (ConfigError, TransitionError) as exc:
        # a message may quote a value of any size, or a path that holds a line break
        message = str(exc).replace("\n", "\\n").replace("\r", "\\r")
        print(f"error: {message:.300}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3


if __name__ == "__main__":
    sys.exit(main())
