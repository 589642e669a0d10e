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
                          check_n, check_p, check_tol, quoted)
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

# Largest settings count m and largest grid: at m = 10^6 a profile row takes
# about 4 s and writes 38 MB, a 10^5-point grid about 2.5 s (wall, 2 vCPUs).
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
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
            abs(value) <= FLOAT_MAX):
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


def _settings_count(m):
    WitnessSpec("bell", m)  # the m rule of both kinds
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

    witness: str = _field("bell", _same, functools.partial(WitnessSpec, m=2), {})
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
        for f in dataclasses.fields(self):
            try:
                value = f.metadata["kind"](getattr(self, f.name), f.metadata["check"])
            except ValueError as exc:
                raise ConfigError(f"{f.name}: {exc}") from exc
            setattr(self, f.name, value)
        return self


# The columns of every result row, in output order.
RESULT_FIELDS = ["m", "n", "p", "delta_sq", "Delta_sq", "witness_kind", "witness_value",
                 "bound", "violated", "angles"]


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
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config: top level must be an object, got {data!r:.40}")
        for key, value in data.items():
            if key not in fields:
                raise ConfigError(f"config: unknown key {key!r}")
            values[key] = value
    for key, flag in vars(args).items():
        if key in fields and flag is not None:
            values[key] = parse_grid(flag) if fields[key].metadata["kind"] is _grid else flag
    return ExperimentConfig(**values).validate()


def format_number(value):
    """CSV cell: shortest round-trip float (1.0 as "1"), true/false or ";"-joined angles."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ";".join(repr(a).removesuffix(".0") for a in value)  # every angle is a float
    if isinstance(value, float):
        return repr(value).removesuffix(".0")
    return str(value)


def _write_csv(header, fields, rows, stream):
    """Write the header line(s), then the ``fields`` cells of each row as one CSV line."""
    stream.write(header + "\n")
    for row in rows:
        stream.write(",".join(format_number(row[name]) for name in fields) + "\n")


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
    header = f"# config {json.dumps(resolved, sort_keys=True)}\n{','.join(RESULT_FIELDS)}"
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


def _params(delta_sq, Delta_sq):
    return CoarseningParams(delta=math.sqrt(delta_sq), Delta=math.sqrt(Delta_sq))


def _flat(angles):
    return list(angles.alice) + list(angles.bob)


def _row(config, **cells):
    """A result row (a dict) at the configured point; ``cells`` replace the columns that differ."""
    point = {"m": config.m, "n": config.n, "p": config.p, "delta_sq": config.delta_sq,
             "Delta_sq": config.Delta_sq, "witness_kind": config.witness,
             "bound": math.nan, "violated": False}
    return {**point, **cells}


def _transition_row(config, pt):
    return _row(config, m=pt.witness.m, p=pt.p, delta_sq=pt.delta_sq, Delta_sq=pt.Delta_sq,
                witness_kind=pt.witness.kind, witness_value=pt.achieved_value,
                bound=pt.witness.bound, angles=_flat(optimal_angles(pt.witness)))


def cmd_correlate(config):
    """Correlator values for the configured angle pairs, one row per regime.

    Each regime is the one correlator at a restricted (state, coarsening):
    the pure state or the configured p, with delta, Delta or both.
    """
    state = StateSpec(n=config.n, p=config.p)
    pure = StateSpec(n=config.n, p=1.0)
    delta_sq, Delta_sq = config.delta_sq, config.Delta_sq
    regimes = [
        ("resolution", Correlator(pure, _params(delta_sq, 0.0))),
        ("reference", Correlator(pure, _params(0.0, Delta_sq))),
        ("full", Correlator(pure, _params(delta_sq, Delta_sq))),
        ("werner_resolution", Correlator(state, _params(delta_sq, 0.0))),
        ("werner_full", Correlator(state, _params(delta_sq, Delta_sq))),
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
    spec = WitnessSpec(config.witness, config.m)
    state = StateSpec(n=config.n, p=config.p)
    angles = _flat(optimal_angles(spec))
    rows = []
    for variance in grid:
        point = {"delta_sq": config.delta_sq, "Delta_sq": config.Delta_sq, axis: variance}
        corr = Correlator(state, _params(point["delta_sq"], point["Delta_sq"]))
        value = optimum(spec, corr.c0, corr.V)
        rows.append(_row(config, **point, witness_value=value, bound=spec.bound,
                         violated=value > spec.bound, angles=angles))
    emit(config, rows, plot=("variance,witness_value,bound", (axis, "witness_value", "bound")))
    return 0


def cmd_boundary(config):
    """Trace the transition curve delta_c^2(Delta^2) over the Delta^2 grid."""
    if not config.Delta_sq_grid:
        raise ConfigError("Delta_sq_grid: boundary requires a Delta^2 grid")
    spec = WitnessSpec(config.witness, config.m)
    state = StateSpec(n=config.n, p=config.p)
    points = trace_boundary(spec, state, config.Delta_sq_grid, tol=config.transition_tol)
    if not points:
        raise TransitionError("no boundary point found on the supplied grid")
    emit(config, [_transition_row(config, pt) for pt in points],
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
    for p in config.p_list:
        state = StateSpec(n=config.n, p=p)
        label = f"{p:.2f}" if float(f"{p:.2f}") == p else repr(p)  # 0.849 is not 0.85
        refs = TABLE1_REFERENCE.get(p, (None,) * 4)  # the published p exactly
        for spec, ref_d2, ref_D2 in ((bell_spec(2), *refs[:2]), (steering_spec(2), *refs[2:])):
            d2 = find_critical_delta(spec, state, Delta_fixed=0.0, tol=config.transition_tol)
            D2 = find_critical_Delta(spec, state, delta_fixed=0.0, tol=config.transition_tol)
            line = f"{label:>6} {spec.kind:>9}"
            for value, ref, digits in ((d2.delta_sq, ref_d2, 4), (D2.Delta_sq, ref_D2, 5)):
                ref_text, rel_text = ("-", "-") if ref is None else (
                    f"{ref:.{digits}f}", f"{(value - ref) / ref:.2%}")
                line += f" {value:>10.{digits}f} {ref_text:>10} {rel_text:>9}"
            lines.append(line)
            rows += [_transition_row(config, pt) for pt in (d2, D2)]
    _sink("", lambda stdout: stdout.write("\n".join(lines) + "\n"))
    if config.out:
        emit(config, rows)
    return 0


COMMANDS = {"correlate": cmd_correlate, "profile": cmd_profile,
            "boundary": cmd_boundary, "table1": cmd_table1}


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
    for f in dataclasses.fields(ExperimentConfig):
        if (flag := f.metadata["flag"]) is not None:
            parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name, **flag)
    return parser


def main(argv=None):
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
