"""The three workloads: seeded inputs, the operation on them, and its oracle check.

Each workload is an endless stream of operations, taken in rounds.  The
seed draws only the inputs; which class of operation comes at which
position of the stream is fixed, because one operation can cost from 0.5 ms
to 30 s and a seeded choice of class would swamp the run-to-run comparison.
Every round of a workload holds the same classes, so a faster program that
runs more rounds in a run still measures the same mix.

Operations reach the program only through its stable entry points:
``StateSpec``, ``CoarseningParams``, ``Correlator``, ``bell_spec``,
``steering_spec``, ``AngleAssignment``, ``evaluate``, the three
``find_critical_*`` searches with their default bracket, tolerance and
optimizer settings, and ``fuzzycorr.cli.main``.  They look each name up
at call time, so the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os

import numpy as np

import oracle

# Default tolerance of the transition searches (width of the final bracket).
TRANSITION_TOL = 1e-3
# A draw is kept only if the optimized witness clears its bound by this
# share of the bound at the bracket edge where it should violate, and
# misses it by as much where it should not.
CLEARANCE = 0.01


class Op:
    """One operation: `run()` calls the program, `check(result)` returns None or an error."""

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


def _spec(fc, kind, m):
    return fc.bell_spec(m) if kind == "bell" else fc.steering_spec(m)


# --- evaluate ---------------------------------------------------------------

EVALUATE_SIZES = (5, 50, 500, 5000)
EVALUATE_SETTINGS = range(2, 7)
EVALUATE_TOL = 1e-12
# About 2 s of operations at the seed commit, so a run ends close to its
# --seconds.
EVALUATE_ROUND = 1000


def evaluate_ops(fc, rng, tmp):
    """One Correlator construction, then Bell and steering values for m = 2..6."""
    while True:
        n = int(rng.choice(EVALUATE_SIZES))
        delta = float(rng.uniform(0.0, 2.0 * n))
        Delta = float(rng.uniform(0.0, 1.0))
        p = float(rng.uniform(0.0, 1.0))
        batch = [
            (kind, m, rng.uniform(0.0, math.pi, m), rng.uniform(0.0, math.pi, m))
            for m in EVALUATE_SETTINGS
            for kind in ("bell", "steering")
        ]

        def run(n=n, p=p, delta=delta, Delta=Delta, batch=batch):
            corr = fc.Correlator(fc.StateSpec(n, p), fc.CoarseningParams(delta, Delta))
            return [
                fc.evaluate(_spec(fc, kind, m), fc.AngleAssignment(a, b), corr)
                for kind, m, a, b in batch
            ]

        def check(values, n=n, p=p, delta=delta, Delta=Delta, batch=batch):
            c0, V = oracle.invariants(n, p, delta, Delta)
            for value, (kind, m, a, b) in zip(values, batch):
                want = oracle.witness_value(kind, m, c0, V, a, b)
                if not abs(value - want) <= EVALUATE_TOL:
                    return f"{kind} m={m}: {value!r} != {want!r}"
            return None

        yield Op(f"evaluate n={n} delta={delta:.4g} Delta={Delta:.3g} p={p:.3f}", run, check)


# --- profile ----------------------------------------------------------------

PROFILE_WITNESSES = (("bell", 2), ("bell", 3), ("steering", 2), ("steering", 3), ("steering", 4))
PROFILE_AXES = ("delta_sq", "Delta_sq")
PROFILE_POINTS = 2
# Each witness and axis pairing once: about 20 s a round at the seed commit.
PROFILE_ROUND = len(PROFILE_WITNESSES) * len(PROFILE_AXES)


def _csv_tolerance(value):
    """One unit in the 12th significant digit, the precision the CSV carries."""
    return 10.0 ** (math.floor(math.log10(abs(value))) - 11) if value else 1e-300


def _profile_op(fc, rng, tmp, index, kind, m, axis):
    n = int(rng.integers(3, 11))
    p = float(rng.uniform(0.85, 1.0))
    if axis == "delta_sq":
        grid = sorted(float(x) for x in rng.uniform(0.0, 4.0 * n * n, PROFILE_POINTS))
        fixed = {"Delta_sq": float(rng.uniform(0.0, 0.1)) ** 2}
    else:
        grid = sorted(float(x) for x in rng.uniform(0.0, 1.0, PROFILE_POINTS))
        fixed = {"delta_sq": float(rng.uniform(0.0, n / 3.0)) ** 2}
    config_path = os.path.join(tmp, f"profile{index}.json")
    out_path = os.path.join(tmp, f"profile{index}.csv")
    with open(config_path, "w") as fh:
        json.dump({"witness": kind, "m": m, "n": n, "p": p, **fixed}, fh)
    flag = "--delta-sq-grid" if axis == "delta_sq" else "--Delta-sq-grid"
    argv = ["profile", "--config", config_path, flag, ",".join(repr(x) for x in grid),
            "--out", out_path]

    def run():
        return fc.cli.main(argv)

    def check(status):
        if status != 0:
            return f"exit status {status}"
        with open(out_path) as fh:
            lines = [line for line in fh if not line.startswith("#")]
        rows = list(csv.DictReader(lines))
        if len(rows) != len(grid):
            return f"{len(rows)} rows for {len(grid)} grid points"
        for x, row in zip(grid, rows):
            delta_sq = x if axis == "delta_sq" else fixed["delta_sq"]
            Delta_sq = x if axis == "Delta_sq" else fixed["Delta_sq"]
            c0, V = oracle.invariants(n, p, math.sqrt(delta_sq), math.sqrt(Delta_sq))
            want = oracle.optimum(kind, m, c0, V)
            got = float(row["witness_value"])
            if not abs(got - want) <= _csv_tolerance(want):
                return f"{axis}={x!r}: witness {got!r} != {want!r}"
            angles = [float(a) for a in row["angles"].split(";")]
            at_angles = oracle.witness_value(kind, m, c0, V, angles[:m], angles[m:])
            if not abs(at_angles - want) <= 1e-9:
                return f"{axis}={x!r}: angles give {at_angles!r}, optimum {want!r}"
            bound = oracle.classical_bound(kind, m)
            if float(row["bound"]) != bound or (row["violated"] == "true") != (got > bound):
                return f"{axis}={x!r}: bound/violated columns {row['bound']}, {row['violated']}"
        if not os.path.exists(out_path + ".plot.csv"):
            return "no plot-data file"
        os.remove(out_path + ".plot.csv")
        os.remove(out_path)
        os.remove(config_path)
        return None

    label = f"profile {kind} m={m} n={n} p={p:.3f} {axis}={[round(x, 4) for x in grid]}"
    return Op(label, run, check)


def profile_ops(fc, rng, tmp):
    """One `fuzzycorr profile` run over a short grid.

    Position i profiles PROFILE_WITNESSES[i % 5] along PROFILE_AXES[i % 2],
    so a round of ten holds each pairing once.
    """
    for i in itertools.count():
        kind, m = PROFILE_WITNESSES[i % len(PROFILE_WITNESSES)]
        yield _profile_op(fc, rng, tmp, i, kind, m, PROFILE_AXES[i % len(PROFILE_AXES)])


# --- transitions -------------------------------------------------------------

# Every round is these three searches: one per axis, both witness kinds,
# m = 2 and 3.  Rounds never change, so a faster program that fits more
# rounds into a run measures the same mix as its parent.  At the seed
# commit each search takes 9-12 s and a run is one round.  Bell m=3
# searches (18-30 s each) are left out: one would double the run.
TRANSITION_ROUND = (("delta_sq", "steering", 2), ("Delta_sq", "bell", 2), ("p", "steering", 3))


def _draw_search(rng, kind, m, axis):
    """Seeded inputs for which the oracle puts a root strictly inside the default bracket."""
    while True:
        n = int(rng.integers(3, 11))
        fixed = {
            "p": float(rng.uniform(0.85, 1.0)),
            "delta": float(rng.uniform(0.0, n / 3.0)),
            "Delta": float(rng.uniform(0.0, 0.1)),
        }
        if axis == "delta_sq":
            fixed["delta"] = None
        elif axis == "Delta_sq":
            fixed["Delta"] = None
        else:
            fixed["p"] = None
        search = oracle.Search(kind, m, n, axis, fixed)
        if search.has_interior_root(CLEARANCE * oracle.classical_bound(kind, m)):
            return n, fixed, search


def _transition_op(fc, rng, kind, m, axis):
    n, fixed, search = _draw_search(rng, kind, m, axis)

    def run():
        spec = _spec(fc, kind, m)
        if axis == "delta_sq":
            point = fc.find_critical_delta(spec, fc.StateSpec(n, fixed["p"]), Delta_fixed=fixed["Delta"])
            return point.delta_sq
        if axis == "Delta_sq":
            point = fc.find_critical_Delta(spec, fc.StateSpec(n, fixed["p"]), delta_fixed=fixed["delta"])
            return point.Delta_sq
        params = fc.CoarseningParams(fixed["delta"], fixed["Delta"])
        return fc.find_critical_visibility(spec, n, params).p

    def check(root):
        want = search.root()
        if not abs(root - want) <= TRANSITION_TOL:
            return f"root {root!r}, oracle {want!r}"
        return None

    shown = ", ".join(f"{k}={v:.4g}" for k, v in fixed.items() if v is not None)
    return Op(f"transition {axis} {kind} m={m} n={n} {shown}", run, check)


def transitions_ops(fc, rng, tmp):
    """One transition search per operation, TRANSITION_ROUND over and over."""
    for axis, kind, m in itertools.cycle(TRANSITION_ROUND):
        yield _transition_op(fc, rng, kind, m, axis)


# Workload name -> (stream of operations, operations per round).  A run
# stops only at the end of a round.
WORKLOADS = {
    "transitions": (transitions_ops, len(TRANSITION_ROUND)),
    "profile": (profile_ops, PROFILE_ROUND),
    "evaluate": (evaluate_ops, EVALUATE_ROUND),
}
