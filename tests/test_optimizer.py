"""Tests of ``witness.optimum``: sharp-limit optima, determinism, monotone degradation.

``optimum`` evaluates the witness at the fixed angles of ``optimal_angles``;
these tests check it against dense grid searches and against a plain
multi-start Nelder-Mead over all angles (``nm_oracle.maximize``).
"""

import math

import numpy as np
import pytest

from fuzzycorr import (
    CoarseningParams,
    Correlator,
    StateSpec,
    bell_spec,
    evaluate,
    optimal_angles,
    optimum,
    steering_spec,
)
from fuzzycorr.cli import main
from fuzzycorr.witness import AngleAssignment
from grid_oracle import chsh_grid_max, steering_grid_max
from nm_oracle import maximize

SHARP = Correlator(StateSpec(5, p=1.0), CoarseningParams())


class ScaledCorrelator:
    """A correlator multiplied by a constant factor s >= 0: c0 and V scale by s."""

    def __init__(self, inner, scale):
        self.inner = inner
        self.scale = scale
        self.c0 = scale * inner.c0
        self.V = scale * inner.V

    def __call__(self, a, b):
        return self.scale * self.inner(a, b)


def test_chsh_sharp_optimum_vs_grid_oracle():
    value = optimum(bell_spec(2), SHARP.c0, SHARP.V)
    assert value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)
    # the pi/720 grid search cannot beat the continuous optimum, and must
    # get within its own resolution of it
    grid = chsh_grid_max()
    assert grid <= value + 1e-6
    assert grid == pytest.approx(value, abs=1e-3)


def test_steering_sharp_optima_vs_grid_oracle():
    for m in (2, 3, 4, 5):
        value = optimum(steering_spec(m), SHARP.c0, SHARP.V)
        assert value == pytest.approx(math.sqrt(m), abs=1e-6)
        assert steering_grid_max(m) <= value + 1e-6


def test_scaled_correlator_halves_value():
    # Werner p = 0.5 at zero coarsening is exactly the halved correlator
    corr = Correlator(StateSpec(5, p=0.5), CoarseningParams())
    assert optimum(bell_spec(2), corr.c0, corr.V) == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_result_value_consistent_with_angles():
    corr = Correlator(StateSpec(4, p=0.9), CoarseningParams(delta=1.5, Delta=0.2))
    for spec in (bell_spec(2), bell_spec(3), steering_spec(2), steering_spec(4)):
        value, angles = maximize(spec, corr)
        assert evaluate(spec, angles, corr) == pytest.approx(value, abs=1e-8)
        assert evaluate(spec, optimal_angles(spec), corr) == pytest.approx(
            optimum(spec, corr.c0, corr.V), abs=1e-8
        )


def test_determinism_bit_exact():
    spec = bell_spec(3)
    first, second = (Correlator(StateSpec(5, p=0.9), CoarseningParams(delta=1.5, Delta=0.1))
                     for _ in range(2))
    a = optimum(spec, first.c0, first.V)
    b = optimum(spec, second.c0, second.V)
    assert a == b
    first, second = optimal_angles(spec), optimal_angles(spec)
    np.testing.assert_array_equal(first.alice, second.alice)
    np.testing.assert_array_equal(first.bob, second.bob)


def test_local_maximum_certificate():
    corr = Correlator(StateSpec(5, p=1.0), CoarseningParams(delta=2.0))
    for spec in (bell_spec(2), bell_spec(3), steering_spec(3)):
        value = optimum(spec, corr.c0, corr.V)
        angles = optimal_angles(spec)
        x = np.concatenate([angles.alice, angles.bob])
        m = spec.m
        for i in range(len(x)):
            for step in (1e-4, -1e-4):
                y = x.copy()
                y[i] += step
                perturbed = evaluate(spec, AngleAssignment(alice=y[:m], bob=y[m:]), corr)
                assert perturbed <= value + 1e-9


def test_scaling_covariance():
    spec = bell_spec(2)
    base = optimum(spec, SHARP.c0, SHARP.V)
    for s in (0.25, 0.6, 1.0):
        scaled = ScaledCorrelator(SHARP, s)
        assert optimum(spec, scaled.c0, scaled.V) == pytest.approx(s * base, abs=1e-6)
        # the scaled argmax found by a free search is optimal for the
        # unscaled problem too
        _, angles = maximize(spec, scaled)
        assert evaluate(spec, angles, SHARP) == pytest.approx(base, abs=1e-5)


def test_profile_single_point_matches_maximize(tmp_path):
    out = tmp_path / "single.csv"
    code = main([
        "profile", "--witness", "bell", "--m", "3", "--n", "5", "--p", "0.9",
        "--delta-sq-grid", "2.5", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    corr = Correlator(StateSpec(5, p=0.9), CoarseningParams(delta=math.sqrt(2.5)))
    value, _ = maximize(bell_spec(3), corr)
    assert float(row["witness_value"]) == pytest.approx(value, abs=1e-9)


def test_profile_constant_family():
    # with no coarsening the correlator is -p cos 2(a + b) whatever n is
    spec = steering_spec(2)
    family = [Correlator(StateSpec(n, p=1.0), CoarseningParams()) for n in (1, 5, 50)]
    values = [optimum(spec, corr.c0, corr.V) for corr in family]
    assert max(values) - min(values) < 1e-9


def test_profile_monotone_degradation_in_delta():
    spec = bell_spec(2)
    state = StateSpec(5, p=1.0)
    grid = np.linspace(0.0, 12.0, 13)
    correlators = [
        Correlator(state, CoarseningParams(delta=math.sqrt(v))) for v in grid
    ]
    values = [optimum(spec, corr.c0, corr.V) for corr in correlators]
    for prev, cur in zip(values, values[1:]):
        assert cur <= prev + 1e-4
    # spot-check the closed-form angles against a free search
    for idx in (0, 6, 12):
        free, _ = maximize(spec, correlators[idx])
        assert values[idx] == pytest.approx(free, abs=1e-6)


def test_profile_monotone_degradation_in_Delta():
    spec = steering_spec(2)
    state = StateSpec(5, p=1.0)
    grid = np.linspace(0.0, 0.5, 11)
    correlators = [
        Correlator(state, CoarseningParams(Delta=math.sqrt(v))) for v in grid
    ]
    values = [optimum(spec, corr.c0, corr.V) for corr in correlators]
    for prev, cur in zip(values, values[1:]):
        assert cur <= prev + 1e-4
