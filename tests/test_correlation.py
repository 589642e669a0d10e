"""Correlation module tests.

Oracles used here are deliberately independent of the implementation:

* direct summation over 10^4 kernel terms for the Q/R building blocks;
* adaptive / dense-trapezoid quadrature for the Gaussian angle averages;
* the paper's formulas node by node (``paper_oracle``): Q/R kernel sums,
  Gauss-Hermite jitter averages and the Werner brackets;
* an exact operator-level calculation (explicit dichotomized observables in
  a truncated level space, rotated and traced against the density matrix)
  which validates every regime at once.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from fuzzycorr import (
    CoarseningParams,
    Correlator,
    StateSpec,
    WitnessSpec,
    find_critical_Delta,
    find_critical_delta,
    steering_spec,
)
from fuzzycorr.correlation import check_coarsening, check_n, check_p, check_tol, quoted
from kernel_oracle import make_discrete_kernel
from matrix_oracle import pair_matrix
from operator_oracle import operator_oracle
from paper_oracle import corr_reference_quadrature, corr_werner_full, q_func, r_func
from table1_oracle import gaussian_weights


# ------------------------------------------------------------- oracles

def naive_q(n, phi, delta):
    k, w = gaussian_weights(delta**2)
    plus = np.where(n - k > 0, 1.0, -1.0)
    minus = np.where(-n - k > 0, 1.0, -1.0)
    return float(np.sum(w * (math.cos(phi) ** 2 * plus + math.sin(phi) ** 2 * minus)))


def naive_r(n, phi, delta):
    k, w = gaussian_weights(delta**2)
    plus = np.where(n - k > 0, 1.0, -1.0)
    minus = np.where(-n - k > 0, 1.0, -1.0)
    return math.sin(phi) * math.cos(phi) * float(np.sum(w * (plus - minus)))


def regime(n, p=1.0, delta=0.0, Delta=0.0):
    """The correlator of one regime: state (n, p) under coarsening (delta, Delta)."""
    return Correlator(StateSpec(n, p), CoarseningParams(delta, Delta))


# ------------------------------------------------ q_func / r_func (paper oracle)

def test_q_sharp_phi_zero():
    kernel = make_discrete_kernel(0.0)
    assert q_func(5, 0.0, kernel) == pytest.approx(1.0, abs=1e-15)


def test_q_sharp_phi_quarter():
    kernel = make_discrete_kernel(0.0)
    assert q_func(5, math.pi / 4, kernel) == pytest.approx(0.0, abs=1e-15)


def test_q_against_direct_summation():
    kernel = make_discrete_kernel(3.0)
    assert q_func(2, math.pi / 6, kernel) == pytest.approx(
        naive_q(2, math.pi / 6, 3.0), abs=1e-12
    )


def test_r_sharp_phi_quarter():
    kernel = make_discrete_kernel(0.0)
    assert r_func(1, math.pi / 4, kernel) == pytest.approx(1.0, abs=1e-15)


def test_r_vanishes_at_phi_zero():
    kernel = make_discrete_kernel(2.0)
    for n in (1, 4, 9):
        assert r_func(n, 0.0, kernel) == 0.0


def test_r_against_direct_summation():
    kernel = make_discrete_kernel(2.0)
    assert r_func(5, math.pi / 3, kernel) == pytest.approx(
        naive_r(5, math.pi / 3, 2.0), abs=1e-12
    )


# ------------------------------------------------ resolution coarsening only

def test_resolution_sharp_aligned():
    assert regime(5)(0.0, 0.0) == pytest.approx(-1.0)


def test_resolution_sharp_eighth():
    for n in (1, 5, 12):
        value = regime(n)(math.pi / 8, math.pi / 8)
        assert value == pytest.approx(0.0, abs=1e-15)


def test_resolution_coarsening_shrinks():
    value = regime(2, delta=6.0)(0.0, 0.0)
    assert abs(value) < 1.0
    # cross-check against the direct-summation building blocks
    expected = 0.5 * (
        naive_q(2, 0, 6.0) * naive_q(-2, 0, 6.0) * 2 + 2 * naive_r(2, 0, 6.0) ** 2
    )
    assert value == pytest.approx(expected, abs=1e-12)


def test_sharp_limit_equivalence_grid():
    thetas = np.linspace(0.0, math.pi, 20)
    for n in (1, 3, 8):
        corr = regime(n)
        for ti in thetas:
            for tj in thetas:
                expected = -math.cos(2.0 * (ti + tj))
                assert abs(corr(ti, tj) - expected) < 1e-12


# ------------------------------------------------- reference coarsening only

def test_reference_sharp():
    assert regime(5)(0.1, -0.1) == pytest.approx(-1.0)


def test_reference_attenuation():
    assert regime(5, Delta=0.5)(0.3, -0.3) == pytest.approx(-math.exp(-1.0), abs=1e-12)


def test_reference_cosine_zero():
    assert regime(5, Delta=0.3)(math.pi / 4, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_reference_against_adaptive_quadrature():
    ti, tj = 0.4, -0.15
    for Delta in (0.1, 0.5, 1.0):
        norm = 1.0 / (2.0 * math.pi * Delta**2)
        value, _ = dblquad(
            lambda y, x: norm
            * math.exp(-((x - ti) ** 2 + (y - tj) ** 2) / (2 * Delta**2))
            * (-math.cos(2.0 * (x + y))),
            ti - 8 * Delta,
            ti + 8 * Delta,
            lambda x: tj - 8 * Delta,
            lambda x: tj + 8 * Delta,
        )
        assert regime(5, Delta=Delta)(ti, tj) == pytest.approx(value, abs=1e-8)
        assert corr_reference_quadrature(ti, tj, Delta) == pytest.approx(value, abs=1e-8)


# ------------------------------------------------------------ both coarsenings

def test_full_delta_zero_matches_reference_and_ignores_n():
    value7 = regime(7, Delta=0.5)(0.3, -0.3)
    assert value7 == pytest.approx(-math.exp(-1.0), abs=1e-9)
    value2 = regime(2, Delta=0.5)(0.3, -0.3)
    assert value7 == pytest.approx(value2, abs=1e-10)


def test_full_Delta_zero_matches_resolution():
    # against the paper's resolution-only formula (Delta = 0, p = 1)
    params = CoarseningParams(delta=3.0, Delta=0.0)
    state = StateSpec(5)
    ti = tj = math.pi / 8
    assert Correlator(state, params)(ti, tj) == pytest.approx(
        corr_werner_full(ti, tj, state, params), abs=1e-12
    )


def test_full_against_dense_trapezoid():
    # Average the paper's Q/R building blocks over a dense Gaussian grid in
    # each party's angle; independent of the Gauss-Hermite path.
    delta, Delta, n = 2.0, 0.2, 5
    params = CoarseningParams(delta=delta, Delta=Delta)
    kernel = make_discrete_kernel(delta)
    phis = np.linspace(-8 * Delta, 8 * Delta, 1001)
    gauss = np.exp(-(phis**2) / (2 * Delta**2))
    gauss /= gauss.sum()
    qp = np.array([q_func(n, phi, kernel) for phi in phis])
    qm = np.array([q_func(-n, phi, kernel) for phi in phis])
    r = np.array([r_func(n, phi, kernel) for phi in phis])
    qp_avg, qm_avg, r_avg = gauss @ qp, gauss @ qm, gauss @ r
    expected = 0.5 * (2.0 * qp_avg * qm_avg + 2.0 * r_avg**2)
    value = Correlator(StateSpec(n), params)(0.0, 0.0)
    assert -1.0 < value < 0.0
    assert value == pytest.approx(expected, abs=1e-7)


# --------------------------------------------------------------- Werner forms

def test_werner_pure_limit():
    # at p = 1 the correlator is the paper's pure-state formula
    state = StateSpec(4, p=1.0)
    for params in (CoarseningParams(1.5, 0.0), CoarseningParams(delta=1.5, Delta=0.3)):
        assert Correlator(state, params)(0.2, 0.5) == pytest.approx(
            corr_werner_full(0.2, 0.5, state, params), abs=1e-12
        )


def test_werner_noise_only_sharp():
    # at delta=0 the white-noise bracket factorizes to zero
    corr = regime(6, p=0.0)
    for angles in ((0.0, 0.0), (0.3, 1.1), (math.pi / 5, -0.4)):
        assert corr(*angles) == pytest.approx(0.0, abs=1e-15)


def test_werner_visibility_scaling_sharp():
    assert regime(5, p=0.85)(0.0, 0.0) == pytest.approx(-0.85, abs=1e-14)


def test_werner_full_sharp_delta_closed_form():
    value = regime(5, p=0.85, Delta=0.2)(0.0, 0.0)
    assert value == pytest.approx(-0.85 * math.exp(-0.16), abs=1e-9)


def test_werner_linearity_in_p():
    ti, tj = 0.25, 0.8
    for Delta in (0.0, 0.1):
        v0 = regime(5, p=0.0, delta=2.0, Delta=Delta)(ti, tj)
        v1 = regime(5, p=1.0, delta=2.0, Delta=Delta)(ti, tj)
        vh = regime(5, p=0.5, delta=2.0, Delta=Delta)(ti, tj)
        assert vh == pytest.approx(0.5 * (v0 + v1), abs=1e-12)


# ------------------------------------------------------ Correlator handle

def test_correlator_matches_functions():
    state = StateSpec(5, p=0.75)
    params = CoarseningParams(delta=2.0, Delta=0.1)
    corr = Correlator(state, params)
    for ti, tj in ((0.0, 0.0), (0.3, 0.9), (1.4, 2.2)):
        assert corr(ti, tj) == pytest.approx(
            corr_werner_full(ti, tj, state, params), abs=1e-12
        )


def test_correlator_matrix_and_diagonal_consistent():
    # the steering witness reads the matched settings off the matrix diagonal
    state, params = StateSpec(5, p=0.9), CoarseningParams(delta=1.0, Delta=0.2)
    corr = Correlator(state, params)
    alice = np.array([0.1, 0.7, 1.3])
    bob = np.array([0.4, 1.0, 2.0])
    matrix = pair_matrix(corr, alice, bob)
    assert matrix.shape == (3, 3)
    for i in range(3):
        assert matrix[i, i] == pytest.approx(
            corr_werner_full(alice[i], bob[i], state, params), abs=1e-12
        )
        for j in range(3):
            assert matrix[i, j] == pytest.approx(corr(alice[i], bob[j]), abs=1e-15)


def test_correlator_invariants_against_operator_oracle():
    # E(a, b) = c0 - V cos 2(a + b): E = c0 where a + b = pi/4, c0 - V where a + b = 0
    rng = np.random.default_rng(2)
    for _ in range(4):
        n = int(rng.integers(1, 8))
        p = float(rng.uniform(0, 1))
        delta = float(rng.uniform(0, 4))
        Delta = float(rng.uniform(0, 0.6))
        corr = Correlator(StateSpec(n, p), CoarseningParams(delta=delta, Delta=Delta))
        assert corr.c0 >= 0.0 and corr.V >= 0.0
        assert corr.c0 == pytest.approx(
            operator_oracle(math.pi / 8, math.pi / 8, n, p, delta, Delta), abs=1e-12
        )
        assert corr.c0 - corr.V == pytest.approx(
            operator_oracle(0.3, -0.3, n, p, delta, Delta), abs=1e-12
        )


@pytest.mark.parametrize("delta,Delta,name", [
    (math.nan, 0.0, "delta"),
    (math.inf, 0.0, "delta"),
    (-1.0, 0.0, "delta"),
    (0.0, math.nan, "Delta"),
    (0.0, math.inf, "Delta"),
    (0.0, -math.inf, "Delta"),
    # an int past float range: a Correlator then overflowed in kernel_masses
    pytest.param(10**400, 0.0, "delta", id="10**400-0.0-delta"),
    pytest.param(0.0, 10**400, "Delta", id="0.0-10**400-Delta"),
    pytest.param(-10**400, 0.0, "delta", id="-10**400-0.0-delta"),
    pytest.param(0.0, -10**400, "Delta", id="0.0--10**400-Delta"),
])
def test_coarsening_rejects_non_finite(delta, Delta, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        CoarseningParams(delta, Delta)
    if name == "delta":
        with pytest.raises(ValueError, match="^delta must be finite"):
            find_critical_Delta(steering_spec(2), StateSpec(5), delta_fixed=delta)
    else:
        with pytest.raises(ValueError, match="^Delta must be finite"):
            find_critical_delta(steering_spec(2), StateSpec(5), Delta_fixed=Delta)


def test_state_rejects_non_integral_n():
    for n in (2.5, 2.0, True, "3", 0):
        with pytest.raises(ValueError):
            StateSpec(n)


@pytest.mark.parametrize("p", [1.5, -0.1, math.nan])
def test_state_rejects_visibility_outside_unit_interval(p):
    with pytest.raises(ValueError, match="p must lie in"):
        StateSpec(5, p)


def test_boundedness_randomized():
    rng = np.random.default_rng(7)
    for _ in range(40):
        state = StateSpec(int(rng.integers(1, 21)), p=float(rng.uniform(0, 1)))
        params = CoarseningParams(
            delta=float(rng.uniform(0, 10)), Delta=float(rng.uniform(0, 1))
        )
        corr = Correlator(state, params)
        ti, tj = rng.uniform(0, math.pi, 2)
        assert abs(corr(ti, tj)) <= 1.0 + 1e-12


def test_symmetry_in_angle_slots():
    state = StateSpec(4, p=0.8)
    params = CoarseningParams(delta=1.7, Delta=0.3)
    resolution = CoarseningParams(params.delta)
    corr = Correlator(state, params)
    for ti, tj in ((0.2, 1.1), (0.0, 0.6), (2.5, 0.9)):
        assert corr(ti, tj) == pytest.approx(corr(tj, ti), abs=1e-15)
        assert corr_werner_full(ti, tj, state, resolution) == pytest.approx(
            corr_werner_full(tj, ti, state, resolution), abs=1e-15
        )


def test_pi_periodicity():
    corr = Correlator(StateSpec(3, p=0.95), CoarseningParams(delta=1.2, Delta=0.25))
    for ti, tj in ((0.2, 1.1), (0.8, 0.05)):
        assert corr(ti + math.pi, tj) == pytest.approx(corr(ti, tj), abs=1e-12)
        assert corr(ti, tj + math.pi) == pytest.approx(corr(ti, tj), abs=1e-12)


# ------------------------------------------------- operator-level oracle

def test_all_regimes_against_operator_oracle():
    rng = np.random.default_rng(1)
    for _ in range(8):
        ti, tj = rng.uniform(0, math.pi, 2)
        n = int(rng.integers(1, 8))
        p = float(rng.uniform(0, 1))
        delta = float(rng.uniform(0, 4))
        Delta = float(rng.uniform(0, 0.6))
        state = StateSpec(n, p)
        params = CoarseningParams(delta=delta, Delta=Delta)
        exact = operator_oracle(ti, tj, n, p, delta, Delta)
        assert Correlator(state, params)(ti, tj) == pytest.approx(exact, abs=1e-12)
        assert corr_werner_full(ti, tj, state, params) == pytest.approx(exact, abs=1e-12)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    n=st.integers(1, 60),
    p=st.floats(0.0, 1.0),
    delta_frac=st.floats(0.0, 3.0),
    Delta=st.floats(0.0, 1.0),
    ti=st.floats(-10.0, 10.0),
    tj=st.floats(-10.0, 10.0),
)
def test_correlator_matches_paper_formula(n, p, delta_frac, Delta, ti, tj):
    # delta ranges over [0, 3n]; the paper oracle's quadrature holds for Delta <= 1
    state = StateSpec(n, p)
    params = CoarseningParams(delta_frac * n, Delta)
    assert Correlator(state, params)(ti, tj) == pytest.approx(
        corr_werner_full(ti, tj, state, params), abs=1e-12
    )


@pytest.mark.parametrize("value, accepted", [
    (2, True), (True, False), (False, False), (2.0, False), (np.int64(2), True),
    (Fraction(2), False), ("2", False), (0, False), (-1, False),
])
def test_counts_accept_the_same_values(value, accepted):
    # an exact int skips the numbers.Integral check; bools, non-integral
    # numbers, strings and counts below the minimum are still refused
    for build in (lambda v: StateSpec(v), lambda v: WitnessSpec("bell", v)):
        if accepted:
            build(value)
        else:
            with pytest.raises(ValueError):
                build(value)


HUGE = 10**5000  # past the 4300-digit limit of int-to-str conversion (CPython 3.10.7 on)


@pytest.mark.parametrize("build, message", [
    (lambda: WitnessSpec("bell", -HUGE), "m must be an integer >= 2, got a negative integer of"),
    (lambda: CoarseningParams(0, -HUGE), "Delta must be finite and non-negative, got a negative "
                                         "integer of"),
    (lambda: CoarseningParams(HUGE), "delta must be finite and non-negative, got an integer of"),
    (lambda: check_coarsening(0.0, HUGE), "Delta must be finite and non-negative, got an "
                                          "integer of"),
    (lambda: check_tol(HUGE), "tol must be finite and positive, got an integer of"),
    (lambda: check_tol(-HUGE), "tol must be finite and positive, got a negative integer of"),
], ids=["m", "Delta-negative", "delta", "check_coarsening", "tol", "tol-negative"])
def test_a_huge_int_is_quoted_by_its_size(build, message):
    # the message's repr of such an int raised the interpreter's "Exceeds the limit" ValueError
    # in place of the message itself
    with pytest.raises(ValueError) as raised:
        build()
    assert type(raised.value) is ValueError
    assert str(raised.value) == f"{message} {HUGE.bit_length()} bits"


def test_quoted_is_repr_below_the_digit_limit():
    for value in (10**4000, -10**4000, math.nan, "x", [1.5]):
        assert quoted(value) == repr(value)
    with pytest.raises(ValueError):  # a container holding such an int has no size to quote
        quoted([HUGE])


def _plain(name, fields, check):
    """A plain frozen dataclass of ``fields`` whose __post_init__ passes them to ``check``."""
    return dataclasses.make_dataclass(name, fields, frozen=True, namespace={
        "__post_init__": lambda self: check(*(getattr(self, f[0]) for f in fields))})


def _built(make, *args):
    """make(*args), or the type and message of what it raises."""
    try:
        return make(*args)
    except Exception as exc:  # the error is the outcome compared
        return type(exc), str(exc)


@pytest.mark.parametrize("cls, plain, good, bad", [
    (StateSpec, _plain("StateSpec", [("n", "int"), ("p", "float", dataclasses.field(default=1.0))],
                       lambda n, p: (check_n(n), check_p(p))),
     (5, 0.9), [(0, 0.9), (-1, 0.5), (2.0, 0.5), (True, 0.5), ("5", 0.5), (None, 0.5), (5, -0.1),
                (5, 1.5), (5, math.nan), (5, "x"), (0, math.nan)]),
    (CoarseningParams, _plain("CoarseningParams", [
        ("delta", "float", dataclasses.field(default=0.0)),
        ("Delta", "float", dataclasses.field(default=0.0))], check_coarsening),
     (1.2, 0.05), [(-1.0, 0.0), (math.nan, 0.0), (math.inf, 0.0), (0.0, -0.5), (0.0, math.nan),
                   (0.0, -math.inf), (-1.0, math.nan), ("x", 0.0), (0.0, None)]),
], ids=["StateSpec", "CoarseningParams"])
def test_specs_keep_their_dataclass_contract(cls, plain, good, bad):
    # StateSpec and CoarseningParams set their fields in one write; each must behave as the
    # plain frozen dataclass that checks its fields in __post_init__
    fields = [(f.name, f.type, f.default) for f in dataclasses.fields(cls)]
    assert fields == [(f.name, f.type, f.default) for f in dataclasses.fields(plain)]
    made, model = cls(*good), plain(*good)
    assert cls(**{name: a for (name, _, _), a in zip(fields, good)}) == made == cls(*good)
    assert hash(made) == hash(model) and repr(made) == repr(model)
    assert cls(good[0]) == cls(good[0], fields[1][2]) and repr(cls(good[0])) == repr(plain(good[0]))
    moved = dataclasses.replace(made, **{fields[1][0]: 0.5})
    assert moved == cls(good[0], 0.5) and moved != made
    assert repr(moved) == repr(dataclasses.replace(model, **{fields[1][0]: 0.5}))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(made, fields[0][0], good[0])
    for args in bad:
        assert _built(cls, *args) == _built(plain, *args), args
        assert isinstance(_built(cls, *args), tuple), args
