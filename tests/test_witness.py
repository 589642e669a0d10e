"""Witness module tests: coefficient patterns, classical bounds, evaluation, optima."""

import array
import dataclasses
import functools
import itertools
import math
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize

from fuzzycorr import (
    AngleAssignment,
    CoarseningParams,
    Correlator,
    NoViolationAtLo,
    StateSpec,
    TransitionError,
    bell_spec,
    WitnessSpec,
    evaluate,
    find_critical_delta,
    find_critical_visibility,
    optimal_angles,
    optimum,
    steering_spec,
    V_c,
)
from fuzzycorr import witness
from grid_oracle import chsh_grid_max, steering_grid_max
from lhv_oracle import lhv_bound_bruteforce
from matrix_oracle import (
    array_optimal_angles,
    bell_coefficients,
    matrix_witness,
    pair_matrix,
    reference_angles,
    reference_bound,
    reference_evaluate,
    reference_optimum,
    reference_V_c,
)
from nm_oracle import maximize
from operator_oracle import operator_oracle

SHARP = Correlator(StateSpec(5, p=1.0), CoarseningParams())


class ZeroCorrelator:
    c0 = 0.0
    V = 0.0


# ------------------------------------------------------------------ specs

def test_chsh_pattern():
    spec = bell_spec(2)
    np.testing.assert_array_equal(bell_coefficients(spec.m), [[1, 1], [1, -1]])
    assert spec.bound == 2.0


def test_m3_pattern():
    spec = bell_spec(3)
    np.testing.assert_array_equal(
        bell_coefficients(spec.m), [[1, 1, 1], [1, 1, -1], [1, -1, -1]]
    )
    assert spec.bound == 5.0


def test_m5_bound():
    assert bell_spec(5).bound == 13.0


def test_bell_rejects_small_m():
    with pytest.raises(ValueError):
        bell_spec(1)


def test_steering_bound_is_one():
    assert steering_spec(2).bound == 1.0
    assert steering_spec(9).bound == 1.0


def test_steering_rejects_small_m():
    with pytest.raises(ValueError):
        steering_spec(1)


@pytest.mark.parametrize("kind,m", [("bell", 2.0), ("bell", 2.5), ("steering", True),
                                    ("steering", "3"), ("chsh", 2)])
def test_spec_rejects_bad_kind_or_m(kind, m):
    with pytest.raises(ValueError):
        WitnessSpec(kind, m)


def test_bruteforce_bound_matches_closed_form():
    for m in range(2, 7):
        assert lhv_bound_bruteforce(m) == bell_spec(m).bound


# --------------------------------------------------------------- evaluate

def test_chsh_sharp_optimum():
    angles = AngleAssignment(
        alice=[0.0, math.pi / 4],
        bob=[-math.pi / 8 + math.pi / 2, math.pi / 8 + math.pi / 2],
    )
    value = evaluate(bell_spec(2), angles, SHARP)
    assert value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    # independent dense grid search confirms this is the global optimum
    assert chsh_grid_max() <= value + 1e-4


def test_steering_matched_angles():
    alice = np.array([0.0, 0.5, 1.1])
    angles = AngleAssignment(alice=alice, bob=math.pi / 2 - alice)
    value = evaluate(steering_spec(3), angles, SHARP)
    assert value == pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_evaluate_zero_correlator():
    angles = AngleAssignment(alice=[0.0, 1.0], bob=[0.5, 1.5])
    assert evaluate(bell_spec(2), angles, ZeroCorrelator()) == 0.0
    assert evaluate(steering_spec(2), angles, ZeroCorrelator()) == 0.0


# Random angles span [-2 pi, 3 pi), so the reduction mod pi is exercised too.
@pytest.mark.parametrize("kind", ["bell", "steering"])
def test_evaluate_matches_pair_matrix_oracle(kind):
    rng = np.random.default_rng(11)
    make = bell_spec if kind == "bell" else steering_spec
    for m in range(2, 65):
        for _ in range(3):
            corr = Correlator(
                StateSpec(int(rng.integers(1, 30)), p=float(rng.uniform(0, 1))),
                CoarseningParams(delta=float(rng.uniform(0, 20)), Delta=float(rng.uniform(0, 1))),
            )
            alice = rng.uniform(-2 * math.pi, 3 * math.pi, m)
            bob = rng.uniform(-2 * math.pi, 3 * math.pi, m)
            spec = make(m)
            value = evaluate(spec, AngleAssignment(alice=alice, bob=bob), corr)
            assert abs(value - matrix_witness(spec, alice, bob, corr)) <= 1e-12, (m, alice, bob)


def test_evaluate_at_m_1000_against_exact_sum():
    # Every pair term is at most c0 + V in size, so m^2 (c0 + V) bounds the
    # Bell form; the O(m) sum must agree with the exactly rounded sum of all
    # m^2 terms to 1e-14 of that scale.
    m = 1000
    rng = np.random.default_rng(12)
    corr = Correlator(StateSpec(7, p=0.9), CoarseningParams(delta=2.0, Delta=0.3))
    scale = m * m * (corr.c0 + corr.V)
    random_angles = AngleAssignment(alice=rng.uniform(-2 * math.pi, 3 * math.pi, m),
                                    bob=rng.uniform(-2 * math.pi, 3 * math.pi, m))
    for angles in (random_angles, optimal_angles(bell_spec(m))):
        pairs = pair_matrix(corr, angles.alice, angles.bob)
        exact = math.fsum((bell_coefficients(m) * pairs).ravel())
        assert abs(evaluate(bell_spec(m), angles, corr) - exact) <= 1e-14 * scale
        trace = abs(math.fsum(np.diag(pairs))) / math.sqrt(m)
        assert abs(evaluate(steering_spec(m), angles, corr) - trace) <= 1e-14 * scale / m


def test_evaluate_dimension_mismatch():
    angles = AngleAssignment(alice=[0.0, 1.0], bob=[0.5, 1.5])
    with pytest.raises(ValueError):
        evaluate(bell_spec(3), angles, SHARP)


# ------------------------------------------------- margin: value - bound

def test_margin_at_tsirelson():
    angles = AngleAssignment(alice=[0.0, math.pi / 4], bob=[3 * math.pi / 8, 5 * math.pi / 8])
    spec = bell_spec(2)
    margin = evaluate(spec, angles, SHARP) - spec.bound
    assert margin == pytest.approx(2.0 * math.sqrt(2.0) - 2.0, abs=1e-12)


def test_margin_zero_correlator():
    angles = AngleAssignment(alice=[0.0, 1.0], bob=[0.5, 1.5])
    for spec, margin in ((bell_spec(2), -2.0), (steering_spec(2), -1.0)):
        assert evaluate(spec, angles, ZeroCorrelator()) - spec.bound == margin


# ---------------------------------------------------------------- invariances

def test_steering_sign_flip_invariance():
    class Negated:
        def __init__(self, inner):
            self.c0 = -inner.c0
            self.V = -inner.V

    angles = AngleAssignment(alice=[0.1, 0.9], bob=[1.2, 0.3])
    spec = steering_spec(2)
    assert evaluate(spec, angles, SHARP) == pytest.approx(
        evaluate(spec, angles, Negated(SHARP)), abs=1e-14
    )


def test_steering_joint_permutation_invariance():
    spec = steering_spec(3)
    alice = np.array([0.1, 0.9, 1.7])
    bob = np.array([1.2, 0.3, 2.0])
    base = evaluate(spec, AngleAssignment(alice=alice, bob=bob), SHARP)
    perm = [2, 0, 1]
    shuffled = evaluate(spec, AngleAssignment(alice=alice[perm], bob=bob[perm]), SHARP)
    assert shuffled == pytest.approx(base, abs=1e-14)


def test_angles_reduced_to_pi_interval():
    angles = AngleAssignment(alice=[math.pi + 0.2, -0.3], bob=[2 * math.pi, 0.1])
    alice, bob = np.asarray(angles.alice), np.asarray(angles.bob)
    assert np.all(alice >= 0.0) and np.all(alice < math.pi)
    assert np.all(bob >= 0.0) and np.all(bob < math.pi)


@pytest.mark.parametrize("angle", [-1e-17, -5e-17, -0.0, math.pi, 3 * math.pi, 1e300, -1e300])
def test_angles_stay_below_pi(angle):
    # one % pi sends a tiny negative angle to pi itself; the stored angle lies in [0, pi)
    alice, bob = [angle, 2.0], [0.0, angle]
    angles = AngleAssignment(alice=alice, bob=bob)
    assert all(0.0 <= a < math.pi for a in angles.alice + angles.bob), angles
    if abs(angle) < 10.0:  # past that, 2(a + b) in the oracle has lost the period
        corr = Correlator(StateSpec(5, 0.9), CoarseningParams(1.0, 0.2))
        for spec in (bell_spec(2), steering_spec(2)):
            assert evaluate(spec, angles, corr) == pytest.approx(
                matrix_witness(spec, alice, bob, corr), abs=1e-12)


def test_angle_length_mismatch_rejected():
    with pytest.raises(ValueError):
        AngleAssignment(alice=[0.0], bob=[0.0, 1.0])


@pytest.mark.parametrize("party", ["alice", "bob"])
@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan,
                                   pytest.param(10**400, id="10**400")])
def test_non_finite_angle_rejected(party, angle):
    angles = {"alice": [0.0, 0.0], "bob": [0.0, 0.0]}
    angles[party][0] = angle
    with pytest.raises(ValueError, match=f"^{party}: "):
        AngleAssignment(**angles)


def _outcome(build):
    """What build() returns, or the type and message of what it raises."""
    with warnings.catch_warnings():  # float() of a masked, complex or 2-D item warns
        warnings.simplefilter("ignore")
        try:
            return build()
        except Exception as exc:  # the error is the outcome compared
            return type(exc), str(exc)


def _mask_last(values):
    masked = np.ma.array(values)
    masked[-1] = np.ma.masked
    return masked


# Each party input kind, built fresh for each use (a generator is read once).
ANGLE_INPUTS = {
    "float64": lambda: np.array([-7.25, 0.5, 3.5, 9.0]),
    "float32": lambda: np.array([-7.25, 0.1, 3.5, 9.0], dtype=np.float32),
    "int64": lambda: np.array([-7, 1, 4, 9]),
    "bool": lambda: np.array([True, False, True, True]),
    "float16": lambda: np.array([-7.25, 0.1, 3.5, 9.0], dtype=np.float16),
    ">f8": lambda: np.array([-7.25, 0.1, 3.5, 9.0], dtype=">f8"),
    "object": lambda: np.array([-7.25, 1, Fraction(1, 3), 9.0], dtype=object),
    "strided": lambda: np.linspace(-9.0, 9.0, 12)[::3],
    "reversed": lambda: np.linspace(-9.0, 9.0, 12)[::-3],
    "0-d": lambda: np.array(1.5),
    "2-D": lambda: np.full((4, 1), 0.25),
    "2-D rows": lambda: np.ones((4, 2)),
    "complex": lambda: np.array([1.0, 2.0, 3.0, 4.0], dtype=complex),
    "datetime64": lambda: np.array(["2020-01-01"] * 4, dtype="datetime64[D]"),
    "masked": lambda: _mask_last([0.5, 1.0, 1.5, 2.0]),
    "list": lambda: [-7.25, 0.1, 3.5, 9.0],
    "tuple": lambda: (-7.25, 0.1, 3.5, 9.0),
    "generator": lambda: (0.5 * k - 7.0 for k in range(4)),
    "array d": lambda: array.array("d", [-7.25, 0.1, 3.5, 9.0]),
    "array f": lambda: array.array("f", [-7.25, 0.1, 3.5, 9.0]),
    "bytes": lambda: bytes([0, 1, 2, 200]),
    "string": lambda: "0123",
}


@pytest.mark.parametrize("kind", ANGLE_INPUTS)
def test_angles_reduce_as_first_written_for_every_input_kind(kind):
    # a 1-D buffer of a format memoryview reads is read whole, every other input item by
    # item: both must store the same floats, or raise the same error, as the reference
    make = ANGLE_INPUTS[kind]
    for parties in ((make, make), (make, lambda: [0.5, 1.0, 1.5, 2.0])):
        got = _outcome(lambda: AngleAssignment(parties[0](), parties[1]()))
        if isinstance(got, AngleAssignment):
            got = got.alice, got.bob
        assert got == _outcome(lambda: reference_angles(parties[0](), parties[1]())), kind


def test_evaluate_is_the_first_written_expression_bit_for_bit():
    # the one-pass sums repeat the reference's float operations in its order: ==, not approx
    rng = np.random.default_rng(26)
    for draw in range(10_000):
        spec = WitnessSpec("bell" if draw % 2 else "steering", int(rng.integers(2, 65)))
        alice, bob = rng.uniform(-2.0 * math.pi, 3.0 * math.pi, (2, spec.m))
        corr = SimpleNamespace(c0=float(rng.uniform(0.0, 1.0)), V=float(rng.uniform(0.0, 1.0)))
        angles = AngleAssignment(alice, bob)
        want = reference_angles(alice, bob)
        assert (angles.alice, angles.bob) == want, (spec, alice, bob)
        assert evaluate(spec, angles, corr) == reference_evaluate(spec, *want, corr.c0, corr.V)


def test_angle_assignment_is_a_frozen_value():
    angles = AngleAssignment(np.array([0.5, 4.0]), [1.0, -1.0])
    same = AngleAssignment([0.5, 4.0 - math.pi], (1.0, math.pi - 1.0))
    assert angles == same and hash(angles) == hash(same)
    assert repr(angles) == f"AngleAssignment(alice={angles.alice!r}, bob={angles.bob!r})"
    with pytest.raises(dataclasses.FrozenInstanceError):
        angles.alice = (0.0, 0.0)
    moved = dataclasses.replace(angles, bob=np.array([-1.0, 7.0]))
    assert moved.alice == angles.alice and moved.bob == reference_angles([0.0, 0.0], [-1.0, 7.0])[1]


# ------------------------------------------------------------------ shared specs

# the counts of test_counts_accept_the_same_values, and [2], 3 and 10**20
SPEC_COUNTS = [2, True, False, 2.0, np.int64(2), Fraction(2), "2", 0, -1, [2], 3, 10**20]


def test_specs_are_shared_per_int_m():
    assert bell_spec(2) is bell_spec(2) and steering_spec(3) is steering_spec(3)
    assert bell_spec(2) is not steering_spec(2)
    assert bell_spec(np.int64(2)) is not bell_spec(2)  # built, as any m but an exact int


def test_shared_specs_accept_and_refuse_as_WitnessSpec_does():
    # a plain cache would hand the m = 2 spec to 2.0 and True, and raise TypeError for [2]
    for cached in (False, True):
        for shared in (witness._bell_specs, witness._steering_specs):
            shared.cache_clear()
        if cached:
            bell_spec(2), steering_spec(2)
        for value in SPEC_COUNTS:
            for make, kind in ((bell_spec, "bell"), (steering_spec, "steering")):
                got = _outcome(lambda: make(value))
                want = _outcome(lambda: WitnessSpec(kind, value))
                assert got == want and type(got) is type(want), (kind, value, cached)
                if isinstance(got, WitnessSpec):
                    assert type(got.m) is type(value), (kind, value, cached)


# ------------------------------------------------------------------ optimum

# (n, p, delta, Delta): sharp, resolution only, reference only, both, noisy
OPTIMUM_POINTS = [
    (5, 1.0, 0.0, 0.0),
    (5, 1.0, 2.5, 0.0),
    (3, 0.9, 0.0, 0.3),
    (7, 0.8, 3.0, 0.2),
    (2, 0.6, 1.2, 0.45),
]


@pytest.mark.parametrize("kind", ["bell", "steering"])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_optimum_against_free_search_and_grid(kind, m):
    spec = bell_spec(m) if kind == "bell" else steering_spec(m)
    for n, p, delta, Delta in OPTIMUM_POINTS:
        corr = Correlator(StateSpec(n, p), CoarseningParams(delta=delta, Delta=Delta))
        value = optimum(spec, corr.c0, corr.V)
        free, _ = maximize(spec, corr)
        assert free <= value + 1e-12, (n, p, delta, Delta)
        assert free == pytest.approx(value, abs=1e-9), (n, p, delta, Delta)
        if kind == "steering":
            grid = steering_grid_max(m, corr)
        elif m == 2:
            grid = chsh_grid_max(corr)
        else:
            continue  # no dense grid over 2m >= 6 angles
        assert grid <= value + 1e-12, (n, p, delta, Delta)
        assert grid == pytest.approx(value, abs=1e-3), (n, p, delta, Delta)


@pytest.mark.parametrize("kind", ["bell", "steering"])
def test_optimum_equals_evaluate_at_optimal_angles(kind):
    make = bell_spec if kind == "bell" else steering_spec
    for n, p, delta, Delta in OPTIMUM_POINTS:
        corr = Correlator(StateSpec(n, p), CoarseningParams(delta=delta, Delta=Delta))
        for m in range(2, 65):
            spec = make(m)
            value = optimum(spec, corr.c0, corr.V)
            assert value == pytest.approx(
                evaluate(spec, optimal_angles(spec), corr), rel=1e-14, abs=0
            ), (m, n, p, delta, Delta)


def test_sharp_bell_optimum_closed_form():
    for m in range(2, 9):
        assert optimum(bell_spec(m), SHARP.c0, SHARP.V) == pytest.approx(
            m / math.sin(math.pi / (2 * m)), abs=1e-12
        )


@pytest.mark.parametrize("m", range(2, 10))
def test_bell_optimum_against_the_rank_two_search(m):
    # The sharp correlator is -Re(x_i y_j), x_i = e^{2i a_i}, y_j = e^{2i b_j}, so for fixed
    # Alice phases Bob's best reply gives B = sum_j |sum_i c_ij x_i|, and B*_m is the maximum of
    # that over the m - 1 phases left once x_1 = 1: a search that shares neither the angles nor
    # the closed form.  Tolerances, fixed before the first run: no search result above the
    # closed form by more than rounding (1e-12), the best of 20 within 1e-9 of it.  The search
    # time grows steeply with m, so it stops at m = 9.
    i, j = np.indices((m, m))
    signs = np.where(i + j <= m - 1, 1.0, -1.0)  # c_ij = +1 where i + j <= m + 1, 1-based

    def negative(phases):
        return -np.abs(np.exp(1j * np.concatenate(([0.0], phases))) @ signs).sum()

    starts = np.random.default_rng(m).uniform(0.0, 2.0 * math.pi, size=(20, m - 1))
    best = -min(minimize(negative, x0, method="Nelder-Mead",
                         options={"maxiter": 20000, "xatol": 1e-10, "fatol": 1e-13}).fun
                for x0 in starts)
    value = optimum(bell_spec(m), 0.0, 1.0)
    assert value - 1e-9 <= best <= value + 1e-12, (m, best, value)


def test_critical_visibility_parity_split():
    # V_c(m) = bound / B*_m: with delta = Delta = 0 the Bell witness holds for p > V_c(m).
    # Odd m fall toward pi/4 from above, even m rise toward it from below (m <= 10^5).
    values = {m: bell_spec(m).bound / optimum(bell_spec(m), 0.0, 1.0)  # c0 = 0, V = 1
              for m in range(2, 10**5 + 1)}
    assert [round(values[m], 6) for m in range(2, 12)] == [
        0.707107, 0.833333, 0.765367, 0.803444, 0.776457,
        0.794718, 0.780361, 0.791064, 0.782172, 0.789200]
    odd = [values[m] for m in range(3, 10**5 + 1, 2)]
    even = [values[m] for m in range(2, 10**5 + 1, 2)]
    assert all(a > b for a, b in zip(odd, odd[1:])) and odd[-1] > math.pi / 4
    assert all(a < b for a, b in zip(even, even[1:])) and even[-1] < math.pi / 4
    # Under noise: at delta = Delta = 0, c0 = 0 and V = p, so the p search finds
    # V_c(m) itself, and a noisy state violates only for the m with V_c(m) < p.
    for m in range(2, 12):
        assert abs(find_critical_visibility(bell_spec(m), 5, tol=1e-9).p - values[m]) <= 1e-9
    for p, classical in ((0.75, set(range(3, 12))), (0.80, {3, 5})):
        raised = set()
        for m in range(2, 12):
            try:
                find_critical_delta(bell_spec(m), StateSpec(5, p))
            except NoViolationAtLo:
                raised.add(m)
        assert raised == classical, p


@pytest.mark.parametrize("kind", ["bell", "steering"])
def test_V_c_is_the_linear_condition_exactly(kind):
    # the optimum is alpha c0 + beta V, so the witness violates exactly for
    # V > (bound - alpha c0) / beta; V_c must give that float, to the bit
    for m in [*range(2, 65), 10**5]:
        spec = WitnessSpec(kind, m)
        alpha, beta = ((m, m / math.sin(math.pi / (2 * m))) if kind == "bell"
                       else (math.sqrt(m), math.sqrt(m)))
        for c0 in (0.0, 1e-300, 1e-12, 1e-3, 0.0625, 0.3, 1.0 / m, 0.5, 1.0, 7.5):
            assert V_c(spec, c0) == (spec.bound - alpha * c0) / beta, (kind, m, c0)


def test_optimum_and_V_c_are_the_first_written_expressions_bit_for_bit():
    # each spec reads its bound, alpha, beta and sine once; optimum and V_c must still give the
    # floats of the expressions that recomputed them from m at every call: bits, not approx
    rng = np.random.default_rng(34)
    draws = rng.uniform(0.0, 1.0, (200, 2)) * 10.0 ** rng.integers(-320, 2, (200, 2))
    edges = [0.0, 5e-324, 2.0**-1074 * 3, 2.0**-1023, 2.2250738585072014e-308, 1e-300, 0.5, 1.0]
    pairs = [*itertools.product(edges, repeat=2), *map(tuple, draws.tolist())]
    for kind in ("bell", "steering"):
        for m in [*range(2, 65), 10**3, 10**5, 10**6]:
            shared = bell_spec(m) if kind == "bell" else steering_spec(m)
            for spec in (WitnessSpec(kind, m), shared):
                assert spec.bound.hex() == reference_bound(spec).hex(), (kind, m)
                for c0, V in pairs:
                    got, want = optimum(spec, c0, V), reference_optimum(spec, c0, V)
                    assert got.hex() == want.hex(), (kind, m, c0, V)
                    assert V_c(spec, c0).hex() == reference_V_c(spec, c0).hex(), (kind, m, c0)


# the last m whose constants are floats: for Bell the last whose beta = m / sin(pi / 2m) is,
# ~1.68e154 (its bound leaves float range only past ~1.90e154), for steering the last int that
# rounds to a float (2^1024 - 2^970 rounds up, half to even, to 2^1024)
LAST_STEERING_M = 2**1024 - 2**970 - 1


def _last_bell_m():
    lo, hi = 10**154, 10**155  # reference_optimum(m, 0, 1) = beta is a float at lo, not at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        beta = reference_optimum(SimpleNamespace(kind="bell", m=mid), 0.0, 1.0)
        lo, hi = (mid, hi) if beta < math.inf else (lo, mid)
    return lo


@pytest.mark.parametrize("kind", ["bell", "steering"])
def test_a_huge_m_is_refused_at_construction(kind):
    # such an m was built, and then raised OverflowError at its first bound, optimum, V_c or
    # search, or ended a delta^2 search in a ZeroDivisionError, where beta was inf
    last = _last_bell_m() if kind == "bell" else LAST_STEERING_M
    shared = bell_spec if kind == "bell" else steering_spec
    for make in (functools.partial(WitnessSpec, kind), shared):
        spec = make(last)
        assert spec.bound == reference_bound(spec) < math.inf
        assert math.isfinite(V_c(spec, 0.5)) and V_c(spec, 0.5) == reference_V_c(spec, 0.5)
        assert optimum(spec, 0.25, 0.5) == reference_optimum(spec, 0.25, 0.5)
        for search in (lambda: find_critical_delta(spec, StateSpec(5, 0.9), 0.1),
                       lambda: find_critical_visibility(spec, 5, CoarseningParams(1.0))):
            try:
                search()
            except TransitionError:  # a root or a named failure, not an OverflowError
                pass
        for m in (last + 1, 10**155 if kind == "bell" else 10**309):
            with pytest.raises(ValueError, match=f"^m is too large for float {kind} constants, "
                                                 f"got an integer of {m.bit_length()} bits$"):
                make(m)


def test_a_numpy_m_has_the_constants_of_its_int():
    # the constants come from int(m): an int64 m past ~3.04e9 wrapped in m * m, and its Bell
    # bound with it
    for kind in ("bell", "steering"):
        got, want = WitnessSpec(kind, np.int64(4 * 10**9)), WitnessSpec(kind, 4 * 10**9)
        assert (got.bound, got.alpha, got.beta, got.sine) == (
            want.bound, want.alpha, want.beta, want.sine) and got.bound == reference_bound(want)


def test_optimal_angles_layout():
    spec = bell_spec(3)
    angles = optimal_angles(spec)
    np.testing.assert_allclose(angles.alice, [0.0, math.pi / 6, math.pi / 3], atol=1e-15)
    np.testing.assert_allclose(
        angles.bob, [math.pi / 2 - math.pi / 6, math.pi / 2, math.pi / 2 + math.pi / 6],
        atol=1e-15,
    )
    steer = optimal_angles(steering_spec(4))
    np.testing.assert_allclose(
        np.asarray(steer.alice) + np.asarray(steer.bob), math.pi / 2, atol=1e-15
    )


def test_optimal_angles_bit_identical_to_array_construction():
    for m in [*range(2, 300), 1000, 10**5]:
        for spec in (bell_spec(m), steering_spec(m)):
            alice, bob = array_optimal_angles(spec)
            got = optimal_angles(spec)
            assert got.alice == tuple(alice) and got.bob == tuple(bob), spec


def test_evaluate_against_operator_oracle():
    rng = np.random.default_rng(4)
    for _ in range(3):
        n = int(rng.integers(1, 8))
        p = float(rng.uniform(0, 1))
        delta = float(rng.uniform(0, 4))
        Delta = float(rng.uniform(0, 0.6))
        corr = Correlator(StateSpec(n, p), CoarseningParams(delta=delta, Delta=Delta))
        for m in (2, 3):
            alice = rng.uniform(0, math.pi, m)
            bob = rng.uniform(0, math.pi, m)
            angles = AngleAssignment(alice=alice, bob=bob)
            exact = np.array(
                [[operator_oracle(a, b, n, p, delta, Delta) for b in bob] for a in alice]
            )
            bell = float(np.sum(bell_coefficients(m) * exact))
            steer = abs(float(np.trace(exact))) / math.sqrt(m)
            assert evaluate(bell_spec(m), angles, corr) == pytest.approx(bell, abs=1e-12)
            assert evaluate(steering_spec(m), angles, corr) == pytest.approx(steer, abs=1e-12)
