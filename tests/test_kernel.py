"""Kernel tests: the package's kernel masses, the two-sided test kernel and the paper's quadrature.

``kernel_masses`` is checked against direct sums over 10^4 offsets, the
two-sided oracle kernel (``kernel_oracle``), 40-digit decimal sums of the
truncated kernel and constants computed once at 50-digit precision; the
oracle kernel itself against the direct sums.
"""

import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fuzzycorr import CoarseningParams, Correlator, StateSpec
from fuzzycorr.kernel import EULER_MACLAURIN_DELTA, TRUNCATION_SIGMAS, kernel_masses
from kernel_oracle import (correlator_constants, decimal_kernel_masses, make_discrete_kernel,
                           one_pass_kernel_masses, summed_kernel_masses, zeta_mean)
from paper_oracle import reference_nodes
from table1_oracle import gaussian_weights


def naive_zeta_mean(n, delta):
    k, w = gaussian_weights(delta**2)
    return float(np.sum(w * np.where(n - k > 0, 1.0, -1.0)))


# ---------------------------------------------------------------- zeta
# Under the point-mass kernel zeta_mean(kernel, x) is the sign step zeta(x).

def test_zeta_positive():
    assert zeta_mean(make_discrete_kernel(0.0), 1) == 1


def test_zeta_zero_is_minus_one():
    assert zeta_mean(make_discrete_kernel(0.0), 0) == -1


def test_zeta_negative():
    assert zeta_mean(make_discrete_kernel(0.0), -3) == -1


# ------------------------------------------------- make_discrete_kernel

def test_point_mass_at_delta_zero():
    kernel = make_discrete_kernel(0.0)
    K = kernel.support_halfwidth
    assert kernel.weights[K] == 1.0
    assert kernel.weights.sum() == 1.0
    assert all(kernel.weights[k + K] == 0.0 for k in kernel.offsets if k != 0)


def test_weights_normalized():
    kernel = make_discrete_kernel(2.0)
    assert kernel.weights.sum() == pytest.approx(1.0, abs=1e-14)


def test_weight_ratio_normalization_free():
    # w[1]/w[0] = exp(-1/(2 delta^2)) regardless of normalization
    kernel = make_discrete_kernel(2.0)
    K = kernel.support_halfwidth
    assert kernel.weights[K + 1] / kernel.weights[K] == pytest.approx(
        math.exp(-1.0 / 8.0), abs=1e-14
    )


def test_tiny_delta_is_point_mass():
    # delta**2 underflows to 0 below about 1.5e-162, where k^2 / 2 delta^2 is 0/0 at k = 0
    for delta in (0.02, 1e-150, 1e-160, 2.4e-200, 5e-324):
        kernel = make_discrete_kernel(delta)
        np.testing.assert_array_equal(kernel.weights, make_discrete_kernel(0.0).weights)
        assert kernel_masses(5, delta) == (0.0, 1.0)
    # within 10^4 ulps of the edge g_1 = exp(-1 / 2 delta^2) underflows, and the point mass is
    # taken exactly where exp(-0.5 / (delta * delta)) == 0; elsewhere w_1 = g_1, a_1 = 1 + g_1
    delta, taken = 0.0259040720592474, set()
    for _ in range(10**4):
        delta = math.nextafter(delta, 0.0)
    for _ in range(2 * 10**4 + 1):
        point = math.exp(-0.5 / (delta * delta)) == 0
        taken.add(point)
        g_1 = math.exp(-0.5 * ((1.0 / delta) * (1.0 / delta)))
        assert kernel_masses(1, delta) == ((0.0, 1.0) if point else (g_1, 1.0)), delta.hex()
        delta = math.nextafter(delta, 1.0)
    assert taken == {True, False}


def test_rejects_negative_delta():
    with pytest.raises(ValueError):
        make_discrete_kernel(-0.5)


def test_weights_are_probability_distribution():
    for delta in (0.0, 0.3, 1.0, 2.5, 7.0, 30.0):
        kernel = make_discrete_kernel(delta)
        assert np.all(kernel.weights >= 0.0)
        assert abs(kernel.weights.sum() - 1.0) < 1e-14


def test_weights_symmetric():
    for delta in (0.7, 2.0, 5.0):
        kernel = make_discrete_kernel(delta)
        np.testing.assert_array_equal(kernel.weights, kernel.weights[::-1])


# ---------------------------------------------------- distinguishability
# The smeared readout tells the branch labels +n and -n apart with
# amplitude a_n = (zeta_mean(n) - zeta_mean(-n)) / 2; its square is the
# pure-state correlator visibility V at Delta = 0.

def distinguishability(n, delta):
    return kernel_masses(n, delta)[1] ** 2


def test_distinguishability_sharp():
    assert distinguishability(5, 0.0) == 1.0


def test_distinguishability_washes_out():
    assert distinguishability(5, 200.0) < 0.05


def test_distinguishability_against_direct_summation():
    value = distinguishability(5, 2.0)
    assert 0.9 < value < 1.0
    naive = 0.5 * (naive_zeta_mean(5, 2.0) - naive_zeta_mean(-5, 2.0))
    assert value == pytest.approx(naive**2, abs=1e-12)


def test_zeta_mean_against_direct_summation():
    kernel = make_discrete_kernel(3.0)
    for n in (-5, -1, 0, 2, 7):
        assert zeta_mean(kernel, n) == pytest.approx(naive_zeta_mean(n, 3.0), abs=1e-12)


def test_distinguishability_monotone_in_delta():
    deltas = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0]
    values = [distinguishability(5, d) for d in deltas]
    for lo, hi in zip(values[1:], values):
        assert lo <= hi + 1e-12


def test_distinguishability_monotone_in_n():
    values = [distinguishability(n, 2.5) for n in range(1, 12)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


# --------------------------------------------------------- kernel_masses

def test_kernel_masses_against_direct_summation():
    k, w = gaussian_weights(3.0**2)
    for n in (1, 2, 7, 30):
        w_n, a_n = kernel_masses(n, 3.0)
        assert w_n == pytest.approx(w[k == n][0], abs=1e-15)
        assert a_n == pytest.approx(0.5 * (naive_zeta_mean(n, 3.0) - naive_zeta_mean(-n, 3.0)),
                                    abs=1e-12)


def test_kernel_masses_of_a_very_wide_kernel():
    # 1e150 labels wide: the central terms are all 1, so w_5 = 1/Z and a_5 = 10/Z
    u = 1.0 / (math.sqrt(2.0 * math.pi) * 1e150)
    w_n, a_n = kernel_masses(5, 1e150)
    assert w_n == pytest.approx(u, rel=1e-14, abs=0)
    assert a_n == pytest.approx(10.0 * u, rel=1e-14, abs=0)


# Both sides of the switch from the summed norm Z to sqrt(2 pi) delta, of
# the switch from the explicit sum to the Euler-Maclaurin form, and a grid
# of widths around each n.
_EDGE_DELTAS = (math.nextafter(2.0, 0.0), 2.0,
                math.nextafter(EULER_MACLAURIN_DELTA, 0.0), EULER_MACLAURIN_DELTA)


@pytest.mark.parametrize("n", [1, 2, 5, 50, 500, 5000])
def test_kernel_masses_across_the_sum_edge(n):
    for delta in (*_EDGE_DELTAS, *(n * np.geomspace(0.05, 5.0, 41))):
        w_n, a_n = kernel_masses(n, delta)
        c0, V = correlator_constants(n, 1.0, delta, 0.0)
        assert abs(w_n * w_n - c0) <= 1e-12
        assert abs(a_n * a_n - V) <= 1e-12


@pytest.mark.parametrize("delta", _EDGE_DELTAS)
def test_kernel_masses_past_the_support(delta):
    # K = 16 or 96 on both sides of each edge: past it w_n = 0 and a_n is 1 to the tail mass
    half = math.ceil(TRUNCATION_SIGMAS * delta)
    for n in (half, half + 1, 10 * half):
        w_n, a_n = kernel_masses(n, delta)
        c0, V = correlator_constants(n, 1.0, delta, 0.0)
        assert (w_n == 0.0) == (n > half)
        assert abs(w_n * w_n - c0) <= 1e-12
        assert abs(a_n * a_n - V) <= 1e-12


@pytest.mark.parametrize("delta", [0.03, 0.1, 0.3, 0.5, 1, 1.5, 1.99, 2, 3, 6,
                                   11.99, 12, 13, 24, 48, 100])
def test_kernel_masses_against_40_digit_sums(delta):
    # both norm rules and both sides of the Euler-Maclaurin switch, n past K;
    # what is left is the 8-sigma tail beyond K, 1 - erf(8 / sqrt 2) ~ 1.2e-15
    # (the form through g^(5) alone was 5.4e-14 off at delta = 12)
    masses = decimal_kernel_masses(delta, math.floor(9 * max(delta, 1)) + 1)
    for n, (w, a) in enumerate(masses, start=1):
        w_n, a_n = kernel_masses(n, delta)
        assert abs(Decimal(w_n) - w) <= Decimal("2e-15"), (n, w_n, w)
        assert abs(Decimal(a_n) - a) <= Decimal("2e-15"), (n, a_n, a)


@pytest.mark.parametrize("delta", [0.5, 3.0, 20.0, 1e300])
def test_kernel_masses_of_an_integer_beyond_float_range(delta):
    # n = 10^400 lies past K at any finite delta, and is never made a float
    assert kernel_masses(10**400, delta) == (0.0, pytest.approx(1.0, abs=1e-14))


def test_kernel_masses_where_eight_delta_overflows():
    # K = ceil(8 delta) has no float above delta ~ 2.2e307, and Z = sqrt(2 pi) delta
    # none above ~7.2e307: w_n is 0 and a_n = 2n / (sqrt(2 pi) delta), no OverflowError
    delta = 1e308
    w_n, a_n = kernel_masses(5, delta)
    assert w_n == 0.0
    assert a_n == pytest.approx(10.0 / math.sqrt(2.0 * math.pi) / delta, rel=1e-13)


# Widths in (0, 2), 2 itself, [2, 12) and the last float below 12: every
# summed regime, each norm rule and both sides of each switch.
_SUMMED_DELTAS = (0.03, 0.1, 0.3, 0.5, 0.9, 1.0, 1.3, 1.7, math.nextafter(2.0, 0.0), 2.0, 2.5,
                  3.0, 4.7, 6.0, 8.0, 10.0, 11.5, math.nextafter(EULER_MACLAURIN_DELTA, 0.0))


@pytest.mark.parametrize("delta", _SUMMED_DELTAS)
def test_kernel_masses_have_the_bits_of_a_left_to_right_sum(delta):
    # sum() of floats is compensated from Python 3.12 on, so the package adds its
    # terms itself: the same bits on every Python, and the goldens with them
    half = math.ceil(TRUNCATION_SIGMAS * max(delta, 1.0))
    for n in (1, 2, 3, 5, 8, 16, 17, 97, 98, 5000, 10**30, half, half + 1):
        assert kernel_masses(n, delta) == summed_kernel_masses(n, delta), (n, delta)


def test_kernel_masses_have_the_bits_of_a_one_pass_sum():
    # the sums split at k = n add the terms in the order of one running total, and read
    # their squares k^2 from a table: every n = 1..120 (below, at and past K <= 96) at seeded
    # widths in (0, 12), just below and above 2 and just below 12, compared by float.hex
    rng = np.random.default_rng(36)
    below_two, below_twelve = math.nextafter(2.0, 0.0), math.nextafter(EULER_MACLAURIN_DELTA, 0.0)
    deltas = [*rng.uniform(0.0, 2.0, 20), *rng.uniform(0.0, EULER_MACLAURIN_DELTA, 40),
              *rng.uniform(11.0, EULER_MACLAURIN_DELTA, 8), 1.0, below_two, 2.0,
              math.nextafter(2.0, 3.0), below_twelve, math.nextafter(below_twelve, 0.0)]
    for delta in map(float, deltas):
        half = math.ceil(TRUNCATION_SIGMAS * max(delta, 1.0))
        assert half < 120
        for n in range(1, 121):
            got, want = kernel_masses(n, delta), one_pass_kernel_masses(n, delta)
            assert [x.hex() for x in got] == [x.hex() for x in want], (n, delta, half)


def test_kernel_masses_memory_does_not_grow_with_n():
    tracemalloc.start()
    try:
        kernel_masses(10**7, 1e7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@st.composite
def _n_delta(draw):
    n = draw(st.integers(1, 10_000))
    return n, draw(st.floats(0.0, 5.0 * n) | st.floats(0.0, 1.0))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n_delta=_n_delta(), p=st.floats(0.0, 1.0), Delta=st.floats(0.0, 1.0))
def test_correlator_constants_against_two_sided_kernel(n_delta, p, Delta):
    n, delta = n_delta
    corr = Correlator(StateSpec(n, p), CoarseningParams(delta, Delta))
    c0, V = correlator_constants(n, p, delta, Delta)
    assert abs(corr.c0 - c0) <= 1e-12
    assert abs(corr.V - V) <= 1e-12


# w_5^2 at delta = 1 and 0.5 from the kernel's Gaussian sums at 50 digits
# (mpmath); the sign-sum difference ((s_+ + s_-)/2)^2 loses them to cancellation.
C0_EXACT = {1.0: 2.2103348918386560e-12, 0.5: 2.3015867409649808e-44}


@pytest.mark.parametrize("delta", sorted(C0_EXACT))
def test_c0_to_full_precision(delta):
    c0 = Correlator(StateSpec(5), CoarseningParams(delta, 0.0)).c0
    assert c0 == pytest.approx(C0_EXACT[delta], rel=1e-14, abs=0)


# ------------------------------------------- reference_nodes (paper oracle)

def test_delta_zero_is_identity_average():
    nodes = reference_nodes(0.0, center=0.3)
    assert nodes == [(0.3, 1.0)]


def test_node_weights_sum_to_one():
    nodes = reference_nodes(0.4, center=0.0)
    assert sum(w for _, w in nodes) == pytest.approx(1.0, abs=1e-12)


def test_cos2_attenuation():
    # E[cos 2(phi)] around 0 with std Delta is exp(-2 Delta^2)
    nodes = reference_nodes(0.5, center=0.0)
    value = sum(w * math.cos(2.0 * phi) for phi, w in nodes)
    assert value == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_attenuation_against_adaptive_quadrature():
    Delta, center = 0.5, 0.2
    nodes = reference_nodes(Delta, center=center)
    value = sum(w * math.cos(2.0 * phi) for phi, w in nodes)
    density = lambda phi: math.exp(-((phi - center) ** 2) / (2 * Delta**2)) / (
        Delta * math.sqrt(2 * math.pi)
    )
    expected, _ = quad(lambda phi: density(phi) * math.cos(2 * phi),
                       center - 10 * Delta, center + 10 * Delta, limit=200)
    assert value == pytest.approx(expected, abs=1e-10)


def test_gaussian_characteristic_function():
    # E[cos(a X)] = exp(-a^2 Delta^2 / 2) cos(a center) for a = 1, 2, 4
    for a in (1, 2, 4):
        for Delta in (0.2, 0.6, 1.0):
            for center in (0.0, 0.7):
                nodes = reference_nodes(Delta, center=center)
                value = sum(w * math.cos(a * phi) for phi, w in nodes)
                expected = math.exp(-(a**2) * Delta**2 / 2.0) * math.cos(a * center)
                assert value == pytest.approx(expected, abs=1e-10)


def test_rejects_negative_Delta():
    with pytest.raises(ValueError, match="Delta"):
        CoarseningParams(0.0, -0.1)
