"""Kernel module tests: sign step, discrete Gaussian, and the paper's angle-jitter quadrature."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fuzzycorr import CoarseningParams, make_discrete_kernel
from fuzzycorr.kernel import zeta_mean
from paper_oracle import reference_nodes


def naive_kernel_weights(delta, halfwidth=10_000):
    """Independent oracle: unnormalized Gaussian over a huge support."""
    k = np.arange(-halfwidth, halfwidth + 1)
    w = np.exp(-(k.astype(float) ** 2) / (2.0 * delta**2))
    return k, w / w.sum()


def naive_zeta_mean(n, delta):
    k, w = naive_kernel_weights(delta)
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
# The probability of telling the branch states |l_{+n}>, |l_{-n}> apart is
# zeta_mean(kernel, n) ** 2.

def distinguishability(n, kernel):
    return zeta_mean(kernel, n) ** 2


def test_distinguishability_sharp():
    assert distinguishability(5, make_discrete_kernel(0.0)) == 1.0


def test_distinguishability_washes_out():
    assert distinguishability(5, make_discrete_kernel(200.0)) < 0.05


def test_distinguishability_against_direct_summation():
    kernel = make_discrete_kernel(2.0)
    value = distinguishability(5, kernel)
    assert 0.9 < value < 1.0
    assert value == pytest.approx(naive_zeta_mean(5, 2.0) ** 2, abs=1e-12)


def test_zeta_mean_against_direct_summation():
    kernel = make_discrete_kernel(3.0)
    for n in (-5, -1, 0, 2, 7):
        assert zeta_mean(kernel, n) == pytest.approx(naive_zeta_mean(n, 3.0), abs=1e-12)


def test_distinguishability_monotone_in_delta():
    deltas = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0]
    values = [distinguishability(5, make_discrete_kernel(d)) for d in deltas]
    for lo, hi in zip(values[1:], values):
        assert lo <= hi + 1e-12


def test_distinguishability_monotone_in_n():
    kernel = make_discrete_kernel(2.5)
    values = [distinguishability(n, kernel) for n in range(1, 12)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


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
