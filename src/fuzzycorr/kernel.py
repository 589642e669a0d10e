"""Gaussian resolution-coarsening kernel.

The dichotomization boundary of the outcome labels is smeared by a discrete
Gaussian of standard deviation ``delta`` (in outcome-label units).  The
model needs only two masses of that kernel, read from the central terms of
the Gaussian: the mass w_n at the branch label n, and the amplitude
a_n = 1 - 2 P(k > n) - w_n with which the smeared sign step still tells
the labels +n and -n apart.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["TRUNCATION_SIGMAS", "kernel_masses"]

# Kernel support half-width in units of max(delta, 1); the Gaussian tail
# beyond 8 standard deviations holds about 1e-15 of the total mass.
TRUNCATION_SIGMAS = 8.0


def kernel_masses(n, delta):
    """(w_n, a_n) of the kernel exp(-k^2 / 2 delta^2), k = -K..K, normalized.

    K = ceil(TRUNCATION_SIGMAS * max(delta, 1)).  With g_k the Gaussian at
    k >= 0 and Z its sum over k = -K..K, w_n = g_n / Z (0 beyond K) and
    a_n = (g_0 + 2 sum_{k=1}^{n-1} g_k) / Z + w_n = 1 - 2 P(k > n) - w_n,
    summed over k <= min(n, K) only.  From delta = 1 on, Z is the Poisson
    sum sqrt(2 pi) delta (1 + 2 exp(-2 pi^2 delta^2)) (DLMF 1.8(iv)), whose
    next term is below 1e-34, so time and memory are O(min(n, delta)).
    delta = 0 is the point mass at offset zero (sharp readout): (0, 1).
    """
    # Below delta ~ 0.026 every weight but the centre one underflows to 0, and
    # below ~1.5e-162 delta * delta itself does: either way the point mass, exactly.
    if delta * delta == 0 or math.exp(-0.5 / (delta * delta)) == 0:
        return 0.0, 1.0
    half = math.ceil(TRUNCATION_SIGMAS * max(delta, 1.0))
    k = np.arange((half if delta < 1.0 else min(n, half)) + 1.0)
    g = np.exp(-k**2 / (2.0 * (delta * delta)))
    if delta < 1.0:
        Z = g[0] + 2.0 * g[1:].sum()
    else:
        Z = math.sqrt(2 * math.pi) * delta * (1 + 2 * math.exp(-2 * math.pi**2 * (delta * delta)))
    w_n = g[n] / Z if n <= half else 0.0
    return float(w_n), float((g[0] + 2.0 * g[1:n].sum()) / Z + w_n)
