"""Gaussian resolution-coarsening kernel.

The dichotomization boundary of the outcome labels is smeared by a discrete
Gaussian of standard deviation ``delta`` (in outcome-label units).  The
model needs only two masses of that kernel, read from one one-sided sum of
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
    k >= 0 and Z = g_0 + 2 sum_{k>=1} g_k, w_n = g_n / Z (0 beyond K) and
    a_n = 1 - 2 sum_{k>n} g_k / Z - w_n.  delta = 0 is the point mass at
    offset zero (sharp readout), which gives (0, 1).
    """
    # Below delta ~ 0.026 every weight but the centre one underflows to 0, and
    # below ~1.5e-162 delta**2 itself does: either way the point mass, exactly.
    if delta**2 == 0 or math.exp(-0.5 / delta**2) == 0:
        return 0.0, 1.0
    half = int(math.ceil(TRUNCATION_SIGMAS * max(delta, 1.0)))
    g = np.exp(-np.arange(half + 1.0) ** 2 / (2.0 * delta**2))
    Z = g[0] + 2.0 * g[1:].sum()
    w_n = g[n] / Z if n <= half else 0.0
    return float(w_n), float(1.0 - 2.0 * g[n + 1:].sum() / Z - w_n)
