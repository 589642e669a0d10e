"""Gaussian resolution-coarsening kernel.

The dichotomization boundary of the outcome labels is smeared by a discrete
Gaussian of standard deviation ``delta`` (in outcome-label units).  The
model needs only two masses of that kernel, read from the central terms of
the Gaussian: the mass w_n at the branch label n, and the amplitude
a_n = 1 - 2 P(k > n) - w_n with which the smeared sign step still tells
the labels +n and -n apart.  Both cost O(1) scalar operations at any n and
delta: at most 97 Gaussian terms below delta = 12, closed forms from there
on.
"""

from __future__ import annotations

import math

__all__ = ["TRUNCATION_SIGMAS", "EULER_MACLAURIN_DELTA", "kernel_masses"]

# Kernel support half-width in units of max(delta, 1); the Gaussian tail
# beyond 8 standard deviations holds about 1e-15 of the total mass.
TRUNCATION_SIGMAS = 8.0

# From this width on the central sum is its Euler-Maclaurin form through
# g^(7); the first omitted term, B_10/10! g^(9)(n), moves a_n by under 8e-17.
EULER_MACLAURIN_DELTA = 12.0

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)

_SQUARES = tuple(float(k * k) for k in range(  # exact k^2, k = 1..K of the widest summed kernel
    1, math.ceil(TRUNCATION_SIGMAS * EULER_MACLAURIN_DELTA) + 1))


def kernel_masses(n, delta):
    """(w_n, a_n) of the kernel exp(-k^2 / 2 delta^2), k = -K..K, normalized.

    K = ceil(TRUNCATION_SIGMAS * max(delta, 1)).  With g_k the Gaussian at
    k >= 0 and Z its sum over k = -K..K, w_n = g_n / Z (0 beyond K) and
    a_n = (g_0 + 2 sum_{k=1}^{n-1} g_k) / Z + w_n = 1 - 2 P(k > n) - w_n,
    summed over k <= min(n, K) only.  Z is that sum below delta = 2 (K <= 16)
    and sqrt(2 pi) delta from there on, where the Poisson sum's image terms
    (DLMF 1.8(iv)) are below 1e-34.  Below EULER_MACLAURIN_DELTA the g_k are
    summed (at most 97 terms) over increasing k with plain float +, left to
    right, in two loops split at k = n: the order sum() used before Python 3.12,
    whose compensated float sum rounds differently, so the masses have the same
    bits on every Python.  From there on, with u = n / delta, r = 1 / delta,
    a_n Z = 2 int_0^n g + 2 sum_{j<=4} B_2j / (2j)! g^(2j-1)(n) (DLMF 2.10(i)),
    where g^(k)(n) = (-r)^k He_k(u) g_n: the end terms (g_0 + g_n) / 2 of
    the sum cancel exactly, so a_n = erf(u / sqrt 2) - O(r^2 g_n) has no
    cancellation at small u.  delta = 0 is the point mass at offset zero
    (sharp readout): (0, 1).
    """
    # Below delta ~ 0.026 every weight but the centre one underflows to 0 (from 0.03 on it
    # is above 5e-242), and below ~1.5e-162 delta * delta does: either way the point mass.
    if delta * delta == 0 or delta < 0.03 and math.exp(-0.5 / (delta * delta)) == 0:
        return 0.0, 1.0
    r = 1.0 / delta
    if delta >= EULER_MACLAURIN_DELTA:
        # Past K (compared exactly, so a huge n is never made a float) the
        # masses are those at u = 8, up to the 1e-15 tail beyond K.
        past = n - 1 >= TRUNCATION_SIGMAS * delta
        u = TRUNCATION_SIGMAS if past else n * r
        u2, r2 = u * u, r * r
        g_n = math.exp(-0.5 * u2)
        # He_1/12 - r^2 (He_3/720 - r^2 (He_5/30240 - r^2 He_7/1209600)), He_k Hermite polynomials
        series = u * (1.0 / 12.0 - r2 * ((u2 - 3.0) / 720.0 - r2 * (((u2 - 10.0) * u2 + 15.0)
                      / 30240.0 - r2 * (((u2 - 21.0) * u2 + 105.0) * u2 - 105.0) / 1209600.0)))
        a_n = math.erf(u * _SQRT_HALF) - 2.0 / _SQRT_2PI * r2 * g_n * series
        return (0.0 if past else g_n / (_SQRT_2PI * delta)), a_n
    half = math.ceil(TRUNCATION_SIGMAS * (1.0 if 1.0 > delta else delta))  # max(delta, 1.0)
    c, exp = -0.5 * (r * r), math.exp
    inner = g_n = 0.0  # plain float +, k = 1, 2, ...: inner = g_1 + ... + g_{n-1}
    for k2 in _SQUARES[:n - 1 if n <= half else half]:
        inner += exp(c * k2)
    total = inner  # below delta = 2, summed on from inner through g_K
    if n <= half:
        g_n = exp(c * _SQUARES[n - 1])
        if delta < 2.0:
            total += g_n
            for k2 in _SQUARES[n:half]:
                total += exp(c * k2)
    Z = 1.0 + 2.0 * total if delta < 2.0 else _SQRT_2PI * delta
    w_n = g_n / Z
    return w_n, (1.0 + 2.0 * inner) / Z + w_n
