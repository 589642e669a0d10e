"""Two-sided discrete Gaussian kernel: an oracle for ``fuzzycorr.kernel``.

The package reads the two masses it needs, w_n and a_n, from a one-sided
sum (``kernel_masses``).  This oracle keeps the whole normalized weight
array over the offsets k = -K..K and the kernel average of the sign step,
so the operator-level and paper-formula oracles build every correlator
from their own kernel.  Under it w_n is the weight at offset n and
a_n = (zeta_mean(kernel, n) - zeta_mean(kernel, -n)) / 2.
"""

import decimal
import functools
import math
import operator
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

# Kernel support half-width in units of max(delta, 1), as in the package.
TRUNCATION_SIGMAS = 8.0


@dataclass(frozen=True)
class DiscreteKernel:
    """Normalized discrete Gaussian: ``weights[k + support_halfwidth]`` is the mass at offset k."""

    delta: float
    support_halfwidth: int
    weights: np.ndarray

    @property
    def offsets(self):
        """Integer offsets -K..K matching ``weights``."""
        k = self.support_halfwidth
        return np.arange(-k, k + 1)


def make_discrete_kernel(delta):
    """The kernel exp(-k^2 / 2 delta^2) on k = -K..K, K = ceil(8 max(delta, 1)), normalized.

    delta = 0, and any delta so small that every off-centre weight
    underflows, is the point mass at offset zero.
    """
    if not 0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and non-negative, got {delta!r}")
    half = int(math.ceil(TRUNCATION_SIGMAS * max(delta, 1.0)))
    k = np.arange(-half, half + 1)
    if delta**2 == 0 or math.exp(-0.5 / delta**2) == 0:
        weights = np.zeros(2 * half + 1)
        weights[half] = 1.0
    else:
        raw = np.exp(-(k.astype(float) ** 2) / (2.0 * delta**2))
        raw = 0.5 * (raw + raw[::-1])
        weights = raw / raw.sum()
    return DiscreteKernel(delta=float(delta), support_halfwidth=half, weights=weights)


def zeta_mean(kernel, n):
    """Kernel average of the sign step, sum_k weights[k] * zeta(n - k).

    zeta(x) = +1 for x > 0 and -1 for x <= 0: the boundary label belongs to
    the minus branch.
    """
    signs = np.where(n - kernel.offsets > 0, 1.0, -1.0)
    return float(np.dot(kernel.weights, signs))


def correlator_constants(n, p, delta, Delta):
    """(c0, V) of E(a, b) = c0 - V cos 2(a + b) from the two-sided kernel's sign sums."""
    kernel = make_discrete_kernel(delta)
    s_plus, s_minus = zeta_mean(kernel, n), zeta_mean(kernel, -n)
    c0 = (0.5 * (s_plus + s_minus)) ** 2
    V = p * (0.5 * (s_plus - s_minus)) ** 2 * math.exp(-4.0 * Delta**2)
    return c0, V


def decimal_kernel_masses(delta, n_max, digits=40):
    """[(w_n, a_n) for n = 1..n_max] of the truncated kernel, as ``digits``-digit Decimals.

    The kernel of ``make_discrete_kernel``, exp(-k^2 / 2 delta^2) on k = -K..K,
    each weight from the standard library's ``Decimal.exp``: w_n is the mass
    at offset n (0 past K) and a_n the mass of |k| < n plus w_n.
    """
    half = int(math.ceil(TRUNCATION_SIGMAS * max(delta, 1.0)))
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        scale = -1 / (2 * Decimal(delta) ** 2)
        g = [(scale * (k * k)).exp() for k in range(half + 1)]
        norm = g[0] + 2 * sum(g[1:])
        masses, inner = [], g[0]  # inner: the weight of |k| < n
        for n in range(1, n_max + 1):
            w = g[n] if n <= half else Decimal(0)
            masses.append((w / norm, (inner + w) / norm))
            inner += 2 * w
    return masses


def one_pass_kernel_masses(n, delta):
    """(w_n, a_n) of ``kernel_masses`` below its Euler-Maclaurin width, summed in one pass.

    g_k = exp(c (k * k)), c = -1 / 2 delta^2, for k = 1, 2, ... up to K (below delta = 2) or
    min(n, K), each added to one running total with plain float +; the inner sum is that total
    as it stood just before g_n.  So a split of the sum at k = n must keep these bits.
    """
    if delta * delta == 0 or math.exp(-0.5 / (delta * delta)) == 0:
        return 0.0, 1.0
    r = 1.0 / delta
    half = math.ceil(TRUNCATION_SIGMAS * max(delta, 1.0))
    c = -0.5 * (r * r)
    inner = total = g_n = 0.0
    for k in range(1, (half if delta < 2.0 else min(n, half)) + 1):
        g = math.exp(c * (k * k))
        if k == n:
            inner, g_n = total, g
        total += g
    if n > half:
        inner = total
    Z = 1.0 + 2.0 * total if delta < 2.0 else math.sqrt(2.0 * math.pi) * delta
    w_n = g_n / Z
    return w_n, (1.0 + 2.0 * inner) / Z + w_n


def summed_kernel_masses(n, delta):
    """(w_n, a_n) of ``kernel_masses`` below its Euler-Maclaurin width, summed as a list.

    Every g_k = exp(c k^2), c = -1 / 2 delta^2, k = 0..K (below delta = 2) or
    0..min(n, K), goes into a list, and each sum adds its slice left to right
    with plain float +: the bits ``sum()`` gave before Python 3.12, whose
    compensated float sum rounds differently.
    """
    if delta * delta == 0 or math.exp(-0.5 / (delta * delta)) == 0:
        return 0.0, 1.0
    r = 1.0 / delta
    half = math.ceil(TRUNCATION_SIGMAS * max(delta, 1.0))
    c = -0.5 * (r * r)
    g = [math.exp(c * (k * k)) for k in range((half if delta < 2.0 else min(n, half)) + 1)]
    Z = math.sqrt(2.0 * math.pi) * delta
    if delta < 2.0:
        Z = 1.0 + 2.0 * functools.reduce(operator.add, g[1:], 0.0)
    w_n = g[n] / Z if n <= half else 0.0
    return w_n, (1.0 + 2.0 * functools.reduce(operator.add, g[1:n], 0.0)) / Z + w_n
