"""Gaussian resolution-coarsening kernel.

The dichotomization boundary of the outcome labels is smeared by a discrete
Gaussian of standard deviation ``delta`` (in outcome-label units).  This
module builds that kernel and the kernel average of the sign step that
dichotomizes the labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DiscreteKernel", "TRUNCATION_SIGMAS", "make_discrete_kernel", "zeta_mean"]

# Kernel support half-width in units of max(delta, 1); the Gaussian tail
# beyond 8 standard deviations holds about 1e-15 of the total mass.
TRUNCATION_SIGMAS = 8.0


@dataclass(frozen=True)
class DiscreteKernel:
    """Normalized discrete Gaussian over integer offsets k = -K..K.

    ``weights[k + support_halfwidth]`` is the probability attached to
    offset k.  Construction via :func:`make_discrete_kernel` guarantees
    non-negativity, exact symmetry and unit sum.
    """

    delta: float
    support_halfwidth: int
    weights: np.ndarray

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.support_halfwidth < 1:
            raise ValueError("support_halfwidth must be a positive integer")
        if len(self.weights) != 2 * self.support_halfwidth + 1:
            raise ValueError("weights length must be 2*support_halfwidth + 1")

    @property
    def offsets(self):
        """Integer offsets -K..K matching ``weights``."""
        k = self.support_halfwidth
        return np.arange(-k, k + 1)


def make_discrete_kernel(delta):
    """Build the resolution-coarsening kernel for standard deviation ``delta``.

    The support is truncated at K = ceil(TRUNCATION_SIGMAS * max(delta, 1))
    and the truncated weights are renormalized to sum exactly to one, so
    every finite delta >= 0 yields a proper probability distribution.
    delta = 0 is the point mass at offset zero (sharp readout).
    """
    if not 0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and non-negative, got {delta!r}")
    half = int(math.ceil(TRUNCATION_SIGMAS * max(delta, 1.0)))
    k = np.arange(-half, half + 1)
    # Below delta ~ 0.026 every weight but the centre one underflows to 0, and
    # below ~1.5e-162 delta**2 itself does: either way the point mass, exactly.
    if delta**2 == 0 or math.exp(-0.5 / delta**2) == 0:
        weights = np.zeros(2 * half + 1)
        weights[half] = 1.0
    else:
        # Symmetrize explicitly: exp() of a symmetric argument is already
        # symmetric, but averaging with the mirror guards against any
        # platform-dependent rounding of k**2 / delta**2.
        raw = np.exp(-(k.astype(float) ** 2) / (2.0 * delta**2))
        raw = 0.5 * (raw + raw[::-1])
        weights = raw / raw.sum()
    return DiscreteKernel(delta=float(delta), support_halfwidth=half, weights=weights)


def zeta_mean(kernel, n):
    """Kernel average of the sign step, sum_k weights[k] * zeta(n - k).

    zeta(x) = +1 for x > 0 and -1 for x <= 0: the boundary label belongs to
    the minus branch.  This single number carries the whole effect of
    resolution coarsening on a dichotomic readout centered at label n; its
    square is the probability of telling the two branch states apart.
    """
    signs = np.where(n - kernel.offsets > 0, 1.0, -1.0)
    return float(np.dot(kernel.weights, signs))
