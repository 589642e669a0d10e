"""Closed-form oracle for the m = 2 resolution-coarsening transitions (Table 1).

Independent of the package.  On the branch subspace {|l_n>, |l_-n>} the
fuzzy observable F(l) = sum_k w_k zeta(l - k) (zeta(0) = -1) is
-w_n I + a_n Z, with w_n the kernel mass at k = n and
a_n = P(k < n) - P(k > n).  Measuring at angle t turns Z into
cos 2t Z + sin 2t X; for rho = p |Psi><Psi| + (1 - p) I/4 with
Psi = (|01> + |10>)/sqrt(2), <ZZ> = -p, <XX> = p and every other Pauli
expectation vanishes, so at Delta = 0

    E(a, b) = c0 - V cos 2(a + b),   c0 = w_n^2,   V = p a_n^2.

The c0 term is angle-independent, so the m = 2 optima are the sharp-limit
ones: CHSH 2 c0 + 2 sqrt(2) V (bound 2) and steering sqrt(2) (c0 + V)
(bound 1).  w_n and a_n come from a direct sum over 10^4 kernel terms on
each side by :func:`gaussian_weights`, the suite's one naive kernel.
"""

import math

import numpy as np
from scipy.optimize import brentq

HALFWIDTH = 10_000
XTOL = 1e-12

# kind -> (optimized witness value as a function of (c0, V), classical bound)
OPTIMA = {
    "bell": (lambda c0, V: 2.0 * c0 + 2.0 * math.sqrt(2.0) * V, 2.0),
    "steering": (lambda c0, V: math.sqrt(2.0) * (c0 + V), 1.0),
}


def gaussian_weights(delta_sq):
    """(k, w): exp(-k^2 / 2 delta^2) normalized over |k| <= HALFWIDTH; a point mass at 0."""
    k = np.arange(-HALFWIDTH, HALFWIDTH + 1)
    if delta_sq == 0:
        w = np.where(k == 0, 1.0, 0.0)
    else:
        w = np.exp(-(k.astype(float) ** 2) / (2.0 * delta_sq))
        w /= w.sum()
    return k, w


def kernel_masses(n, delta_sq):
    """(w_n, a_n) of exp(-k^2 / 2 delta^2), normalized over |k| <= HALFWIDTH."""
    k, w = gaussian_weights(delta_sq)
    return float(w[k == n][0]), float(w[k < n].sum() - w[k > n].sum())


def invariants(n, p, delta_sq):
    """(c0, V) of the Delta = 0 correlator at resolution variance delta_sq."""
    w_n, a_n = kernel_masses(n, delta_sq)
    return w_n**2, p * a_n**2


def correlator(a, b, c0, V):
    return c0 - V * math.cos(2.0 * (a + b))


def critical_delta_sq(kind, n, p):
    """Root in delta^2 of optimum(c0, V) = bound, by brentq over [0, 4 n^2]."""
    optimum, bound = OPTIMA[kind]
    return brentq(
        lambda d2: optimum(*invariants(n, p, d2)) - bound, 0.0, 4.0 * n**2, xtol=XTOL
    )
