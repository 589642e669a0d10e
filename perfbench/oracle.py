"""Closed-form reference for every result the benchmark checks.

Built from the model alone, without importing the program: a discrete
Gaussian of its own, the two invariants of the fuzzy correlator and the
exact optima of the witnesses.  With w_n the kernel mass at label n and
a_n = P(k < n) - P(k > n) = P(-n < k <= n), the correlator is

    E(a, b) = c0 - V cos 2(a + b),   c0 = w_n^2,   V = p a_n^2 exp(-4 Delta^2).

So the optimized Bell value is m c0 + V B*_m and the optimized steering
value is sqrt(m) (c0 + V).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

# Optimum of sum_ij c_ij cos 2(a_i + b_j) over all angles (Tsirelson value
# for m = 2); only the settings counts the workloads use are listed.
BELL_OPTIMUM = {2: 2.0 * math.sqrt(2.0), 3: 6.0}


def bell_signs(m):
    """+1 where i + j <= m + 1 (1-based), else -1."""
    i = np.arange(1, m + 1)
    return np.where(i[:, None] + i[None, :] <= m + 1, 1.0, -1.0)


def classical_bound(kind, m):
    return float((m * m + 1) // 2) if kind == "bell" else 1.0


def kernel_masses(n, delta):
    """(w_n, a_n) of the discrete Gaussian exp(-k^2 / 2 delta^2), normalized over all k.

    The support is cut at 12 delta, where the tail mass is below 1e-30.
    """
    if delta == 0:
        return 0.0, 1.0
    half = int(math.ceil(12.0 * max(delta, 1.0)))
    g = np.exp(-np.arange(half + 1, dtype=float) ** 2 / (2.0 * delta * delta))
    total = g[0] + 2.0 * g[1:].sum()
    w_n = g[n] / total if n <= half else 0.0
    inner = g[0] + 2.0 * g[1:min(n, half + 1)].sum() + w_n * total
    return float(w_n), float(inner / total)


def invariants(n, p, delta, Delta):
    """(c0, V) for macroscopicity n, visibility p and coarsening (delta, Delta)."""
    w_n, a_n = kernel_masses(n, delta)
    return w_n * w_n, p * a_n * a_n * math.exp(-4.0 * Delta * Delta)


def witness_value(kind, m, c0, V, alice, bob):
    """Witness value at the given angles (one per setting per party)."""
    alice = np.asarray(alice, dtype=float)
    bob = np.asarray(bob, dtype=float)
    if kind == "bell":
        corr = c0 - V * np.cos(2.0 * (alice[:, None] + bob[None, :]))
        return float(np.sum(bell_signs(m) * corr))
    diag = c0 - V * np.cos(2.0 * (alice + bob))
    return abs(float(diag.sum())) / math.sqrt(m)


def optimum(kind, m, c0, V):
    """Witness value maximized over all angles."""
    if kind == "bell":
        return m * c0 + V * BELL_OPTIMUM[m]
    return math.sqrt(m) * (c0 + V)


def margin(kind, m, n, p, delta, Delta):
    """Optimized witness minus its classical bound; positive means nonclassical."""
    c0, V = invariants(n, p, delta, Delta)
    return optimum(kind, m, c0, V) - classical_bound(kind, m)


class Search:
    """One transition search: the swept variable, its bracket and the margin along it.

    ``axis`` is "delta_sq", "Delta_sq" or "p"; ``fixed`` holds the values of
    the two quantities not swept, among n, p, delta and Delta.
    """

    def __init__(self, kind, m, n, axis, fixed):
        self.kind, self.m, self.n, self.axis, self.fixed = kind, m, n, axis, dict(fixed)
        # Default brackets of the searches, oriented so the margin falls
        # from positive at `lo` to negative at `hi`.
        self.lo, self.hi = {
            "delta_sq": (0.0, 4.0 * n * n),
            "Delta_sq": (0.0, 1.0),
            "p": (1.0, 0.0),
        }[axis]

    def margin_at(self, x):
        v = dict(self.fixed)
        if self.axis == "delta_sq":
            v["delta"] = math.sqrt(x)
        elif self.axis == "Delta_sq":
            v["Delta"] = math.sqrt(x)
        else:
            v["p"] = x
        return margin(self.kind, self.m, self.n, v["p"], v["delta"], v["Delta"])

    def has_interior_root(self, clearance):
        """True when the margin is at least `clearance` at `lo` and at most -`clearance` at `hi`."""
        return self.margin_at(self.lo) >= clearance and self.margin_at(self.hi) <= -clearance

    def root(self):
        a, b = sorted((self.lo, self.hi))
        return brentq(self.margin_at, a, b, xtol=1e-12, rtol=4 * np.finfo(float).eps)
