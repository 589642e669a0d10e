"""Fuzzy bipartite correlation functions for macroscopic entangled states.

The shared state is the two-branch superposition indexed by the
macroscopicity ``n`` (optionally mixed with white noise of visibility ``p``).
Each party measures a dichotomized observable whose readout is smeared by a
discrete Gaussian of width ``delta`` and whose measurement angle jitters
with a Gaussian of width ``Delta``.

Four regimes are exposed as plain functions:

* :func:`corr_resolution`        -- delta only, pure state
* :func:`corr_reference`         -- Delta only (n-independent)
* :func:`corr_full`              -- both coarsenings, pure state
* :func:`corr_werner_resolution` / :func:`corr_werner_full` -- noisy state

:class:`Correlator` reduces the same quantities to the two scalars of the
closed form E(a, b) = c0 - V cos 2(a + b): the kernel sums are evaluated once
at construction, after which a correlator call is one cosine.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .kernel import ReferenceKernel, make_discrete_kernel, reference_nodes, zeta_mean

__all__ = [
    "StateSpec",
    "CoarseningParams",
    "q_func",
    "r_func",
    "corr_resolution",
    "corr_reference",
    "corr_reference_quadrature",
    "corr_full",
    "corr_werner_resolution",
    "corr_werner_full",
    "Correlator",
]


@dataclass(frozen=True)
class StateSpec:
    """Macroscopicity index n and visibility p of the shared state.

    p = 1 is the pure two-branch superposition; p < 1 mixes in white noise
    on the two-branch subspace of each party.
    """

    n: int
    p: float = 1.0

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise ValueError("n must be a positive integer")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")


@dataclass(frozen=True)
class CoarseningParams:
    """The coarsening pair (delta, Delta) plus kernel truncation.

    delta smears the outcome-label dichotomization (label units); Delta
    jitters the measurement angle (radians).  ``sigmas`` truncates the
    discrete kernel.
    """

    delta: float = 0.0
    Delta: float = 0.0
    sigmas: float = 8.0

    def __post_init__(self):
        if self.delta < 0 or self.Delta < 0:
            raise ValueError("delta and Delta must be non-negative")

    def discrete_kernel(self):
        return make_discrete_kernel(self.delta, self.sigmas)

    def reference_kernel(self):
        return ReferenceKernel(self.Delta)


def q_func(n, phi, kernel):
    """Diagonal readout average sum_k w_k [cos^2(phi) zeta(n-k) + sin^2(phi) zeta(-n-k)]."""
    k = kernel.offsets
    w = kernel.weights
    cos2 = math.cos(phi) ** 2
    sin2 = math.sin(phi) ** 2
    plus = np.where(n - k > 0, 1.0, -1.0)
    minus = np.where(-n - k > 0, 1.0, -1.0)
    return float(np.dot(w, cos2 * plus + sin2 * minus))


def r_func(n, phi, kernel):
    """Off-diagonal readout average sin(phi)cos(phi) sum_k w_k [zeta(n-k) - zeta(-n-k)]."""
    k = kernel.offsets
    w = kernel.weights
    plus = np.where(n - k > 0, 1.0, -1.0)
    minus = np.where(-n - k > 0, 1.0, -1.0)
    return math.sin(phi) * math.cos(phi) * float(np.dot(w, plus - minus))


def _node_averages(n, theta, kernel, ref):
    """Angle-jitter averages of Q(n,.), Q(-n,.), R(n,.) around theta."""
    qp = qm = r = 0.0
    for phi, w in reference_nodes(ref, theta):
        qp += w * q_func(n, phi, kernel)
        qm += w * q_func(-n, phi, kernel)
        r += w * r_func(n, phi, kernel)
    return qp, qm, r


def _werner_bracket(parts_i, parts_j, p):
    """p times the pure bracket plus (1-p)/4 times the white-noise bracket.

    The pure bracket is (1/2)[Q(n,ti)Q(-n,tj) + Q(-n,ti)Q(n,tj) + 2 R(n,ti)R(n,tj)],
    the white-noise bracket the four Q-products; each party's Q(+-n, .) and
    R(n, .) enter as ``parts_i`` / ``parts_j``.
    """
    (qp_i, qm_i, r_i), (qp_j, qm_j, r_j) = parts_i, parts_j
    pure = 0.5 * (qp_i * qm_j + qm_i * qp_j + 2.0 * r_i * r_j)
    noise = (qp_i + qm_i) * (qp_j + qm_j)
    return p * pure + 0.25 * (1.0 - p) * noise


def _require_pure(state, name):
    if state.p != 1.0:
        raise ValueError(f"{name} is defined for the pure state (p = 1)")


def corr_resolution(theta_i, theta_j, state, kernel):
    """Pure-state correlator under resolution coarsening only.

    The pure bracket of :func:`_werner_bracket`; at delta = 0 it reduces to
    -cos 2(ti + tj).
    """
    _require_pure(state, "corr_resolution")
    return corr_werner_resolution(theta_i, theta_j, state, kernel)


def corr_reference(theta_i, theta_j, Delta):
    """Correlator under reference coarsening only (independent of n).

    Closed form of the double Gaussian average of -cos 2(phi_i + phi_j):
    -exp(-4 Delta^2) cos 2(theta_i + theta_j).
    """
    if Delta < 0:
        raise ValueError("Delta must be non-negative")
    return -math.exp(-4.0 * Delta**2) * math.cos(2.0 * (theta_i + theta_j))


def corr_reference_quadrature(theta_i, theta_j, Delta, order=32):
    """Quadrature cross-check of :func:`corr_reference`.

    Evaluates the double Gaussian average of -cos 2(phi_i + phi_j) node by
    node instead of using the characteristic-function identity.
    """
    ref = ReferenceKernel(Delta, order)
    total = 0.0
    for phi_i, w_i in reference_nodes(ref, theta_i):
        for phi_j, w_j in reference_nodes(ref, theta_j):
            total += w_i * w_j * (-math.cos(2.0 * (phi_i + phi_j)))
    return total


def corr_full(theta_i, theta_j, state, params):
    """Pure-state correlator under both coarsenings.

    The double angle average factorizes per party: Q(+-n, .) and R(n, .)
    are averaged once per party and combined as in corr_resolution.
    Collapses to corr_resolution at Delta = 0 and to corr_reference at
    delta = 0.
    """
    _require_pure(state, "corr_full")
    return corr_werner_full(theta_i, theta_j, state, params)


def corr_werner_resolution(theta_i, theta_j, state, kernel):
    """Noisy-state correlator under resolution coarsening only.

    p times the pure bracket plus (1-p)/4 times the white-noise bracket
    (the four Q-products).  Equals corr_resolution at p = 1.
    """
    sharp = ReferenceKernel(0.0)
    parts_i = _node_averages(state.n, theta_i, kernel, sharp)
    parts_j = _node_averages(state.n, theta_j, kernel, sharp)
    return _werner_bracket(parts_i, parts_j, state.p)


def corr_werner_full(theta_i, theta_j, state, params):
    """Noisy-state correlator under both coarsenings.

    Angle-jitter average of the Werner bracket; both of its brackets
    factorize per party.  Consistent with corr_werner_resolution at
    Delta = 0 and corr_full at p = 1.
    """
    kernel = params.discrete_kernel()
    ref = params.reference_kernel()
    parts_i = _node_averages(state.n, theta_i, kernel, ref)
    parts_j = _node_averages(state.n, theta_j, kernel, ref)
    return _werner_bracket(parts_i, parts_j, state.p)


class Correlator:
    """Reusable pairwise-correlation handle closed over (state, coarsening).

    Every correlator of the model has the form E(a, b) = c0 - V cos 2(a + b).
    With s_+ and s_- the kernel sign sums at +n and -n, c0 = ((s_+ + s_-)/2)^2
    is the square of the kernel mass at label n, and
    V = p ((s_+ - s_-)/2)^2 exp(-4 Delta^2), where exp(-2 Delta^2) is the
    angle-jitter attenuation of cos/sin(2 phi) per party.  Both are computed
    once at construction; instances are immutable.
    """

    def __init__(self, state, params):
        self.state = state
        self.params = params
        kernel = params.discrete_kernel()
        s_plus = zeta_mean(kernel, state.n)
        s_minus = zeta_mean(kernel, -state.n)
        self.c0 = (0.5 * (s_plus + s_minus)) ** 2
        amp = 0.5 * (s_plus - s_minus)
        self.V = state.p * amp**2 * math.exp(-4.0 * params.Delta**2)

    def matrix(self, alice, bob):
        """All pairwise correlations: entry [i, j] = corr(alice[i], bob[j])."""
        alice = np.asarray(alice, dtype=float)
        bob = np.asarray(bob, dtype=float)
        return self.c0 - self.V * np.cos(2.0 * (alice[:, None] + bob[None, :]))

    def __call__(self, theta_i, theta_j):
        return float(self.matrix([theta_i], [theta_j])[0, 0])
