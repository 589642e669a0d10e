"""The paper's correlator formulas, node by node: an oracle for ``Correlator``.

Each party's readout enters through the kernel averages

    Q(n, phi) = sum_k w_k [cos^2(phi) zeta(n - k) + sin^2(phi) zeta(-n - k)],
    R(n, phi) = sin(phi) cos(phi) sum_k w_k [zeta(n - k) - zeta(-n - k)],

with zeta(x) = +1 for x > 0 and -1 for x <= 0.  The angle jitter averages
Q(+-n, .) and R(n, .) over a Gaussian of width Delta around each nominal
angle, and the noisy-state correlator is p times the pure bracket plus
(1 - p)/4 times the white-noise bracket.  Every regime of the paper is a
restriction of :func:`corr_werner_full`: resolution coarsening only
(Delta = 0, p = 1), reference coarsening only (delta = 0, p = 1), both
(p = 1), and their noisy forms.

The jitter average is a 32-node Gauss-Hermite rule.  It holds only for
Delta <~ 1.5: there the error of its cos 2 phi average is at the 1e-16
level, at Delta = 3 it is 2e-8 and at Delta = 4 it is 2e-3, far above the
exp(-2 Delta^2) it should give.  ``Correlator`` uses the closed form
exp(-2 Delta^2) and has no such limit.

The kernel weights come from the two-sided test kernel
(``kernel_oracle``, checked against direct sums in ``test_kernel.py``);
the sums, averages and brackets are written out here as the paper states
them.
"""

import math

import numpy as np

from kernel_oracle import make_discrete_kernel

QUADRATURE_ORDER = 32
_HERMITE_NODES, _HERMITE_WEIGHTS = np.polynomial.hermite.hermgauss(QUADRATURE_ORDER)


def reference_nodes(Delta, center):
    """(angle, weight) pairs whose weighted sum is the Gaussian average around ``center``.

    Gauss-Hermite with phi = center + sqrt(2) Delta t; the weights sum to
    one, and Delta = 0 collapses to the single node (center, 1).
    """
    if Delta == 0:
        return [(float(center), 1.0)]
    phis = center + math.sqrt(2.0) * Delta * _HERMITE_NODES
    return list(zip(phis.tolist(), (_HERMITE_WEIGHTS / math.sqrt(math.pi)).tolist()))


def _signs(n, kernel):
    k = kernel.offsets
    return np.where(n - k > 0, 1.0, -1.0), np.where(-n - k > 0, 1.0, -1.0)


def q_func(n, phi, kernel):
    """Diagonal readout average sum_k w_k [cos^2(phi) zeta(n-k) + sin^2(phi) zeta(-n-k)]."""
    plus, minus = _signs(n, kernel)
    return float(np.dot(kernel.weights, math.cos(phi) ** 2 * plus + math.sin(phi) ** 2 * minus))


def r_func(n, phi, kernel):
    """Off-diagonal readout average sin(phi)cos(phi) sum_k w_k [zeta(n-k) - zeta(-n-k)]."""
    plus, minus = _signs(n, kernel)
    return math.sin(phi) * math.cos(phi) * float(np.dot(kernel.weights, plus - minus))


def _node_averages(n, theta, kernel, Delta):
    """Angle-jitter averages of Q(n, .), Q(-n, .) and R(n, .) around theta."""
    qp = qm = r = 0.0
    for phi, w in reference_nodes(Delta, theta):
        qp += w * q_func(n, phi, kernel)
        qm += w * q_func(-n, phi, kernel)
        r += w * r_func(n, phi, kernel)
    return qp, qm, r


def corr_werner_full(theta_i, theta_j, state, params):
    """Noisy-state correlator under both coarsenings, the paper's most general form.

    The pure bracket (1/2)[Q(n,ti)Q(-n,tj) + Q(-n,ti)Q(n,tj) + 2 R(n,ti)R(n,tj)]
    and the white-noise bracket, the four Q-products, both factorize per
    party, so each party's Q(+-n, .) and R(n, .) are jitter-averaged once.
    """
    kernel = make_discrete_kernel(params.delta)
    qp_i, qm_i, r_i = _node_averages(state.n, theta_i, kernel, params.Delta)
    qp_j, qm_j, r_j = _node_averages(state.n, theta_j, kernel, params.Delta)
    pure = 0.5 * (qp_i * qm_j + qm_i * qp_j + 2.0 * r_i * r_j)
    noise = (qp_i + qm_i) * (qp_j + qm_j)
    return state.p * pure + 0.25 * (1.0 - state.p) * noise


def corr_reference_quadrature(theta_i, theta_j, Delta):
    """Double Gaussian average of the sharp correlator -cos 2(phi_i + phi_j) over the node pairs.

    One outer product of the two parties' node sets.  The closed form is
    -exp(-4 Delta^2) cos 2(theta_i + theta_j).
    """
    phi_i, w_i = np.array(reference_nodes(Delta, theta_i)).T
    phi_j, w_j = np.array(reference_nodes(Delta, theta_j)).T
    return float(w_i @ -np.cos(2.0 * np.add.outer(phi_i, phi_j)) @ w_j)
