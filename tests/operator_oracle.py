"""Exact operator-level oracle for the fuzzy correlator.

Shared by the correlation tests and the acceptance suite.  The kernel
weights come from the two-sided test kernel (``kernel_oracle``), not from
the package; the correlator itself is built from explicit operators, not
from the kernel masses the implementation uses.
"""

import math

import numpy as np

from kernel_oracle import make_discrete_kernel


def operator_oracle(ti, tj, n, p, delta, Delta, order=40):
    """Exact model calculation: explicit operators in a truncated level space.

    Builds the dichotomized fuzzy observable as a diagonal operator over
    integer levels, rotates the two-level branch subspace by the measurement
    angle, averages the rotation angle over the Gaussian jitter, and traces
    against the noisy two-party density matrix on the branch subspace.
    """
    kernel = make_discrete_kernel(delta)
    K = kernel.support_halfwidth
    levels = np.arange(-(K + n + 2), K + n + 3)
    fdiag = np.array(
        [
            sum(kernel.weights[k + K] * (1.0 if l - k > 0 else -1.0) for k in range(-K, K + 1))
            for l in levels
        ]
    )
    i_plus = int(np.where(levels == n)[0][0])
    i_minus = int(np.where(levels == -n)[0][0])

    def block(phi):
        c, s = math.cos(phi), math.sin(phi)
        up = np.zeros(len(levels))
        up[i_plus], up[i_minus] = c, s
        um = np.zeros(len(levels))
        um[i_plus], um[i_minus] = s, -c
        return np.array(
            [
                [up @ (fdiag * up), up @ (fdiag * um)],
                [um @ (fdiag * up), um @ (fdiag * um)],
            ]
        )

    if Delta == 0:
        nodes = [(0.0, 1.0)]
    else:
        t, w = np.polynomial.hermite.hermgauss(order)
        nodes = list(zip(math.sqrt(2.0) * Delta * t, w / math.sqrt(math.pi)))
    A = sum(w * block(ti + u) for u, w in nodes)
    B = sum(w * block(tj + u) for u, w in nodes)
    psi = np.zeros((2, 2))
    psi[0, 1] = psi[1, 0] = 1.0 / math.sqrt(2.0)
    rho = p * np.einsum("ac,bd->acbd", psi, psi).reshape(4, 4) + (1 - p) / 4 * np.eye(4)
    return float(np.trace(rho @ np.kron(A, B)))
