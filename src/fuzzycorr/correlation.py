"""Fuzzy bipartite correlation functions for macroscopic entangled states.

The shared state is the two-branch superposition indexed by the
macroscopicity ``n`` (optionally mixed with white noise of visibility ``p``).
Each party measures a dichotomized observable whose readout is smeared by a
discrete Gaussian of width ``delta`` and whose measurement angle jitters
with a Gaussian of width ``Delta``.

Every regime of the model -- resolution coarsening, reference coarsening,
both, with or without noise -- has the closed form
E(a, b) = c0 - V cos 2(a + b).  :func:`invariants` states c0 and V once,
from the two kernel masses; :class:`Correlator` reads them at
construction, after which a correlator call is one cosine.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .kernel import kernel_masses

__all__ = ["StateSpec", "CoarseningParams", "Correlator", "invariants"]


@dataclass(frozen=True, init=False)
class StateSpec:
    """Macroscopicity index n and visibility p of the shared state.

    p = 1 is the pure two-branch superposition; p < 1 mixes in white noise
    on the two-branch subspace of each party.
    """

    n: int
    p: float = 1.0

    def __init__(self, n, p=1.0):
        check_n(n)
        check_p(p)
        fields = self.__dict__  # each set once, past the frozen __setattr__
        fields["n"], fields["p"] = n, p


@dataclass(frozen=True, init=False)
class CoarseningParams:
    """The coarsening pair (delta, Delta).

    delta smears the outcome-label dichotomization (label units); Delta
    jitters the measurement angle (radians).  Both must be finite and
    non-negative.
    """

    delta: float = 0.0
    Delta: float = 0.0

    def __init__(self, delta=0.0, Delta=0.0):
        check_coarsening(delta, Delta)
        fields = self.__dict__  # each set once, past the frozen __setattr__
        fields["delta"], fields["Delta"] = delta, Delta


def check_n(n):
    """Raise ValueError unless n is a positive integer, as StateSpec requires."""
    # an exact int skips the numbers.Integral check, which takes about 1 us
    if type(n) is not int and (type(n) is bool or not isinstance(n, numbers.Integral)) or n < 1:
        raise ValueError("n must be a positive integer")


def check_p(p):
    """Raise ValueError unless the visibility p lies in [0, 1], as StateSpec requires."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")


def check_coarsening(delta=0.0, Delta=0.0):
    """Raise ValueError naming the first of delta, Delta that is not finite and non-negative."""
    if not (0 <= delta < math.inf and 0 <= Delta < math.inf):
        name, value = ("Delta", Delta) if 0 <= delta < math.inf else ("delta", delta)
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


def invariants(masses, p, Delta):
    """(c0, V) = (w_n^2, p a_n^2 exp(-4 Delta^2)), (w_n, a_n) = :func:`~.kernel.kernel_masses`."""
    w_n, a_n = masses
    # exp(-2 Delta^2) is the angle-jitter attenuation of cos/sin(2 phi) per party
    return w_n**2, p * a_n**2 * math.exp(-4.0 * (Delta * Delta))


class Correlator:
    """The correlator E(a, b) = c0 - V cos 2(a + b) of a (state, coarsening) pair.

    c0 and V come from :func:`invariants`, once, at construction; they are
    all an instance stores.
    """

    def __init__(self, state, params):
        self.c0, self.V = invariants(kernel_masses(state.n, params.delta), state.p, params.Delta)

    def __call__(self, theta_i, theta_j):
        return self.c0 - self.V * math.cos(2.0 * (theta_i + theta_j))
