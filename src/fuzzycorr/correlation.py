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

The input rules of the package live here, each stated once: :func:`is_count` for n and m,
FLOAT_MAX for every real (an exact comparison with it refuses nan, inf and an int past
float range alike), and :func:`check_n`, :func:`check_p`, :func:`check_coarsening` and
:func:`check_tol`, which the constructors, the searches and the command line all call.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from .kernel import kernel_masses

__all__ = ["StateSpec", "CoarseningParams", "Correlator"]

FLOAT_MAX = sys.float_info.max


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
    non-negative, 0 <= x <= FLOAT_MAX, so an int past float range is refused.
    """

    delta: float = 0.0
    Delta: float = 0.0

    def __init__(self, delta=0.0, Delta=0.0):
        check_coarsening(delta, Delta)
        fields = self.__dict__  # each set once, past the frozen __setattr__
        fields["delta"], fields["Delta"] = delta, Delta


def is_count(value, least):
    """Whether value is an integer, not a bool, of at least ``least``: the rule of n and m."""
    # an exact int skips the numbers.Integral check, which takes about 1 us
    return (type(value) is int or type(value) is not bool and isinstance(
        value, numbers.Integral)) and value >= least


def quoted(value):
    """repr(value), or "an integer of N bits" for an int past the interpreter's digit limit."""
    try:
        return repr(value)
    except ValueError:  # the limit (4300 digits by default); a container holding one raises
        if not isinstance(value, int):
            raise
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


def check_n(n):
    """Raise ValueError unless n is a positive integer, as StateSpec requires."""
    if not is_count(n, 1):
        raise ValueError("n must be a positive integer")


def check_p(p):
    """Raise ValueError unless the visibility p lies in [0, 1], as StateSpec requires."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")


def check_coarsening(delta=0.0, Delta=0.0):
    """Raise ValueError naming the first of delta, Delta that is not finite and non-negative."""
    if not (0 <= delta <= FLOAT_MAX and 0 <= Delta <= FLOAT_MAX):
        name, value = ("Delta", Delta) if 0 <= delta <= FLOAT_MAX else ("delta", delta)
        raise ValueError(f"{name} must be finite and non-negative, got {quoted(value)}")


def check_tol(tol):
    """Raise ValueError unless the search tolerance tol is finite and positive.

    0 < tol <= FLOAT_MAX, so an int past float range is refused, as nan and inf are.
    """
    if not 0 < tol <= FLOAT_MAX:
        raise ValueError(f"tol must be finite and positive, got {quoted(tol)}")


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
