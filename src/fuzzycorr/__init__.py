"""Coarse-grained bipartite correlations and quantum-to-classical transition search.

Numerical toolkit for fuzzy (coarse-grained) correlation functions of
macroscopic entangled states, symmetric multi-settings Bell witnesses and
linear steering witnesses, their optima at fixed closed-form angles, and
location of the coarsening / visibility values where the optimized witness
drops to its classical bound.
"""

from .correlation import CoarseningParams, Correlator, StateSpec
from .transition import (
    NoTransitionAtHi,
    NoViolationAtLo,
    NoViolationAtPureState,
    TransitionError,
    TransitionPoint,
    find_critical_Delta,
    find_critical_delta,
    find_critical_visibility,
    macroscopic_limit,
    trace_boundary,
)
from .witness import (
    AngleAssignment,
    V_c,
    WitnessSpec,
    bell_spec,
    evaluate,
    optimal_angles,
    optimum,
    steering_spec,
)

__version__ = "0.1.0"
