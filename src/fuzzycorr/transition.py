"""Quantum-to-classical transition search.

A transition point is the coarsening (or visibility) at which the
angle-optimized witness value falls to its classical bound.  All searches
bisect on the squared parameter (variance) or on q = 1 - p over [0, hi]:
hi starts at 4 n^2 (delta^2) or 1 (Delta^2, q) and doubles while the
witness still violates there and V > 0.  Each probe reads the witness
optimum from the pair (c0, V) of :func:`~fuzzycorr.correlation.invariants`,
with the kernel masses computed once where delta is fixed; the optimal
angles do not depend on the probed parameter.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from .correlation import CoarseningParams, StateSpec, invariants
from .kernel import kernel_masses
from .witness import WitnessSpec, optimum

__all__ = [
    "TransitionPoint",
    "TransitionError",
    "NoViolationAtLo",
    "NoTransitionAtHi",
    "NoViolationAtPureState",
    "find_critical_delta",
    "find_critical_Delta",
    "find_critical_visibility",
    "trace_boundary",
]

DEFAULT_TOL = 1e-3

# Relative floor of the bracket width: at least 16 float spacings, so a
# bracket near x always holds a float strictly inside it, however large x is.
RELATIVE_RESOLUTION = 2.0**-48


class TransitionError(RuntimeError):
    """Base class for transition-search failures."""


class NoViolationAtLo(TransitionError):
    """The optimized witness does not exceed its bound at zero coarsening."""


class NoTransitionAtHi(TransitionError):
    """The optimized witness still exceeds its bound where V has fallen to 0."""


class NoViolationAtPureState(TransitionError):
    """The optimized witness does not exceed its bound even at p = 1."""


@dataclass(frozen=True)
class TransitionPoint:
    """A (delta^2, Delta^2, p) triple on the quantum-to-classical boundary.

    ``margin_lo`` / ``margin_hi`` certify the final bracket: the optimized
    margin is positive at (parameter - w) and not positive at (parameter + w),
    both clamped to the search bracket, where w = max(tol, ~2^-48 parameter).
    """

    delta_sq: float
    Delta_sq: float
    p: float
    witness: WitnessSpec
    n: int
    achieved_value: float
    margin_lo: float
    margin_hi: float


def _bisect_margin(margin, lo, hi, tol, lo_error, hi_error):
    """Bisection on a scalar parameter given margin(lo) > 0 >= margin(hi).

    Halves [a, b] while b - a > w = max(tol, RELATIVE_RESOLUTION * b), so a
    tol below the float spacing is raised to that floor.  Returns (root,
    margin at root - w, margin at root + w), the two certificate probes
    clamped to [lo, hi].  Raises TransitionError when they do not bracket a
    sign change, or when both clamp to the ends (w >= half the bracket).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if margin(lo) <= 0:
        raise lo_error
    if margin(hi) > 0:
        raise hi_error
    a, b = lo, hi
    while b - a > (width := max(tol, RELATIVE_RESOLUTION * b)):
        mid = 0.5 * a + 0.5 * b  # equals 0.5 * (a + b) in floats, but cannot overflow
        if margin(mid) > 0:
            a = mid
        else:
            b = mid
    root = 0.5 * a + 0.5 * b
    cert_lo = margin(max(root - width, lo))
    cert_hi = margin(min(root + width, hi))
    if not cert_lo > 0 >= cert_hi or (root - width <= lo and root + width >= hi):
        raise TransitionError(f"uncertified bracket at {root} in [{lo}, {hi}]: margin "
                              f"{cert_lo} at -{width}, {cert_hi} at +{width}")
    return root, cert_lo, cert_hi


def _search(spec, n, invariants_at, hi, tol, lo_error, coords):
    """The TransitionPoint at the root of optimum(spec, *invariants_at(x)) - bound in [0, hi].

    V falls to 0 as x grows, and the optimum with it to its c0 term, so the
    doubling of hi ends; a witness that still violates at V = 0, or at an
    hi that has left float range, raises NoTransitionAtHi.  Each x is probed
    once; ``coords(root)`` gives the point's (delta^2, Delta^2, p).
    """
    invariants_at = functools.cache(invariants_at)

    def margin(x):
        return optimum(spec, *invariants_at(x)) - spec.bound

    while hi < math.inf and margin(hi) > 0 and invariants_at(hi)[1] > 0:  # V > 0
        hi *= 2.0
    where = "V = 0" if hi < math.inf else "the largest float edge"
    hi_error = NoTransitionAtHi(f"still violating at {where} for {spec.kind} m={spec.m}, n={n}")
    if hi == math.inf:
        raise hi_error
    root, cert_lo, cert_hi = _bisect_margin(margin, 0.0, hi, tol, lo_error, hi_error)
    return TransitionPoint(*coords(root), witness=spec, n=n,
                           achieved_value=optimum(spec, *invariants_at(root)),
                           margin_lo=cert_lo, margin_hi=cert_hi)


def find_critical_delta(spec, state, Delta_fixed=0.0, tol=DEFAULT_TOL):
    """Critical resolution variance delta^2 at fixed Delta for (witness, state).

    Raises NoViolationAtLo if the state is classical already at delta = 0.
    """
    CoarseningParams(Delta=Delta_fixed)  # validated once, at entry
    try:
        hi = 4.0 * state.n**2
    except OverflowError:  # 4 n^2 lies beyond float range
        hi = math.inf
    return _search(
        spec, state.n,
        lambda x: invariants(kernel_masses(state.n, math.sqrt(x)), state.p, Delta_fixed),
        hi, tol,
        NoViolationAtLo(f"no violation at delta^2 = 0.0 for {spec.kind} m={spec.m}, "
                        f"n={state.n}, p={state.p}"),
        lambda root: (root, Delta_fixed * Delta_fixed, state.p),
    )


def find_critical_Delta(spec, state, delta_fixed=0.0, tol=DEFAULT_TOL):
    """Critical reference variance Delta^2 at fixed delta; mirror of find_critical_delta.

    Raises NoTransitionAtHi when the c0 term alone exceeds the bound.
    """
    masses = kernel_masses(state.n, CoarseningParams(delta=delta_fixed).delta)  # validated once
    return _search(
        spec, state.n,
        lambda Delta_sq: invariants(masses, state.p, math.sqrt(Delta_sq)),
        1.0, tol,
        NoViolationAtLo(f"no violation at Delta^2 = 0.0 for {spec.kind} m={spec.m}, "
                        f"n={state.n}, p={state.p}"),
        lambda root: (delta_fixed * delta_fixed, root, state.p),
    )


def find_critical_visibility(spec, n, params=CoarseningParams(), tol=DEFAULT_TOL):
    """Critical visibility p in [0, 1] at fixed coarsening.

    Raises NoViolationAtPureState when even the pure state fails to violate.
    """
    # The margin is increasing in p, so bisect on q = 1 - p, which puts the
    # violating edge (p = 1) at the lower end of the bracket.  V = 0 at
    # q = 1, so the upper edge never grows.
    masses = kernel_masses(StateSpec(n).n, params.delta)  # n validated once, at entry
    return _search(
        spec, n,
        lambda q: invariants(masses, 1.0 - q, params.Delta),
        1.0, tol,
        NoViolationAtPureState(f"no violation at p = 1 for {spec.kind} m={spec.m}, n={n}"),
        lambda root: (params.delta * params.delta, params.Delta * params.Delta, 1.0 - root),
    )


def trace_boundary(spec, state, Delta_sq_grid, tol=DEFAULT_TOL):
    """Transition points delta_c^2(Delta^2), a tuple, over an ascending Delta^2 grid.

    The trace stops where the curve reaches the delta^2 = 0 axis.
    """
    grid = list(Delta_sq_grid)
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("Delta_sq_grid must be sorted ascending")
    points = []
    for Delta_sq in grid:
        try:
            pt = find_critical_delta(spec, state, Delta_fixed=math.sqrt(Delta_sq), tol=tol)
        except NoViolationAtLo:
            break
        points.append(replace(pt, Delta_sq=Delta_sq))  # the grid value, not sqrt(Delta_sq)^2
    return tuple(points)
