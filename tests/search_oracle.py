"""The transition searches as they stood with one Correlator per probe.

Each probe builds a StateSpec or CoarseningParams and a Correlator, and
reads the witness optimum from it with ``optimum``; inputs are validated
by those constructors at the first probe.  All four searches bisect: the
bracket growth and the certificates are frozen copies of the steps that
``fuzzycorr.transition`` keeps for delta^2, which narrows the same bracket
by a chord loop instead of halving it; the errors and
``TransitionPoint`` are the package's own, so results compare with ``==``.
``tests/test_search_oracle.py`` holds the package's delta^2, boundary,
Delta^2 and p roots within this bisection's width of these, and every
other field and error equal.
"""

import functools
import math
from dataclasses import replace

from fuzzycorr import (
    CoarseningParams,
    Correlator,
    NoTransitionAtHi,
    NoViolationAtLo,
    NoViolationAtPureState,
    StateSpec,
    TransitionError,
    TransitionPoint,
    optimum,
)

RELATIVE_RESOLUTION = 2.0**-48


def _bisect_margin(margin, lo, hi, tol, lo_error, hi_error):
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if margin(lo) <= 0:
        raise lo_error
    if margin(hi) > 0:
        raise hi_error
    a, b = lo, hi
    while b - a > (width := max(tol, RELATIVE_RESOLUTION * b)):
        mid = 0.5 * a + 0.5 * b
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


def _search(spec, n, corr_at, hi, tol, lo_error, coords):
    corr_at = functools.cache(corr_at)

    def margin(x):
        corr = corr_at(x)
        return optimum(spec, corr.c0, corr.V) - spec.bound

    while hi < math.inf and margin(hi) > 0 and corr_at(hi).V > 0:
        hi *= 2.0
    where = "V = 0" if hi < math.inf else "the largest float edge"
    hi_error = NoTransitionAtHi(f"still violating at {where} for {spec.kind} m={spec.m}, n={n}")
    if hi == math.inf:
        raise hi_error
    root, cert_lo, cert_hi = _bisect_margin(margin, 0.0, hi, tol, lo_error, hi_error)
    return TransitionPoint(*coords(root), witness=spec, n=n,
                           achieved_value=optimum(spec, corr_at(root).c0, corr_at(root).V),
                           margin_lo=cert_lo, margin_hi=cert_hi)


def find_critical_delta(spec, state, Delta_fixed=0.0, tol=1e-3):
    try:
        hi = 4.0 * state.n**2
    except OverflowError:
        hi = math.inf
    return _search(
        spec, state.n,
        lambda delta_sq: Correlator(state, CoarseningParams(math.sqrt(delta_sq), Delta_fixed)),
        hi, tol,
        NoViolationAtLo(f"no violation at delta^2 = 0.0 for {spec.kind} m={spec.m}, "
                        f"n={state.n}, p={state.p}"),
        lambda root: (root, Delta_fixed * Delta_fixed, state.p),
    )


def find_critical_Delta(spec, state, delta_fixed=0.0, tol=1e-3):
    return _search(
        spec, state.n,
        lambda Delta_sq: Correlator(state, CoarseningParams(delta_fixed, math.sqrt(Delta_sq))),
        1.0, tol,
        NoViolationAtLo(f"no violation at Delta^2 = 0.0 for {spec.kind} m={spec.m}, "
                        f"n={state.n}, p={state.p}"),
        lambda root: (delta_fixed * delta_fixed, root, state.p),
    )


def find_critical_visibility(spec, n, params=CoarseningParams(), tol=1e-3):
    return _search(
        spec, n,
        lambda q: Correlator(StateSpec(n=n, p=1.0 - q), params),
        1.0, tol,
        NoViolationAtPureState(f"no violation at p = 1 for {spec.kind} m={spec.m}, n={n}"),
        lambda root: (params.delta * params.delta, params.Delta * params.Delta, 1.0 - root),
    )


def trace_boundary(spec, state, Delta_sq_grid, tol=1e-3):
    grid = list(Delta_sq_grid)
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("Delta_sq_grid must be sorted ascending")
    points = []
    for Delta_sq in grid:
        CoarseningParams(Delta=Delta_sq)  # names a negative grid value before math.sqrt fails
        try:
            pt = find_critical_delta(spec, state, Delta_fixed=math.sqrt(Delta_sq), tol=tol)
        except NoViolationAtLo:
            break
        points.append(replace(pt, Delta_sq=Delta_sq))
    return tuple(points)
