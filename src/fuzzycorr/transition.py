"""Quantum-to-classical transition search.

A transition point is the coarsening (or visibility) at which the
angle-optimized witness value falls to its classical bound: where V falls
to :func:`~fuzzycorr.witness.V_c` of c0.  With delta fixed, c0 and a_n are
fixed too, so the Delta^2 and p roots are closed forms; delta^2 moves both,
so one chord loop narrows its bracket, seeded by :func:`macroscopic_limit`.
Each probe reads the optimum from :func:`~fuzzycorr.correlation.invariants`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .correlation import CoarseningParams, check_coarsening, check_n, check_p, check_tol, invariants
from .kernel import kernel_masses
from .witness import V_c, WitnessSpec, optimum

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
    "macroscopic_limit",
]

DEFAULT_TOL = 1e-3

# Relative floor of the bracket width: at least 16 float spacings, so a
# bracket near x always holds a float strictly inside it, however large x is.
RELATIVE_RESOLUTION = 2.0**-48

# Reach of the seeded delta^2 bracket past w, in (1 + (12 kappa + 3) / x*^2)^2 / n^2: the
# asymptote's next term held 0.0053 of them for n = 2..30, m = 2..400 (README)
SEED_SPREAD = 0.006

# the constants of macroscopic_limit: Winitzki's 2 / (pi a), a = 0.147, and erf's 2 / sqrt(pi)
_WINITZKI = 2.0 / (math.pi * 0.147)
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_SQRT_2 = math.sqrt(2.0)
_SQRT_8PI = math.sqrt(8.0 * math.pi)


class TransitionError(RuntimeError):
    """Base class for transition-search failures."""


class NoViolationAtLo(TransitionError):
    """The optimized witness does not exceed its bound at zero coarsening."""


class NoTransitionAtHi(TransitionError):
    """The optimized witness still exceeds its bound where V has fallen to 0."""


class NoViolationAtPureState(TransitionError):
    """The optimized witness does not exceed its bound even at p = 1."""


@dataclass(frozen=True, init=False)
class TransitionPoint:
    """A (delta^2, Delta^2, p) triple on the quantum-to-classical boundary.

    ``margin_lo`` / ``margin_hi`` certify the root x: the optimized margin is positive at lo,
    not positive at hi, lo < x < hi, hi - lo <= 2w, w = max(tol, 2^-48 x): x -+ w/2 for delta^2,
    x -+ w for Delta^2 and p, clamped to the delta^2 bracket, Delta^2 >= 0 or q = 1 - p in [0, 1].
    """

    delta_sq: float
    Delta_sq: float
    p: float
    witness: WitnessSpec
    n: int
    achieved_value: float
    margin_lo: float
    margin_hi: float

    def __init__(self, delta_sq, Delta_sq, p, witness, n, achieved_value, margin_lo, margin_hi):
        # one write past the frozen __setattr__, where eight object.__setattr__ calls cost ~1 us
        self.__dict__.update(delta_sq=delta_sq, Delta_sq=Delta_sq, p=p, witness=witness, n=n,
                             achieved_value=achieved_value, margin_lo=margin_lo,
                             margin_hi=margin_hi)


def _root(margin, a, fa, b, fb, tol):
    """Root of margin on [a, b], checked by the caller: fa = margin(a) > 0 >= margin(b) = fb.

    Probes chords, w = max(tol, 2^-48 chord): the first to round onto an end probes w/2 inside it
    (Dekker, 1969), later ones the midpoint.  Once the next lies within w/2 of the last, x, the root
    is x, moved, if [a, b] is no wider than w, to the nearest point whose -+ w/2 holds [a, b].
    """
    x, moved, nudged = math.inf, 0, False  # moved: +1 after a moved, -1 after b
    while True:
        probe = a + (b - a) * (fa / (fa - fb))
        width = max(tol, RELATIVE_RESOLUTION * probe)
        if a < probe < b or nudged or b - a <= width:
            if not a < probe < b:  # halve [a, b], as w/2 steps crawl where the sign is float noise
                probe = 0.5 * a + 0.5 * b  # 0.5 * (a + b) in floats, but cannot overflow
            if abs(probe - x) < 0.5 * width:
                return x if b - a > width else min(max(x, b - 0.5 * width), a + 0.5 * width)
            x = probe
        else:  # the Dekker step, not a root estimate: x stays
            probe, nudged = a + 0.5 * width if probe <= a else b - 0.5 * width, True
        # Illinois (Dowell & Jarratt, BIT 11, 1971): an end that stayed twice has its margin halved
        if (f := margin(probe)) > 0:
            a, fa, fb, moved = probe, f, fb * 0.5 if moved > 0 else fb, 1
        else:
            b, fb, fa, moved = probe, f, fa * 0.5 if moved < 0 else fa, -1


def macroscopic_limit(spec, p=1.0, Delta=0.0):
    """(x*^2, kappa) of delta_c^2(n) = x*^2 n^2 + kappa + O(1/n^2), the macroscopic limit.

    c0 -> 0 and a_n -> erf(u / sqrt 2), u = n / delta, so x*^2 = 1 / (2 erfinv(sqrt r)^2),
    r = V_c(spec, 0) / (p exp(-4 Delta^2)); kappa = rho g / (sqrt(8 pi) u* sqrt r) - 1/6, with
    g = exp(-u*^2 / 2) and rho = alpha / (beta p exp(-4 Delta^2)).  Raises NoViolationAtLo when
    r >= 1 (no n violates at delta = 0), and ValueError where StateSpec or CoarseningParams would.
    """
    check_p(p)
    check_coarsening(Delta=Delta)
    scale = p * math.exp(-4.0 * (Delta * Delta))
    y = math.sqrt(spec.bound / spec.beta / scale) if scale > 0 else math.inf  # V_c(spec, 0)
    if not y < 1:
        raise NoViolationAtLo(f"no violation at delta = 0 for any n: {spec.kind} m={spec.m}")
    # v = erfinv(y) to an ulp: Winitzki's start, 4 Newton steps (DLMF 7.17), exact 1 - y
    log = math.log((1.0 - y) * (1.0 + y))
    v = math.sqrt(math.sqrt((t := _WINITZKI + 0.5 * log) ** 2 - log / 0.147) - t)
    for _ in range(4):
        v += (math.erfc(v) - (1.0 - y) if y > 0.5 else y - math.erf(v)) / (
            _TWO_OVER_SQRT_PI * math.exp(-v * v))
    u, rho = _SQRT_2 * v, spec.alpha / (spec.beta * scale)
    return 1.0 / (u * u), rho * math.exp(-0.5 * u * u) / (_SQRT_8PI * u * y) - 1 / 6


def _optimum_at(spec, masses, p, Delta):
    """The witness optimum at one probe, the (c0, V) of :func:`invariants` unpacked first."""
    c0, V = invariants(masses, p, Delta)  # optimum(spec, *pair) costs ~0.13 us more a probe
    return optimum(spec, c0, V)


def _no_transition(spec, n, where="V = 0"):
    return NoTransitionAtHi(f"still violating at {where} for {spec.kind} m={spec.m}, n={n}")


def _point(spec, n, value, root, tol, hi, delta_sq, Delta_sq, p, reach=1.0):
    """The TransitionPoint at root, certified at root -+ reach * w; value(x): the witness at x."""
    width, bound = reach * max(tol, RELATIVE_RESOLUTION * root), spec.bound
    cert_lo, cert_hi = value(max(root - width, 0.0)) - bound, value(min(root + width, hi)) - bound
    if not cert_lo > 0 >= cert_hi or (root - width <= 0.0 and root + width >= hi):
        raise TransitionError(f"uncertified bracket at {root} in [0.0, {hi}]: margin "
                              f"{cert_lo} at -{width}, {cert_hi} at +{width}")
    return TransitionPoint(delta_sq, Delta_sq, p, spec, n, value(root), cert_lo, cert_hi)


def _sign_change(memo, hi, bound):
    """(a, b), the first sign change the probes show below hi.  b: the first probe below hi whose
    value is < bound, else hi (an exact bound, float noise, would pin every chord to b); a: the
    last probe below b whose value is > bound."""
    b = min((x for x, v in memo.items() if x < hi and v < bound), default=hi)
    return max(x for x, v in memo.items() if x < b and v > bound), b


def find_critical_delta(spec, state, Delta_fixed=0.0, tol=DEFAULT_TOL):
    """Critical resolution variance delta^2 at fixed Delta, probing each point once.

    The top is g + h, g = x*^2 n^2 + kappa (:func:`macroscopic_limit`), if r < 1, g is a float
    and the margin changes sign on [g - h, g + h]; else hi = 4 n^2, doubled while the witness
    violates there.  :func:`_root` narrows the seeded bracket itself, else the first sign change
    the probes show below the top, and a root x certifies at -+ w/2, w = max(tol, 2^-48 x), or
    is searched again from the first sign change until its certificate probes nothing new.
    Violating past float range raises NoTransitionAtHi; not violating at delta = 0 raises
    NoViolationAtLo.
    """
    check_coarsening(Delta=Delta_fixed)  # validated once, at entry, with tol
    check_tol(tol)
    n, p, bound = state.n, state.p, spec.bound
    memo = {}  # the witness value at each point, probed once (a functools.cache costs more)
    value = lambda x: memo[x] if x in memo else memo.setdefault(
        x, _optimum_at(spec, kernel_masses(n, math.sqrt(x)), p, Delta_fixed))
    margin = lambda x: value(x) - bound
    hi = math.inf  # 4 n^2; inf wherever that overflows, and h then reduces to w
    try:
        hi = 4.0 * n**2
        x_sq, kappa = macroscopic_limit(spec, p, Delta_fixed)
        seed = x_sq * n * n + kappa
        h = SEED_SPREAD * (1.0 + (12.0 * kappa + 3.0) / x_sq) ** 2 / (0.25 * hi) + max(
            tol, RELATIVE_RESOLUTION * seed)
    except (OverflowError, NoViolationAtLo):  # no float n^2, or r >= 1: no macroscopic limit
        seed = h = math.inf  # so seed - h is NaN: no seeded bracket
    if 0 < seed - h and margin(seed - h) > 0 >= margin(seed + h):
        a, b = seed - h, seed + h  # the seeded bracket holds a sign change: search it directly
        hi = b
    else:
        while hi < math.inf and margin(hi) > 0:
            hi *= 2.0
        if hi == math.inf:
            raise _no_transition(spec, n, "the largest float edge")
        if margin(0.0) <= 0:
            raise NoViolationAtLo(
                f"no violation at delta^2 = 0.0 for {spec.kind} m={spec.m}, n={n}, p={p}")
        a, b = _sign_change(memo, hi, bound)
    while True:
        root = _root(margin, a, margin(a), b, margin(b), tol)
        probed = len(memo)
        try:
            return _point(spec, n, value, root, tol, hi, root, Delta_fixed * Delta_fixed, p,
                          reach=0.5)
        except TransitionError:
            if len(memo) == probed:  # no new certificate probe, as where it clamps to 0 and hi
                raise
        a, b = _sign_change(memo, hi, bound)


def _edges(spec, n, masses, p, Delta, tol, lo_error):
    """(V, V_c) at the violating edge (p, Delta) of a search in which c0 is fixed and V falls."""
    check_tol(tol)
    c0, V_edge = invariants(masses, p, Delta)
    V_crit = V_c(spec, c0)
    if V_edge <= V_crit:
        raise lo_error()
    if V_crit <= 0:  # the c0 term alone reaches the bound, so every V > 0 violates
        raise _no_transition(spec, n)
    return V_edge, V_crit


def find_critical_Delta(spec, state, delta_fixed=0.0, tol=DEFAULT_TOL):
    """Critical reference variance Delta^2 = ln(p a_n^2 / V_c) / 4 at fixed delta.

    ``tol`` is the half-width of the certificate.  Raises NoViolationAtLo
    when the state does not violate at Delta = 0, and NoTransitionAtHi when
    the c0 term alone reaches the bound.
    """
    check_coarsening(delta=delta_fixed)  # validated once, at entry
    n, p, masses = state.n, state.p, kernel_masses(state.n, delta_fixed)
    V0, V_crit = _edges(spec, n, masses, p, 0.0, tol, lambda: NoViolationAtLo(
        f"no violation at Delta^2 = 0.0 for {spec.kind} m={spec.m}, n={n}, p={p}"))
    ratio = V0 / V_crit  # overflows only for a subnormal V_c
    root = 0.25 * (math.log(ratio) if ratio < math.inf else math.log(V0) - math.log(V_crit))
    return _point(spec, n, lambda x: _optimum_at(spec, masses, p, math.sqrt(x)), root,
                  tol, math.inf, delta_fixed * delta_fixed, root, p)


def find_critical_visibility(spec, n, params=CoarseningParams(), tol=DEFAULT_TOL):
    """Critical visibility p = V_c / (a_n^2 exp(-4 Delta^2)) at fixed coarsening.

    ``tol`` is the half-width of the certificate, on q = 1 - p in [0, 1].
    Raises NoViolationAtPureState when even p = 1 does not violate, and
    NoTransitionAtHi when the c0 term alone reaches the bound.
    """
    check_n(n)  # validated once, at entry
    masses, Delta = kernel_masses(n, params.delta), params.Delta
    V1, V_crit = _edges(spec, n, masses, 1.0, Delta, tol, lambda: NoViolationAtPureState(
        f"no violation at p = 1 for {spec.kind} m={spec.m}, n={n}"))
    p = V_crit / V1
    return _point(spec, n, lambda q: _optimum_at(spec, masses, 1.0 - q, Delta), 1.0 - p,
                  tol, 1.0, params.delta * params.delta, Delta * Delta, p)


def trace_boundary(spec, state, Delta_sq_grid, tol=DEFAULT_TOL):
    """Transition points delta_c^2(Delta^2), a tuple, over an ascending Delta^2 grid.

    The trace stops where the curve reaches the delta^2 = 0 axis.
    """
    grid = list(Delta_sq_grid)
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("Delta_sq_grid must be sorted ascending")
    points = []
    for Delta_sq in grid:
        check_coarsening(Delta=Delta_sq)  # named before math.sqrt, which a negative fails
        try:
            pt = find_critical_delta(spec, state, Delta_fixed=math.sqrt(Delta_sq), tol=tol)
        except NoViolationAtLo:
            break
        points.append(replace(pt, Delta_sq=Delta_sq))  # the grid value, not sqrt(Delta_sq)^2
    return tuple(points)
