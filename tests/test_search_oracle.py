"""The searches, which probe (c0, V) pairs, against one Correlator per probe.

``tests/search_oracle.py`` holds the searches as they were written with one
Correlator and one ``optimum`` per probe.  Every TransitionPoint field and
every error's type and message must be bit-identical: the points compare
with ``==`` and by ``repr``, which tells every float apart, -0.0 included.
"""

import math

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import search_oracle
from fuzzycorr import (
    CoarseningParams,
    NoTransitionAtHi,
    NoViolationAtLo,
    NoViolationAtPureState,
    StateSpec,
    WitnessSpec,
    bell_spec,
    find_critical_Delta,
    find_critical_delta,
    find_critical_visibility,
    steering_spec,
    trace_boundary,
)

SEARCHES = {
    "delta_sq": (find_critical_delta, search_oracle.find_critical_delta),
    "Delta_sq": (find_critical_Delta, search_oracle.find_critical_Delta),
    "p": (find_critical_visibility, search_oracle.find_critical_visibility),
    "boundary": (trace_boundary, search_oracle.trace_boundary),
}


def _outcome(func, args):
    try:
        return func(*args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return exc


def _assert_same(axis, *args):
    """Run the package's search and the oracle on ``args``; return the common outcome."""
    new, old = (_outcome(func, args) for func in SEARCHES[axis])
    if isinstance(old, Exception):
        assert type(new) is type(old) and str(new) == str(old), (new, old)
    else:
        assert new == old and repr(new) == repr(old)
    return new


# m = 400 and n = 1, delta = 0.8 give a c0 term that violates on its own;
# n = 10^400 has no float delta^2 edge
_specials = [0.0, -1.0, math.nan, math.inf, 0.8, 30.0, 1e150, 1e155]
_coarsening = st.one_of(st.floats(0.0, 0.5), st.floats(0.0, 4.0), st.sampled_from(_specials))


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["bell", "steering"]), m=st.sampled_from([2, 3, 5, 16, 400]),
       n=st.sampled_from([1, 5, 10**3, 10**7, 10**400]),
       p=st.one_of(st.floats(0.0, 1.0), st.floats(0.8, 1.0),
                   st.sampled_from([0.0, 0.6, 0.85, 1.0])),
       delta=st.one_of(_coarsening, st.floats(0.0, 1.0).map(lambda u: ("n", u))),
       Delta=_coarsening,
       tol=st.sampled_from([1e-3, 1e-3, 1e-3, 1e-9, 0.3, 1.5, 0.0, math.nan]),
       axis=st.sampled_from(sorted(SEARCHES)),
       grid=st.one_of(st.lists(st.floats(0.0, 0.3), max_size=4).map(sorted),
                      st.lists(st.floats(-0.1, 1.0), max_size=3)))
def test_searches_match_one_correlator_per_probe(kind, m, n, p, delta, Delta, tol, axis, grid):
    spec, state = WitnessSpec(kind, m), StateSpec(n, p)
    if isinstance(delta, tuple):  # a width on the scale of n, within float range
        delta = delta[1] * min(n, 10**300)
    if axis == "delta_sq":
        # the one input validated differently: with no float edge 4 n^2 the
        # oracle never probed, so never saw a bad Delta; the package rejects it
        assume(n < 10**400 or 0 <= Delta < math.inf)
        outcome = _assert_same(axis, spec, state, Delta, tol)
    elif axis == "Delta_sq":
        outcome = _assert_same(axis, spec, state, delta, tol)
    elif axis == "p":
        assume(0 <= delta < math.inf and 0 <= Delta < math.inf)  # a CoarseningParams
        outcome = _assert_same(axis, spec, n, CoarseningParams(delta, Delta), tol)
    else:
        assume(n < 10**400)
        outcome = _assert_same(axis, spec, state, grid, tol)
    event(f"{axis}: {type(outcome).__name__}")  # --hypothesis-show-statistics lists the paths


# Each failure path of each search, once, through the same comparison.
@pytest.mark.parametrize("axis, args, error", [
    ("delta_sq", (bell_spec(2), StateSpec(5, 0.6), 0.0, 1e-3), NoViolationAtLo),
    ("delta_sq", (bell_spec(2), StateSpec(10**400), 0.0, 1e-3), NoTransitionAtHi),
    ("delta_sq", (steering_spec(10**5), StateSpec(5 * 10**153), 0.0, 1e-3), NoTransitionAtHi),
    ("delta_sq", (bell_spec(2), StateSpec(5), -1.0, 1e-3), ValueError),
    ("delta_sq", (bell_spec(2), StateSpec(5), math.nan, 1e-3), ValueError),
    ("delta_sq", (bell_spec(2), StateSpec(5), 0.0, 0.0), ValueError),
    ("Delta_sq", (bell_spec(2), StateSpec(5, 0.6), 0.0, 1e-3), NoViolationAtLo),
    ("Delta_sq", (steering_spec(400), StateSpec(1), 0.8, 1e-3), NoTransitionAtHi),
    ("Delta_sq", (bell_spec(2), StateSpec(5), -1.0, 1e-3), ValueError),
    ("Delta_sq", (bell_spec(2), StateSpec(5), math.inf, 1e-3), ValueError),
    ("Delta_sq", (bell_spec(2), StateSpec(5), 0.0, math.nan), ValueError),
    ("p", (bell_spec(2), 5, CoarseningParams(math.sqrt(30.0)), 1e-3), NoViolationAtPureState),
    ("p", (steering_spec(400), 1, CoarseningParams(0.8), 1e-3), NoTransitionAtHi),
    ("p", (bell_spec(2), 0, CoarseningParams(), 1e-3), ValueError),
    ("p", (bell_spec(2), True, CoarseningParams(), 1e-3), ValueError),
    ("p", (bell_spec(2), 5, CoarseningParams(), -1.0), ValueError),
    ("boundary", (bell_spec(2), StateSpec(5), [0.1, 0.0], 1e-3), ValueError),
    ("boundary", (bell_spec(2), StateSpec(5), [-0.1], 1e-3), ValueError),
    ("boundary", (bell_spec(2), StateSpec(5, 0.6), [0.0, 0.1], 1e-3), tuple),
    ("boundary", (bell_spec(2), StateSpec(5), [0.0, 0.1], math.inf), ValueError),
])
def test_every_failure_path_matches(axis, args, error):
    assert isinstance(_assert_same(axis, *args), error)


def test_bad_Delta_past_the_float_edge_is_rejected():
    # the oracle, which validated at its first probe, never probed here and
    # raised NoTransitionAtHi; the package validates Delta at entry
    with pytest.raises(NoTransitionAtHi):
        search_oracle.find_critical_delta(bell_spec(2), StateSpec(10**400), -1.0)
    with pytest.raises(ValueError, match="Delta must be finite and non-negative"):
        find_critical_delta(bell_spec(2), StateSpec(10**400), -1.0)
