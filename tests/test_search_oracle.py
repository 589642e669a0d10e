"""The searches, which probe (c0, V) pairs, against one Correlator per probe.

``tests/search_oracle.py`` holds the searches as they were written with one
Correlator and one ``optimum`` per probe, all by bisection.  Every error's
type and message must be identical, but for the cases named below, where
the package certifies a root and the oracle raises.

The delta^2 and boundary searches now narrow a bracket around the
macroscopic limit, or else the same bracket, by one chord loop certified at
-+ w/2.  Each of their points must meet four conditions:
its root lies within the oracle bisection's width w = max(tol, 2^-48 root)
of the oracle's root; margin_lo > 0 >= margin_hi; ``achieved_value``
equals ``optimum`` of a Correlator's (c0, V) at its root; every other field
is ``==``.  An uncertified bracket raises in both, and each message names
its own root, within w of the oracle's.  Three cases differ, each tested
below: a tol near the bracket width, where the oracle's probes at -+ w clamp
to both ends and the package's at -+ w/2 do not; a root in the margin's
float noise, which the package searches again from its certificate's
probes; and an n whose 4 n^2 overflows but whose n^2 does not, where the
oracle has no bracket edge and the package seeds from the macroscopic limit.

The Delta^2 and p searches are closed forms.  Their roots must lie within
w of the oracle's and within 1e-12 relative of ln(V(Delta = 0) / V_c) / 4
and V_c / V(p = 1), with (c0, V) read from a Correlator and
V_c = (bound - alpha c0) / beta stated here.  Their one other difference is
the certificate that clamps at both ends: the oracle's bracket for Delta^2
was [0, hi], the closed form's domain has no upper end, so there a wide
tol still certifies the root; for p both searches raise, each message
naming its own root.
"""

import itertools
import math
import re

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import search_oracle
from fuzzycorr import (
    CoarseningParams,
    Correlator,
    NoTransitionAtHi,
    NoViolationAtLo,
    NoViolationAtPureState,
    StateSpec,
    TransitionError,
    TransitionPoint,
    WitnessSpec,
    bell_spec,
    macroscopic_limit,
    find_critical_Delta,
    find_critical_delta,
    find_critical_visibility,
    optimum,
    steering_spec,
    trace_boundary,
)
import fuzzycorr.transition
from fuzzycorr.transition import RELATIVE_RESOLUTION

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


def _closed_form(axis, spec, *args):
    """ln(V(Delta = 0) / V_c) / 4 or V_c / V(p = 1), from a Correlator's (c0, V)."""
    if axis == "Delta_sq":
        state, delta = args[:2]
        corr = Correlator(state, CoarseningParams(delta, 0.0))
    else:
        n, params = args[:2]
        corr = Correlator(StateSpec(n), params)
    m = spec.m
    if spec.kind == "bell":
        alpha, beta = m, m / math.sin(math.pi / (2 * m))
    else:
        alpha = beta = math.sqrt(m)
    V_crit = (spec.bound - alpha * corr.c0) / beta
    return 0.25 * math.log(corr.V / V_crit) if axis == "Delta_sq" else V_crit / corr.V


_UNCERTIFIED = re.compile(r"uncertified bracket at (\S+) in (\[.*?\]):")


def _assert_same_delta_sq(new, old, Delta, tol):
    """A delta^2 point (or error) of the package against the oracle bisection's."""
    if type(old) is TransitionError and _UNCERTIFIED.match(str(old)):
        assert type(new) is TransitionError, (new, old)
        (new_root, new_bracket), (old_root, old_bracket) = (
            _UNCERTIFIED.match(str(e)).groups() for e in (new, old))
        assert new_bracket == old_bracket, (new, old)
        new_root, old_root = float(new_root), float(old_root)
    elif isinstance(old, Exception):
        assert type(new) is type(old) and str(new) == str(old), (new, old)
        return
    else:
        assert isinstance(new, TransitionPoint), (new, old)
        assert new.margin_lo > 0 >= new.margin_hi, new
        corr = Correlator(StateSpec(new.n, new.p),
                          CoarseningParams(math.sqrt(new.delta_sq), Delta))
        assert new.achieved_value == optimum(new.witness, corr.c0, corr.V), new
        fixed = ("Delta_sq", "p", "witness", "n")
        assert all(getattr(new, f) == getattr(old, f) for f in fixed), (new, old)
        new_root, old_root = new.delta_sq, old.delta_sq
    assert abs(new_root - old_root) <= max(tol, RELATIVE_RESOLUTION * old_root), (new, old)


def _assert_same(axis, *args):
    """Run the package's search and the oracle on ``args``; return the package's outcome."""
    new, old = (_outcome(func, args) for func in SEARCHES[axis])
    if axis == "boundary" and isinstance(old, tuple):
        assert isinstance(new, tuple) and len(new) == len(old), (new, old)
        for pt, old_pt in zip(new, old):  # each point searched at Delta = sqrt(grid value)
            _assert_same_delta_sq(pt, old_pt, math.sqrt(pt.Delta_sq), args[3])
        return new
    if axis in ("delta_sq", "boundary"):  # a boundary error needs no Delta
        _assert_same_delta_sq(new, old, args[2] if axis == "delta_sq" else None, args[3])
        return new
    if type(old) is TransitionError:  # both certificate probes clamped to [0, hi]
        assert str(old).startswith("uncertified bracket at"), old
        if axis == "p" or isinstance(new, Exception):
            assert type(new) is TransitionError and "uncertified bracket at" in str(new), new
            return new
    elif isinstance(old, Exception):
        assert type(new) is type(old) and str(new) == str(old), (new, old)
        return new
    assert isinstance(new, TransitionPoint), (new, old)
    assert new.margin_lo > 0 >= new.margin_hi
    root = new.Delta_sq if axis == "Delta_sq" else new.p
    exact = _closed_form(axis, *args)
    assert abs(root - exact) <= 1e-12 * abs(exact), (root, exact)
    if isinstance(old, TransitionPoint):
        old_root = old.Delta_sq if axis == "Delta_sq" else old.p
        x = old_root if axis == "Delta_sq" else 1.0 - old_root  # the oracle bisected on q = 1 - p
        tol = args[-1]
        assert abs(root - old_root) <= max(tol, RELATIVE_RESOLUTION * x), (root, old_root)
        fixed = [f for f in ("delta_sq", "Delta_sq", "p", "witness", "n") if f != axis]
        assert all(getattr(new, f) == getattr(old, f) for f in fixed), (new, old)
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
        # the inputs validated differently: with no float edge 4 n^2 the
        # oracle never probed, so never saw a bad Delta or tol; the package
        # rejects both at entry
        assume(n < 10**400 or (0 <= Delta < math.inf and 0 < tol < math.inf))
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
    ("p", (bell_spec(2), 5, CoarseningParams(), 1.5), TransitionError),
    ("Delta_sq", (bell_spec(2), StateSpec(5), 0.0, 1.5), TransitionPoint),
    ("delta_sq", (bell_spec(2), StateSpec(1), 0.0, 7.9), TransitionError),
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


def test_wide_tol_certifies_where_the_bisection_clamped():
    # a tol of 3/4 of the bracket [0, 4] or more: one halving left the
    # bisection at root 1.0, whose probes at -+3 clamp to both ends; the
    # package stops at its first chord, 1.40, certified at -+ w/2, and its
    # probe at 2.90 < 4 does not clamp
    with pytest.raises(TransitionError, match=re.escape("uncertified bracket at 1.0 in")):
        search_oracle.find_critical_delta(bell_spec(2), StateSpec(1), tol=3.0)
    pt = find_critical_delta(bell_spec(2), StateSpec(1), tol=3.0)
    assert pt.margin_lo > 0 >= pt.margin_hi and pt.delta_sq + 1.5 < 4.0


def test_wide_tol_certifies_at_half_the_width():
    # at tol 3.9 the package's own search with a -+ w certificate raised as
    # the bisection does: its root 0.70 probed at -+3.9, both ends of [0, 4];
    # the one chord loop certifies its first chord, 1.40, at -+1.95; at tol
    # 7.9 its certificate clamps at both ends too, and both raise (above)
    with pytest.raises(TransitionError, match=re.escape("uncertified bracket at 1.0 in")):
        search_oracle.find_critical_delta(bell_spec(2), StateSpec(1), tol=3.9)
    pt = find_critical_delta(bell_spec(2), StateSpec(1), tol=3.9)
    assert pt.margin_lo > 0 >= pt.margin_hi and pt.delta_sq + 1.95 < 4.0


def test_noise_band_root_is_searched_again():
    # s = V_c (1 + 1e-8): the margin near the root is float noise (ROADMAP
    # item 4), and the bisection's certificate reads it with the wrong sign;
    # so did the package's before it searched a failed root again from its
    # certificate's probes.  A certified root here says only that the margin
    # changes sign within w/2 of it, not that the inputs fix it that well.
    state = StateSpec(50, 0.44721359997209387)
    with pytest.raises(TransitionError, match="uncertified bracket"):
        search_oracle.find_critical_delta(steering_spec(5), state, tol=1e-12)
    pt = find_critical_delta(steering_spec(5), state, tol=1e-12)
    assert pt.margin_lo > 0 >= pt.margin_hi
    assert abs(pt.delta_sq - 72.9594068) < 1e-6


@pytest.mark.parametrize("spec", [steering_spec(2), bell_spec(2), bell_spec(3)],
                         ids=["steering2", "bell2", "bell3"])
def test_seed_certifies_where_4_n_sq_overflows(spec):
    # at n = 10^154, 4 n^2 has no float, so the bisection has no edge to start
    # from; n^2 and x*^2 n^2 + kappa do, so the package seeds and certifies
    n = 10**154
    with pytest.raises(NoTransitionAtHi, match="largest float edge"):
        search_oracle.find_critical_delta(spec, StateSpec(n))
    pt = find_critical_delta(spec, StateSpec(n))
    assert pt.margin_lo > 0 >= pt.margin_hi
    assert pt.delta_sq / n**2 == pytest.approx(macroscopic_limit(spec)[0], rel=1e-14)


def test_bad_tol_past_the_float_edge_is_rejected():
    # the oracle checked tol only after the hi doubling, which here ends
    # past float range with NoTransitionAtHi; the package checks it at entry
    for tol in (math.nan, 0.0):
        with pytest.raises(NoTransitionAtHi):
            search_oracle.find_critical_delta(bell_spec(2), StateSpec(10**400), tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            find_critical_delta(bell_spec(2), StateSpec(10**400), tol=tol)


def _probes(monkeypatch, *args):
    """(c0, V) pairs the package's delta^2 search reads, and Correlators the oracle builds."""
    counts = {"new": 0, "old": 0}

    def counted(spec, c0, V):
        counts["new"] += 1
        return optimum(spec, c0, V)

    class Counted(Correlator):
        def __init__(self, *corr_args):
            counts["old"] += 1
            super().__init__(*corr_args)

    monkeypatch.setattr(fuzzycorr.transition, "optimum", counted)  # one call a probe
    monkeypatch.setattr(search_oracle, "Correlator", Counted)
    _outcome(find_critical_delta, args)
    _outcome(search_oracle.find_critical_delta, args)
    return counts["new"], counts["old"]


def test_regula_falsi_probes_fewer_points_than_bisection(monkeypatch):
    # the same bracket to the same width: never more than one probe above
    # the bisection on a case, never more than 24 probes (the midpoint
    # fallback took up to 50 here), and at most 60 % of its probes over the grid
    new_total = old_total = 0
    for kind, m, n, p, Delta, tol in itertools.product(
            ["bell", "steering"], [2, 3, 16, 400], [1, 5, 1000, 10**7, 10**16], [0.75, 0.95, 1.0],
            [0.0, 0.2], [1e-3, 1e-9]):
        new, old = _probes(monkeypatch, WitnessSpec(kind, m), StateSpec(n, p), Delta, tol)
        assert new <= min(old + 1, 24), (kind, m, n, p, Delta, tol, new, old)
        new_total, old_total = new_total + new, old_total + old
    assert new_total <= 0.6 * old_total, (new_total, old_total)
