"""Transition-search tests: critical coarsenings, critical visibility, boundary curves."""

import dataclasses
import itertools
import json
import math
import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import erfinv

import fuzzycorr.transition
from fuzzycorr import (
    CoarseningParams,
    Correlator,
    NoTransitionAtHi,
    NoViolationAtLo,
    NoViolationAtPureState,
    StateSpec,
    TransitionError,
    TransitionPoint,
    V_c,
    WitnessSpec,
    bell_spec,
    find_critical_Delta,
    find_critical_delta,
    find_critical_visibility,
    macroscopic_limit,
    optimal_angles,
    optimum,
    steering_spec,
    trace_boundary,
)
from fuzzycorr.correlation import invariants
from fuzzycorr.transition import DEFAULT_TOL, RELATIVE_RESOLUTION, _point, _root
from kernel_oracle import correlator_constants
from matrix_oracle import reference_bound, reference_optimum

PURE5 = StateSpec(n=5, p=1.0)


def test_critical_Delta_closed_form():
    # at delta=0 the correlator is -p e^{-4 D^2} cos 2(ti+tj), so the m=2
    # transitions sit exactly at D^2 = ln(sqrt(2) p)/4 for both witnesses
    for p in (0.80, 0.92, 1.0):
        expected = math.log(math.sqrt(2.0) * p) / 4.0
        for spec in (bell_spec(2), steering_spec(2)):
            pt = find_critical_Delta(spec, StateSpec(n=5, p=p))
            assert pt.Delta_sq == pytest.approx(expected, rel=1e-12, abs=0)


def test_critical_visibility_sharp():
    for spec in (bell_spec(2), steering_spec(2)):
        pt = find_critical_visibility(spec, n=5)
        assert pt.p == pytest.approx(1.0 / math.sqrt(2.0), rel=0, abs=1e-12)
        assert pt.delta_sq == 0.0 and pt.Delta_sq == 0.0


def test_no_violation_at_pure_state():
    # far past the resolution transition even the pure state is classical
    params = CoarseningParams(delta=math.sqrt(30.0))
    with pytest.raises(NoViolationAtPureState):
        find_critical_visibility(bell_spec(2), n=5, params=params)


def test_no_violation_at_lower_edge():
    # CHSH at p = 0.6 peaks at 2 sqrt(2) 0.6 < 2 even without coarsening
    with pytest.raises(NoViolationAtLo):
        find_critical_delta(bell_spec(2), StateSpec(n=5, p=0.6))


@pytest.mark.parametrize("search", ["Delta_sq", "p"])
def test_no_transition_where_c0_alone_violates(search):
    # at n = 1, delta = 0.8 the c0 term alone gives sqrt(400) c0 = 1.04 > 1,
    # so neither reference coarsening nor noise reaches the steering bound
    spec, params = steering_spec(400), CoarseningParams(delta=0.8)
    with pytest.raises(NoTransitionAtHi):
        if search == "Delta_sq":
            find_critical_Delta(spec, StateSpec(n=1), delta_fixed=params.delta)
        else:
            find_critical_visibility(spec, n=1, params=params)


@pytest.mark.parametrize("m", [2000, 3000, 10**5])
def test_steering_Delta_bracket_grows_past_one(m):
    # at the pure sharp state sqrt(m) exp(-4 Delta^2) = 1, so Delta_c^2 =
    # ln(m) / 8, which passes Delta^2 = 1, where a bisection would start its
    # bracket, from m = 2981 on; the closed form has no bracket to grow
    pt = find_critical_Delta(steering_spec(m), PURE5, tol=1e-9)
    assert pt.Delta_sq == pytest.approx(math.log(m) / 8.0, rel=1e-12, abs=0)


# Regimes where V vanishes (p = 0, or exp(-4 Delta^2) underflows at Delta = 30),
# where the kernel is 1e150 labels wide, or where delta^2 or Delta^2 overflows
# to inf (delta or Delta = 1e155): each search ends in its named failure, never
# in a ValueError, an OverflowError or a hang.  For steering m = 1100, n = 1 at
# p = 0, V = 0 but the c0 term alone violates at the first edge delta^2 = 4
# (margin +0.0277), so the doubling runs on until c0 falls below the bound.
@pytest.mark.parametrize(
    "search, error",
    [
        (lambda: find_critical_delta(bell_spec(2), StateSpec(n=5, p=0.0)), NoViolationAtLo),
        (lambda: find_critical_Delta(bell_spec(2), StateSpec(n=5, p=0.0)), NoViolationAtLo),
        (lambda: find_critical_delta(bell_spec(2), PURE5, Delta_fixed=30.0), NoViolationAtLo),
        (lambda: find_critical_visibility(bell_spec(2), n=5, params=CoarseningParams(Delta=30.0)),
         NoViolationAtPureState),
        (lambda: find_critical_Delta(bell_spec(2), PURE5, delta_fixed=1e150), NoViolationAtLo),
        (lambda: find_critical_visibility(bell_spec(2), n=5, params=CoarseningParams(delta=1e150)),
         NoViolationAtPureState),
        (lambda: find_critical_Delta(bell_spec(2), PURE5, delta_fixed=1e155), NoViolationAtLo),
        (lambda: find_critical_visibility(bell_spec(2), n=5, params=CoarseningParams(delta=1e155)),
         NoViolationAtPureState),
        (lambda: find_critical_delta(bell_spec(2), PURE5, Delta_fixed=1e155), NoViolationAtLo),
        (lambda: find_critical_visibility(bell_spec(2), n=5, params=CoarseningParams(Delta=1e155)),
         NoViolationAtPureState),
        (lambda: find_critical_delta(steering_spec(1100), StateSpec(n=1, p=0.0)), NoViolationAtLo),
    ],
    ids=["delta_sq-p0", "Delta_sq-p0", "delta_sq-Delta30", "p-Delta30",
         "Delta_sq-delta1e150", "p-delta1e150", "Delta_sq-delta1e155", "p-delta1e155",
         "delta_sq-Delta1e155", "p-Delta1e155", "delta_sq-p0-c0-violates"],
)
def test_extreme_regimes_fail_cleanly(search, error):
    with pytest.raises(error):
        search()


@pytest.mark.parametrize("spec, n", [(bell_spec(2), 10**400), (steering_spec(10**5), 5 * 10**153),
                                     (steering_spec(2), 10**155)],
                         ids=["start", "doubling", "square"])
def test_delta_search_where_the_edge_overflows(spec, n):
    # 4 n^2 = 4e800 has no float, so there is no delta^2 edge to search from;
    # at n = 5e153, 4 n^2 = 1e308 and steering m = 10^5 still violates there
    # (delta_c^2 ~ 200 n^2), so the doubling leaves float range; at n = 1e155
    # n^2 itself has no float, so neither has the seed x*^2 n^2 + kappa
    with pytest.raises(NoTransitionAtHi, match="largest float edge"):
        find_critical_delta(spec, StateSpec(n))


def test_correlator_where_the_squares_overflow():
    # delta^2 and Delta^2 are inf: the kernel is flat over its central terms
    # and exp(-4 Delta^2) is 0, without an OverflowError or a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        corr = Correlator(StateSpec(5), CoarseningParams(1e300, 1e300))
    assert corr.c0 == 0.0 and corr.V == 0.0


@pytest.mark.parametrize("search, count", [
    (lambda: find_critical_delta(bell_spec(2), StateSpec(5, 0.85)), 5),
    (lambda: find_critical_Delta(bell_spec(2), StateSpec(5, 0.85)), 4),
    (lambda: find_critical_visibility(steering_spec(3), 5), 4),
], ids=["delta_sq", "Delta_sq", "p"])
def test_each_point_is_probed_once(monkeypatch, search, count):
    # delta^2 probes the two ends of the seeded bracket, one chord and the
    # chord -+ w/2 (the chord is the root); the closed forms probe the violating
    # edge, the root and root -+ tol; a probe is one (c0, V) pair, and the
    # README states these counts
    probes = _counted_probes(monkeypatch)
    search()
    assert len(probes) == len(set(probes)) == count


def _counted_probes(monkeypatch):
    """The list to which every (c0, V) pair a search reads appends its arguments."""
    probes = []

    def counted(masses, p, Delta):
        probes.append((masses, p, Delta))
        return invariants(masses, p, Delta)

    monkeypatch.setattr(fuzzycorr.transition, "invariants", counted)
    return probes


MACROSCOPIC_SPECS = [steering_spec(2), bell_spec(2), bell_spec(3), steering_spec(400)]
MACROSCOPIC_IDS = ["steering2", "bell2", "bell3", "steering400"]


@pytest.mark.parametrize("n", [10**16, 10**18, 10**100, 10**153],
                         ids=["1e16", "1e18", "1e100", "1e153"])
@pytest.mark.parametrize("spec", MACROSCOPIC_SPECS, ids=MACROSCOPIC_IDS)
def test_macroscopic_delta_search_is_seeded(monkeypatch, spec, n):
    # x*^2 n^2 + kappa is a float up to n ~ 1e154, so the search starts from
    # the limit there too: the [0, hi] search took 15 to 20 probes here
    probes = _counted_probes(monkeypatch)
    pt = find_critical_delta(spec, StateSpec(n))
    assert pt.margin_lo > 0 >= pt.margin_hi
    assert len(probes) <= 7, len(probes)


@pytest.mark.parametrize("spec, most", list(zip(MACROSCOPIC_SPECS, [11, 12, 11, 17])),
                         ids=MACROSCOPIC_IDS)
def test_delta_search_at_n_one_probes_no_more(monkeypatch, spec, most):
    # n = 1 lies far from the limit; the counts of the [0, hi] search alone
    probes = _counted_probes(monkeypatch)
    pt = find_critical_delta(spec, StateSpec(1))
    assert pt.margin_lo > 0 >= pt.margin_hi
    assert len(probes) <= most, len(probes)


@pytest.mark.parametrize("p, Delta, tol", [
    (0.5, 0.1, 148.3),
    (0.6267606745685309, 0.08091420588694692, 120.61323856719913),
], ids=["raised-after-146", "certified-after-183"])
def test_certificate_past_both_ends_ends_the_search(monkeypatch, p, Delta, tol):
    # the first root's -+ w/2 reaches past both ends of [0, hi = 64], so its certificate probes
    # only 0 and hi, both probed already, and the search raises after one pass; searching again
    # from the probes took 146 probes to raise here, and 183 to certify a later root clamped at hi
    probes = _counted_probes(monkeypatch)
    with pytest.raises(TransitionError, match="uncertified bracket"):
        find_critical_delta(steering_spec(117), StateSpec(4, p), Delta, tol)
    assert len(probes) <= 5, len(probes)


def test_points_carry_the_first_written_optimum_bit_for_bit(monkeypatch):
    # a probe reads a spec's stored constants where it recomputed them from m: the witness
    # value and both margins of every point must be the first-written optimum at the (c0, V)
    # pairs the search read, bit for bit; Delta^2 and p read them in a fixed order
    read = []

    def recorded(masses, p, Delta):
        read.append(pair := invariants(masses, p, Delta))
        return pair

    monkeypatch.setattr(fuzzycorr.transition, "invariants", recorded)
    rng = np.random.default_rng(34)
    roots = dict.fromkeys(["delta_sq", "Delta_sq", "p"], 0)
    for axis in roots:
        for draw in range(1000):
            spec = WitnessSpec("bell" if draw % 2 else "steering",
                               int(rng.choice([2, 3, 4, 5, 8, 17, 64, 400, 10**5])))
            n = max(1, int(10.0 ** rng.uniform(0.0, 8.0)))
            p, delta, Delta, log_tol = rng.uniform([0.6, 0.0, 0.0, -9.0], [1.0, n / 3, 0.3, -2.0])
            p, delta, Delta, tol = float(p), float(delta), float(Delta), 10.0 ** float(log_tol)
            read.clear()
            try:
                if axis == "delta_sq":
                    pt = find_critical_delta(spec, StateSpec(n, p), Delta, tol)
                elif axis == "Delta_sq":
                    pt = find_critical_Delta(spec, StateSpec(n, p), delta, tol)
                else:
                    pt = find_critical_visibility(spec, n, CoarseningParams(delta, Delta), tol)
            except TransitionError:
                continue
            roots[axis] += 1
            values = [reference_optimum(spec, c0, V) for c0, V in read]
            margins = [v - reference_bound(spec) for v in values]
            assert pt.achieved_value.hex() in {v.hex() for v in values}, (axis, pt)
            assert {pt.margin_lo.hex(), pt.margin_hi.hex()} <= {v.hex() for v in margins}, pt
            if axis != "delta_sq":  # the edge, root - w, root + w, root
                got = [pt.margin_lo, pt.margin_hi, pt.achieved_value]
                assert [x.hex() for x in got] == [x.hex() for x in margins[1:3] + values[3:]], pt
    assert min(roots.values()) >= 300, roots


def test_bracket_certificate():
    pt = find_critical_delta(bell_spec(2), PURE5)
    assert pt.margin_lo > 0.0 > pt.margin_hi
    assert abs(pt.achieved_value - pt.witness.bound) < 0.05  # tol times the local slope
    pt = find_critical_Delta(steering_spec(2), PURE5)
    assert pt.margin_lo > 0.0 > pt.margin_hi


def test_transition_point_metadata():
    pt = find_critical_delta(steering_spec(2), StateSpec(n=5, p=0.9))
    assert pt.n == 5 and pt.p == 0.9
    assert pt.witness.kind == "steering"
    assert pt.Delta_sq == 0.0
    angles = optimal_angles(pt.witness)
    assert len(angles.alice) == 2 and len(angles.bob) == 2


def test_transition_point_keeps_its_dataclass_contract():
    # TransitionPoint sets its fields in one write; it must behave as a plain frozen dataclass
    Plain = dataclasses.make_dataclass("TransitionPoint", [
        ("delta_sq", "float"), ("Delta_sq", "float"), ("p", "float"), ("witness", "WitnessSpec"),
        ("n", "int"), ("achieved_value", "float"), ("margin_lo", "float"),
        ("margin_hi", "float")], frozen=True)
    fields = [(f.name, f.type) for f in dataclasses.fields(TransitionPoint)]
    assert fields == [(f.name, f.type) for f in dataclasses.fields(Plain)]
    args = (2.5, 0.1, 0.9, steering_spec(2), 5, 1.0, 1e-3, -1e-3)
    pt, plain = TransitionPoint(*args), Plain(*args)
    assert TransitionPoint(**{name: a for (name, _), a in zip(fields, args)}) == pt
    assert pt == TransitionPoint(*args) and hash(pt) == hash(plain) and repr(pt) == repr(plain)
    moved = dataclasses.replace(pt, Delta_sq=0.2)
    assert moved == TransitionPoint(*args[:1], 0.2, *args[2:]) and moved != pt
    assert repr(moved) == repr(dataclasses.replace(plain, Delta_sq=0.2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        pt.delta_sq = 3.0


def test_mixed_state_split(table1_points):
    # steering survives more resolution coarsening than CHSH on noisy states
    for p in (0.85, 0.80, 0.75):
        bell_d2 = table1_points[(p, "bell")][0].delta_sq
        steer_d2 = table1_points[(p, "steering")][0].delta_sq
        assert steer_d2 > bell_d2


def test_macroscopicity_monotonicity():
    spec = bell_spec(2)
    values = []
    for n in range(2, 11):
        pt = find_critical_delta(spec, StateSpec(n=n, p=1.0))
        values.append(pt.delta_sq)
    for prev, cur in zip(values, values[1:]):
        assert cur >= prev - 2e-3


def test_trace_boundary_single_point():
    points = trace_boundary(bell_spec(2), PURE5, [0.0])
    assert len(points) == 1
    direct = find_critical_delta(bell_spec(2), PURE5)
    assert points[0].delta_sq == pytest.approx(direct.delta_sq, abs=2e-3)


def test_trace_boundary_shape_and_truncation():
    # Delta^2-axis intercept for p=1 sits at ln(sqrt 2)/4 ~ 0.0866; a grid
    # crossing it must truncate there, and delta_c^2 shrinks as Delta^2 grows
    grid = [0.0, 0.03, 0.06, 0.12]
    points = trace_boundary(bell_spec(2), PURE5, grid)
    assert len(points) == 3
    d2 = [pt.delta_sq for pt in points]
    assert np.all(np.diff(d2) < 0.0)
    np.testing.assert_allclose([pt.Delta_sq for pt in points], grid[:3])


def test_trace_boundary_points_carry_their_grid_values():
    # sqrt(0.04)^2 is 0.04000000000000001: each point reports the grid value itself
    grid = [0.0, 0.02, 0.04, 0.06, 0.08]
    points = trace_boundary(bell_spec(2), PURE5, grid)
    assert [pt.Delta_sq for pt in points] == grid


def test_trace_boundary_rejects_unsorted_grid():
    with pytest.raises(ValueError):
        trace_boundary(bell_spec(2), PURE5, [0.02, 0.0])


@pytest.mark.parametrize("value", [-0.1, -math.inf, math.nan, math.inf,
                                   pytest.param(10**400, id="10**400"),
                                   pytest.param(-10**400, id="-10**400")])
def test_trace_boundary_names_a_bad_grid_value(value):
    # a negative value raised ValueError('math domain error') from math.sqrt
    message = f"Delta must be finite and non-negative, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        trace_boundary(bell_spec(2), StateSpec(5, 0.9), [value])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        trace_boundary(steering_spec(3), PURE5, [value, 0.0] if value < 0 else [0.0, value])


@pytest.mark.parametrize("golden", ["boundary_bell2.csv", "boundary_steering3.csv"])
def test_boundary_points_give_back_their_Delta_sq(golden):
    # each (delta_c^2, Delta^2) of a boundary golden case, fed back to the
    # closed-form Delta^2 search at delta = delta_c, returns Delta^2 to within
    # the curve's slope times the delta^2 search's width w, plus rounding
    header = (Path(__file__).parent / "golden" / golden).read_text().splitlines()[0]
    config = json.loads(header[len("# config "):])
    spec, state = WitnessSpec(config["witness"], config["m"]), StateSpec(config["n"], config["p"])
    tol = config["transition_tol"]
    back = lambda d2: find_critical_Delta(spec, state, delta_fixed=math.sqrt(d2), tol=tol).Delta_sq
    points = trace_boundary(spec, state, config["Delta_sq_grid"], tol=tol)
    assert len(points) >= 4
    for pt in points:
        w = max(tol, RELATIVE_RESOLUTION * pt.delta_sq)
        slope = (back(pt.delta_sq - w) - back(pt.delta_sq - 2.0 * w)) / w
        allowance = abs(slope) * w + 1e-12 * pt.Delta_sq
        try:
            Delta_sq = back(pt.delta_sq)
        except NoViolationAtLo:
            # delta_c^2 lies past the Delta^2 = 0 end of the curve, by less
            # than w: w before it, the search gives back at most the allowance
            assert pt.Delta_sq == 0.0, pt
            Delta_sq = back(pt.delta_sq - w)
        assert abs(Delta_sq - pt.Delta_sq) <= allowance, (pt, Delta_sq, allowance)


def test_steering_boundary_grows_with_settings():
    # the quantum region traced by the steering witness expands with m
    grid = [0.0, 0.03, 0.06]
    curves = {
        m: trace_boundary(steering_spec(m), PURE5, grid, tol=5e-3)
        for m in (2, 3, 4, 5)
    }
    d2 = {m: [pt.delta_sq for pt in points] for m, points in curves.items()}
    areas = {}
    for m, points in curves.items():
        assert len(points) == len(grid)
        areas[m] = np.trapezoid(d2[m], [pt.Delta_sq for pt in points])
    assert areas[2] < areas[3] < areas[4] < areas[5]
    # and enclosure is pointwise, not just in area
    for lo, hi in zip(d2[2], d2[5]):
        assert hi > lo


def test_default_bracket_follows_steering_past_four_n_squared():
    # delta_c^2 grows with m past the old fixed upper edge 4 n^2 = 100 (m >= 46)
    values = [find_critical_delta(steering_spec(m), PURE5).delta_sq for m in range(2, 65)]
    assert all(hi > lo for lo, hi in zip(values, values[1:]))
    assert values[-1] > 4 * PURE5.n**2


def test_bell_odd_even_trend_to_m64():
    # odd m compensate coarsening more with each step, even m less
    def delta_c_sq(m):
        return find_critical_delta(bell_spec(m), PURE5, tol=1e-9).delta_sq

    odd = [delta_c_sq(m) for m in range(3, 65, 2)]
    even = [delta_c_sq(m) for m in range(2, 65, 2)]
    assert all(hi > lo for lo, hi in zip(odd, odd[1:]))
    assert all(hi < lo for lo, hi in zip(even, even[1:]))


@pytest.mark.parametrize("spec", [steering_spec(2), bell_spec(2), bell_spec(3)],
                         ids=["steering2", "bell2", "bell3"])
def test_macroscopic_limit_at_the_inverse_square_rate(spec):
    # c0 -> 0 and a_n -> erf(n / sqrt(2) delta), so delta_c^2 / n^2 -> x*^2
    # with erf(1 / sqrt(2) x*)^2 = bound / B*_m; the offset delta_c^2 - x*^2 n^2
    # settles by n = 50, i.e. delta_c^2 / n^2 reaches x*^2 at the 1/n^2 rate
    m = spec.m
    b_star = m / math.sin(math.pi / (2 * m)) if spec.kind == "bell" else math.sqrt(m)
    x_sq = 1.0 / (2.0 * erfinv(math.sqrt(spec.bound / b_star)) ** 2)
    if m == 2:
        assert x_sq == pytest.approx(0.5043562740, abs=1e-10)

    def offset(n):
        return find_critical_delta(spec, StateSpec(n)).delta_sq - x_sq * n * n

    settled = offset(50)
    for n in (500, 5000, 10**5, 10**6):
        assert offset(n) == pytest.approx(settled, abs=5e-3)


# The six cases of the asymptote: (spec, p, Delta).
LIMIT_CASES = [(steering_spec(2), 1.0, 0.0), (steering_spec(64), 1.0, 0.0),
               (bell_spec(2), 1.0, 0.0), (bell_spec(3), 1.0, 0.0),
               (bell_spec(2), 0.85, 0.0), (steering_spec(3), 0.9, 0.1)]
LIMIT_IDS = ["steering2", "steering64", "bell2", "bell3", "bell2-p0.85", "steering3-p0.9-D0.1"]


def test_macroscopic_limit_of_steering_two():
    # 1 / (2 erfinv(2^-1/4)^2), correctly rounded
    assert macroscopic_limit(steering_spec(2))[0] == 0.5043562740277252


@pytest.mark.parametrize("spec, p, Delta", LIMIT_CASES, ids=LIMIT_IDS)
def test_macroscopic_limit_against_scipy(spec, p, Delta):
    # x*^2 = 1 / (2 erfinv(sqrt r)^2) with scipy's erfinv as the oracle
    r = (spec.bound / optimum(spec, 0.0, 1.0)) / (p * math.exp(-4.0 * Delta * Delta))
    x_sq = 1.0 / (2.0 * erfinv(math.sqrt(r)) ** 2)
    assert macroscopic_limit(spec, p, Delta)[0] == pytest.approx(x_sq, rel=1e-13)


def test_bell_macroscopic_limit_parity_split():
    # V_c(m) rises along even m and falls along odd m toward pi/4, and x*^2
    # falls as r = V_c / s rises: so x*^2(m) falls along even m and rises along
    # odd m toward x*^2_inf = 1 / (2 erfinv(sqrt(pi / 4s))^2), and m = 2 is the
    # largest; compared exactly in floats, for every m <= 10^5 + 1
    for s, limit in ((1.0, 0.3998379), (0.85, 0.2340983)):
        x_inf = 1.0 / (2.0 * erfinv(math.sqrt(math.pi / (4.0 * s))) ** 2)
        assert x_inf == pytest.approx(limit, abs=5e-8)
        x_sq = [macroscopic_limit(bell_spec(m), s)[0] for m in range(2, 10**5 + 2)]
        even, odd = x_sq[::2], x_sq[1::2]  # m = 2, 4, ... and m = 3, 5, ...
        assert all(a > b for a, b in zip(even, even[1:])) and even[-1] > x_inf, s
        assert all(a < b for a, b in zip(odd, odd[1:])) and odd[-1] < x_inf, s
        assert max(x_sq) == x_sq[0], s
    # V_c(m) > 0.75 for every m >= 3, so at s = 0.75 only m = 2 has a macroscopic limit
    for m in range(3, 10**5 + 1):
        with pytest.raises(NoViolationAtLo):
            macroscopic_limit(bell_spec(m), 0.75)


def test_settings_count_rates():
    # DLMF 4.19: m^2 (V_c(m) - pi/4) = -pi^3/96 + 0.040/m^2 + ... for even m and
    # pi/4 - pi^3/96 - 0.283/m^2 + ... for odd m; the remainder past the
    # leading term is below 0.3/m^2 from m = 3 on, which is the tolerance
    for m in range(3, 2001):
        lead = -math.pi**3 / 96 + (math.pi / 4 if m % 2 else 0.0)
        gap = m * m * (V_c(bell_spec(m), 0.0) - math.pi / 4)
        assert abs(gap - lead) <= 0.3 / m**2, m
    # steering: V_c = 1/sqrt(m), r = 1 / (s sqrt m), and the erfinv series gives
    # x*^2 pi / (2 s sqrt m) = 1 - pi r/6 - pi^2 r^2/120 - pi^3 r^3/756 - ..., so
    # the gap to 1 is pi r/6 (0.52/sqrt m at s = 1) to within r^2/10 for r <= 0.12
    for s in (1.0, 0.85):
        for m in (10**2, 10**3, 10**4, 10**5):
            r = 1.0 / (s * math.sqrt(m))
            ratio = macroscopic_limit(steering_spec(m), s)[0] * math.pi * r / 2.0
            assert abs(1.0 - ratio - math.pi * r / 6.0) <= r * r / 10.0, (s, m)


@pytest.mark.parametrize("spec, p, Delta", LIMIT_CASES, ids=LIMIT_IDS)
def test_delta_sq_follows_the_asymptote_to_its_next_term(spec, p, Delta):
    # |delta_c^2 - x*^2 n^2 - kappa| <= C / n^2, C = 0.1, stated before the run:
    # the residual times n^2 measured -0.03 to 0.06 on these cases.  The root
    # is known to w = max(tol, 2^-48 delta_c^2), which passes C / n^2 past
    # n ~ 3000, so the bound is C / n^2 + w
    x_sq, kappa = macroscopic_limit(spec, p, Delta)
    for n in (3, 5, 10, 30, 100, 1000, 10**4):
        root = find_critical_delta(spec, StateSpec(n, p), Delta_fixed=Delta, tol=1e-12).delta_sq
        width = max(1e-12, RELATIVE_RESOLUTION * root)
        assert abs(root - x_sq * n * n - kappa) <= 0.1 / n**2 + width, n


@pytest.mark.parametrize("spec", [steering_spec(2), bell_spec(2), steering_spec(64), bell_spec(3),
                                  steering_spec(400)],
                         ids=["steering2", "bell2", "steering64", "bell3", "steering400"])
def test_delta_sq_over_n_sq_reaches_the_limit(spec):
    # kappa / n^2 and w / n^2 are below 1e-14 of x*^2 from n = 10^9 on
    x_sq = macroscopic_limit(spec)[0]
    for n in (10**9, 10**11, 10**13, 10**15, 10**16, 10**18, 10**100, 10**153):
        assert find_critical_delta(spec, StateSpec(n)).delta_sq / n**2 == pytest.approx(
            x_sq, rel=1e-14), n


@pytest.mark.parametrize("spec, p, Delta", [(bell_spec(2), 0.7, 0.0), (steering_spec(2), 0.0, 0.0),
                                            (steering_spec(2), 1.0, 1e155)],
                         ids=["below-threshold", "p0", "Delta-huge"])
def test_macroscopic_limit_without_violation(spec, p, Delta):
    # r >= 1: the witness violates at delta = 0 for no n, so there is no limit
    with pytest.raises(NoViolationAtLo, match="for any n"):
        macroscopic_limit(spec, p, Delta)


@pytest.mark.parametrize("p, Delta", [(1.5, 0.0), (-0.5, 0.0), (math.nan, 0.0), (1.0, math.nan),
                                      (1.0, math.inf), (1.0, -0.3), (1.0, 10**400),
                                      (1.0, -10**400)],
                         ids=["p-above-one", "p-negative", "p-nan", "Delta-nan", "Delta-inf",
                              "Delta-negative", "Delta-huge-int", "Delta-huge-negative-int"])
def test_macroscopic_limit_refuses_what_the_constructors_refuse(p, Delta):
    # p = 1.5 gave a limit for a state that cannot exist, Delta = -0.3 one that no search
    # accepts, and the others read as "no violation for any n"
    with pytest.raises(ValueError) as built:
        StateSpec(1, p), CoarseningParams(Delta=Delta)
    with pytest.raises(ValueError) as raised:
        macroscopic_limit(bell_spec(2), p, Delta)
    assert type(raised.value) is ValueError and str(raised.value) == str(built.value)


def test_table1_roots_sit_near_their_tight_roots():
    # the seeded search returns the last chord, not the midpoint of a bracket
    # that stopped narrowing early: each root at the default tol lies within
    # w/8 of the same search at tol 1e-12
    for p, spec in itertools.product((0.85, 0.80, 0.75), (bell_spec(2), steering_spec(2))):
        loose = find_critical_delta(spec, StateSpec(5, p)).delta_sq
        tight = find_critical_delta(spec, StateSpec(5, p), tol=1e-12).delta_sq
        assert abs(loose - tight) <= DEFAULT_TOL / 8, (p, spec.kind, loose, tight)


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf,
                                 pytest.param(10**400, id="10**400"),
                                 pytest.param(-10**400, id="-10**400")])
def test_bisect_rejects_bad_tolerance(monkeypatch, tol):
    # each public search checks tol at entry, before its first (c0, V) probe
    probes = []

    def counted(*args):
        probes.append(args)
        return invariants(*args)

    monkeypatch.setattr(fuzzycorr.transition, "invariants", counted)
    for search in (lambda: find_critical_delta(bell_spec(2), PURE5, tol=tol),
                   lambda: find_critical_Delta(bell_spec(2), PURE5, tol=tol),
                   lambda: find_critical_visibility(bell_spec(2), 5, tol=tol)):
        with pytest.raises(ValueError, match="tol"):
            search()
    assert probes == []


@pytest.mark.parametrize("value", [math.nan, -1.0, math.inf, pytest.param(10**400, id="10**400"),
                                   pytest.param(-10**400, id="-10**400")])
def test_searches_refuse_a_bad_fixed_coarsening_as_CoarseningParams_does(value):
    # checked at entry by the check CoarseningParams runs, with no object built
    for search, name in (
            (lambda: find_critical_delta(bell_spec(2), PURE5, Delta_fixed=value), "Delta"),
            (lambda: find_critical_Delta(bell_spec(2), PURE5, delta_fixed=value), "delta")):
        with pytest.raises(ValueError) as raised:
            search()
        assert type(raised.value) is ValueError
        assert str(raised.value) == f"{name} must be finite and non-negative, got {value!r}"


@pytest.mark.parametrize("n", [0, True, 2.0])
def test_visibility_search_refuses_a_bad_n_as_StateSpec_does(n):
    with pytest.raises(ValueError) as raised:
        find_critical_visibility(bell_spec(2), n)
    assert type(raised.value) is ValueError and str(raised.value) == "n must be a positive integer"


def _certified_root(margin, hi, tol):
    """(root, margin_lo, margin_hi) of margin on [0, hi], as one delta^2 search pass finds them."""
    root = _root(margin, 0.0, margin(0.0), hi, margin(hi), tol)
    # a stand-in spec with bound 0, so the value is the margin; the root's value is not counted
    pt = _point(SimpleNamespace(bound=0.0), 1, lambda x: 0.0 if x == root else margin(x), root,
                tol, hi, root, 0.0, 1.0, reach=0.5)
    return root, pt.margin_lo, pt.margin_hi


def test_bisect_tolerance_below_float_spacing_ends():
    # near x = 8 adjacent floats are 1.8e-15 apart, so the bracket can never
    # shrink to 1e-20; the width is raised to the floor 2^-48 x and certified there
    width = RELATIVE_RESOLUTION * 8.0
    root, cert_lo, cert_hi = _certified_root(lambda x: 8.0 - x, 100.0, 1e-20)
    assert abs(root - 8.0) <= width
    assert 0 < cert_lo <= 2.5 * width
    assert -2.5 * width <= cert_hi <= 0


@pytest.mark.parametrize("root, tol", [(8.1, 1e-3), (8.0, 1e-20)])
def test_linear_margin_takes_a_handful_of_calls(root, tol):
    # once a chord lands on the root of a straight line, the next step probes
    # w/2 past it and closes the far end (the midpoint fallback took 18 and
    # 53 calls here); six calls count the bracket ends and the certificate
    calls = []

    def margin(x):
        calls.append(x)
        return root - x

    found, cert_lo, cert_hi = _certified_root(margin, 100.0, tol)
    assert abs(found - root) <= max(tol, RELATIVE_RESOLUTION * root)
    assert cert_lo > 0 >= cert_hi
    assert len(calls) <= 6, calls


def test_margin_plateau_is_halved_not_crawled():
    # margin 0 on all of [1, 100], as float noise is near a flat root: the
    # chord rounds onto 100 every time, and steps of w/2 would take 2e5 calls;
    # after the one minimum step the bracket is halved, 17 times down to 1e-3
    calls = []

    def margin(x):
        calls.append(x)
        return 1.0 if x < 1.0 else 0.0

    found, cert_lo, cert_hi = _certified_root(margin, 100.0, 1e-3)
    assert abs(found - 1.0) <= 1e-3 and cert_lo > 0 >= cert_hi
    assert len(calls) <= 2 + 1 + 17 + 2, len(calls)  # ends, minimum step, halvings, certificate


def test_delta_search_past_float_resolution_certifies():
    # delta_c^2 ~ 5e13 at n = 10^7: adjacent floats there are 0.0078 apart,
    # wider than the default tol, so the certificates sit at the floor
    # 2^-48 delta_c^2 ~ 0.18 instead of at +-tol
    pt = find_critical_delta(steering_spec(2), StateSpec(10**7))
    assert pt.margin_lo > 0 >= pt.margin_hi
    x_sq = 1.0 / (2.0 * erfinv(math.sqrt(1.0 / math.sqrt(2.0))) ** 2)
    assert pt.delta_sq / 1e14 == pytest.approx(x_sq, rel=1e-14)


def test_delta_search_at_the_float_range_edge():
    # steering m = 16 has delta_c^2 ~ 2.2 n^2 and 4 n^2 ~ 1.4e308 here, so the
    # bracket's two ends sum past the largest float
    pt = find_critical_delta(steering_spec(16), StateSpec(6 * 10**153))
    assert pt.margin_lo > 0 >= pt.margin_hi
    assert 2.0 * 36e306 < pt.delta_sq < 4.0 * 36e306


def test_bisect_checks_certificates():
    # Positive below 0.5, negative on [0.5, 0.503) and again at the upper
    # edge, positive in between: the search closes in on 0.5, but the probe
    # at root + tol lands where the margin is positive again.
    def margin(x):
        if x < 0.5:
            return 1.0
        if x < 0.503 or x >= 0.99:
            return -1.0
        return 1.0

    with pytest.raises(TransitionError, match="uncertified"):
        _certified_root(margin, 1.0, 0.01)
    # the same margin is certified once the tolerance is inside the dip
    root, cert_lo, cert_hi = _certified_root(margin, 1.0, 0.001)
    assert abs(root - 0.5) <= 0.001 and cert_lo > 0.0 >= cert_hi


def test_certificate_probes_stay_in_bracket():
    # a tolerance wider than half the p bracket used to probe outside it
    pt = find_critical_visibility(bell_spec(2), n=5, tol=0.6)
    assert 0.0 <= pt.p <= 1.0
    assert pt.margin_lo > 0.0 >= pt.margin_hi
    # a tolerance so wide that both probes clamp to the ends of q = 1 - p in
    # [0, 1] certifies nothing; the message names the exact root in q
    message = f"uncertified bracket at {1.0 - pt.p} in [0.0, 1.0]"
    with pytest.raises(TransitionError, match=re.escape(message)):
        find_critical_visibility(bell_spec(2), n=5, tol=1.5)
    # Delta^2 has no upper end, so its probe at root + tol never clamps and
    # a wide tolerance still certifies the same closed-form root
    wide, narrow = (find_critical_Delta(bell_spec(2), PURE5, tol=tol) for tol in (1.5, 1e-3))
    assert wide.margin_lo > 0.0 >= wide.margin_hi and wide.Delta_sq == narrow.Delta_sq


def test_no_violation_at_pure_state_names_n():
    params = CoarseningParams(delta=math.sqrt(30.0))
    with pytest.raises(NoViolationAtPureState, match="n=7"):
        find_critical_visibility(bell_spec(2), n=7, params=params)


# ------------------------------------------------------- property tests
# The optimized witness k c0 + K V falls as Delta^2 grows and rises with p,
# since V = p a_n^2 exp(-4 Delta^2) and c0 = w_n^2 does not depend on them.
# In delta^2 the two terms pull apart: a_n falls, but w_n rises up to
# delta ~ n, so the optimum falls only where V carries enough weight,
# p exp(-4 Delta^2) >= 0.174 over n <= 50, m <= 64 (a scan; the worst case
# is n = 1).  Each search still brackets one root.  Rounding wiggles are
# about 1e-15 relative.

MONOTONE_RTOL = 1e-12
V_WEIGHT_MIN = 0.2
_spec = st.builds(lambda make, m: make(m), st.sampled_from([bell_spec, steering_spec]),
                  st.integers(2, 64))
_unit_pair = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted)


def _optimum(spec, n, p, delta, Delta):
    corr = Correlator(StateSpec(n, p), CoarseningParams(delta, Delta))
    return optimum(spec, corr.c0, corr.V)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=_spec, n=st.integers(1, 50), p=st.floats(0.0, 1.0), Delta=st.floats(0.0, 1.0),
       u=_unit_pair)
def test_optimum_non_increasing_in_delta_sq(spec, n, p, Delta, u):
    assume(p * math.exp(-4.0 * Delta * Delta) >= V_WEIGHT_MIN)
    near, far = (_optimum(spec, n, p, 5.0 * n * t, Delta) for t in u)
    assert far <= near * (1.0 + MONOTONE_RTOL)


def test_optimum_rises_in_delta_sq_without_V():
    # at p = 0 the optimum is the c0 term alone: 0 at delta = 0, then m w_n^2
    values = [_optimum(bell_spec(2), 5, 0.0, delta, 0.0) for delta in (0.0, 2.5, 5.0)]
    assert values[0] == 0.0 < values[1] < values[2]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=_spec, n=st.integers(1, 50), p=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0),
       Delta=_unit_pair)
def test_optimum_non_increasing_in_Delta_sq(spec, n, p, t, Delta):
    near, far = (_optimum(spec, n, p, 5.0 * n * t, D) for D in Delta)
    assert far <= near * (1.0 + MONOTONE_RTOL)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=_spec, n=st.integers(1, 50), t=st.floats(0.0, 1.0), Delta=st.floats(0.0, 1.0),
       p=_unit_pair)
def test_optimum_non_decreasing_in_p(spec, n, t, Delta, p):
    low, high = (_optimum(spec, n, q, 5.0 * n * t, Delta) for q in p)
    assert low <= high * (1.0 + MONOTONE_RTOL)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(spec=_spec, n=st.integers(1, 50), p=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0),
       Delta=st.floats(0.0, 1.0), axis=st.sampled_from(["delta_sq", "Delta_sq", "p"]),
       samples=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8))
def test_bracket_holds_one_root(spec, n, p, t, Delta, axis, samples):
    # the margin is positive below root - tol and not positive above
    # root + tol, at points from tol to the starting edge away from the
    # root, log-spaced; about one draw in five has a transition to check
    delta = 5.0 * n * t
    if axis == "delta_sq":
        edge, search = 4.0 * n * n, lambda: find_critical_delta(spec, StateSpec(n, p), Delta)
        margin = lambda x: _optimum(spec, n, p, math.sqrt(x), Delta) - spec.bound
    elif axis == "Delta_sq":
        edge, search = 1.0, lambda: find_critical_Delta(spec, StateSpec(n, p), delta)
        margin = lambda x: _optimum(spec, n, p, delta, math.sqrt(x)) - spec.bound
    else:
        edge = 1.0
        search = lambda: find_critical_visibility(spec, n, CoarseningParams(delta, Delta))
        margin = lambda q: _optimum(spec, n, 1.0 - q, delta, Delta) - spec.bound
    try:
        pt = search()
    except TransitionError:
        return
    root = {"delta_sq": pt.delta_sq, "Delta_sq": pt.Delta_sq, "p": 1.0 - pt.p}[axis]
    for u in samples:
        x = root + math.copysign(DEFAULT_TOL * (edge / DEFAULT_TOL) ** abs(u), u)
        if 0.0 <= x <= edge:
            assert margin(x) > 0.0 if x < root else margin(x) <= 0.0, (x, root)


# ------------------------------------------------ Delta^2 and p in closed form
# Both optima are alpha c0 + beta V, so a witness violates exactly when
# V > V_c = (bound - alpha c0) / beta.  With delta fixed, c0 is fixed and
# V = p a_n^2 exp(-4 Delta^2), so Delta^2_c = ln(V(Delta = 0) / V_c) / 4 and
# p_c = V_c / V(p = 1), which the searches return, whatever their tol.  The
# oracle's (c0, V) hold to 1e-12, so a V within that of V_c (steering m = 4
# at p = 0.5 and delta << n, where V_c = 1/2 = p) cannot tell which side it
# lies on.  Near such a tie the ratio V / V_c is near 1, and its logarithm
# is good to one float spacing at 1 (2.2e-16, so 5.6e-17 in Delta^2), not
# to a share of the small Delta^2_c: hence the 1e-16 beside the 1e-12.

@st.composite
def _n_and_delta(draw):
    n = draw(st.sampled_from([1, 5, 100, 1000]))
    return n, draw(st.floats(0.0, n / 2.0))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(spec=st.builds(lambda make, m: make(m), st.sampled_from([bell_spec, steering_spec]),
                      st.sampled_from([2, 3, 4, 5, 16, 400])),
       n_delta=_n_and_delta(), p=st.floats(0.5, 1.0), Delta=st.floats(0.0, 0.3))
@example(spec=steering_spec(400), n_delta=(1, 0.8), p=1.0, Delta=0.0)  # c0 alone violates
def test_Delta_sq_and_p_searches_against_their_closed_forms(spec, n_delta, p, Delta):
    n, delta = n_delta
    m = spec.m
    if spec.kind == "bell":
        alpha, beta = m, m / math.sin(math.pi / (2 * m))
    else:
        alpha = beta = math.sqrt(m)
    c0, V_at_zero_Delta = correlator_constants(n, p, delta, 0.0)
    V_at_pure = correlator_constants(n, 1.0, delta, Delta)[1]
    V_c = (spec.bound - alpha * c0) / beta
    assume(min(abs(V_at_zero_Delta - V_c), abs(V_at_pure - V_c), abs(V_c)) > 1e-12)
    searches = [
        (lambda tol: find_critical_Delta(spec, StateSpec(n, p), delta, tol).Delta_sq,
         V_at_zero_Delta, NoViolationAtLo, lambda: 0.25 * math.log(V_at_zero_Delta / V_c)),
        (lambda tol: find_critical_visibility(spec, n, CoarseningParams(delta, Delta), tol).p,
         V_at_pure, NoViolationAtPureState, lambda: V_c / V_at_pure),
    ]
    for search, V_edge, lo_error, closed_form in searches:
        for tol in (1e-3, 1e-9):
            if V_edge <= V_c:
                with pytest.raises(lo_error):
                    search(tol)
            elif V_c < 0:
                with pytest.raises(NoTransitionAtHi):
                    search(tol)
            else:
                root, exact = search(tol), closed_form()
                assert abs(root - exact) <= 1e-12 * abs(exact) + 1e-16, (tol, root, exact)
