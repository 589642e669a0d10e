"""Symmetric m-settings Bell witnesses and the linear steering witness.

The Bell family has coefficient +1 on settings pairs with i + j <= m + 1
(1-based) and -1 elsewhere, with local-realist bound floor((m^2 + 1)/2);
m = 2 is CHSH with bound 2.  The steering witness is
(1/sqrt(m)) |sum_i <A_i B_i>| with unsteerable bound 1.

Every correlator of the model is E(a, b) = c0 - V cos 2(a + b) with
c0, V >= 0, so both witnesses are maximized at fixed angles that do not
depend on the state or the coarsening (:func:`optimal_angles`), and the
optimum is read from c0 and V alone (:func:`optimum`):
m c0 + V m / sin(pi / 2m) for Bell and sqrt(m) (c0 + V) for steering.
"""

from __future__ import annotations

import cmath
import functools
import math
import types
from dataclasses import dataclass

from .correlation import is_count, quoted

__all__ = [
    "WitnessSpec",
    "AngleAssignment",
    "bell_spec",
    "steering_spec",
    "evaluate",
    "optimal_angles",
    "optimum",
    "V_c",
]

BELL = "bell"
STEERING = "steering"


@dataclass(frozen=True)
class WitnessSpec:
    """A witness identity: kind ("bell" or "steering") and settings count m >= 2.

    Each spec computes its constants once, as attributes that are not fields: ``bound``,
    floor((m^2 + 1)/2) for Bell and 1 for steering, and ``alpha``, ``beta`` of its optimum
    alpha c0 + beta V: m and m / ``sine``, sine = sin(pi / 2m), for Bell; sqrt(m) twice for
    steering.  An m whose beta is no float is refused: a Bell m past 1.68e154, where m and
    the bound still are, and a steering m that is itself past float range.
    """

    kind: str
    m: int

    def __post_init__(self):
        if self.kind not in (BELL, STEERING):
            raise ValueError(f"unknown witness kind: {quoted(self.kind)}")
        if not is_count(self.m, 2):
            raise ValueError(f"m must be an integer >= 2, got {quoted(self.m)}")
        m, sine = int(self.m), None
        try:
            if self.kind == BELL:
                sine = math.sin(math.pi / (2 * m))
                bound, alpha, beta = float((m * m + 1) // 2), float(m), m / sine
            else:
                bound, alpha = 1.0, math.sqrt(m)
                beta = alpha
        except OverflowError:  # float(m), or the Bell bound, is past float range
            beta = math.inf
        if not beta < math.inf:  # the Bell beta, ~2 m^2 / pi, overflows first, to inf
            raise ValueError(f"m is too large for float {self.kind} constants, "
                             f"got an integer of {m.bit_length()} bits")
        # past the frozen __setattr__; not fields, so ==, hash, repr and replace see kind and m only
        self.__dict__.update(bound=bound, alpha=alpha, beta=beta, sine=sine)


def _reduced(seq):
    """The angles of ``seq`` as floats reduced to [0, pi); a 1-D numeric buffer is read whole."""
    # item access written in Python (a masked array's) may yield other items than the buffer;
    # a list, the usual input, has no buffer, and memoryview's TypeError costs about 1 us
    if type(seq) is not list and not isinstance(getattr(type(seq), "__getitem__", None),
                                                types.FunctionType):
        try:
            view = memoryview(seq)
        except (TypeError, ValueError):  # no buffer: a list, a generator, a datetime64 array
            pass
        else:
            try:  # released in finally: a with block costs about 0.3 us more a call
                seq = view.tolist() if view.ndim == 1 else seq
            except NotImplementedError:  # a format tolist cannot read: >f8, float16, object
                pass
            finally:
                view.release()
    # a second % sends the pi that a tiny negative angle rounds to back to 0.0
    return tuple([float(a) % math.pi % math.pi for a in seq])


@dataclass(frozen=True, init=False)
class AngleAssignment:
    """One angle per setting per party, from any real sequence, as floats reduced to [0, pi)."""

    alice: tuple
    bob: tuple

    def __init__(self, alice, bob):
        fields = self.__dict__  # each set once, past the frozen __setattr__
        try:
            fields["alice"] = alice = _reduced(alice)
            fields["bob"] = bob = _reduced(bob)
        except OverflowError:  # float() of an int angle past float range, refused as inf is
            party = "bob" if "alice" in fields else "alice"
            raise ValueError(f"{party}: every angle must be finite") from None
        if len(alice) != len(bob):
            raise ValueError("alice and bob must have the same number of settings")
        # a non-finite angle reduces to nan, and so does every sum that holds it
        if not math.isfinite(sum(alice) + sum(bob)):
            party = "bob" if math.isfinite(sum(alice)) else "alice"
            raise ValueError(f"{party}: every angle must be finite")


# bell_spec and steering_spec share one spec per exact int m (a cache would also hand the
# m = 2 spec to 2.0 and True), of the last SHARED_SPECS of each kind they built
SHARED_SPECS = 64
_bell_specs = functools.lru_cache(SHARED_SPECS)(functools.partial(WitnessSpec, BELL))
_steering_specs = functools.lru_cache(SHARED_SPECS)(functools.partial(WitnessSpec, STEERING))


def bell_spec(m):
    """The m-settings symmetric Bell witness with bound floor((m^2 + 1)/2)."""
    return _bell_specs(m) if type(m) is int else WitnessSpec(BELL, m)


def steering_spec(m):
    """The m-settings linear steering witness (1/sqrt(m)) |sum_i <A_i B_i>| <= 1."""
    return _steering_specs(m) if type(m) is int else WitnessSpec(STEERING, m)


def evaluate(spec, angles, corr):
    """Witness value for the given angles under the correlator c0 - V cos 2(a + b).

    Reads ``corr.c0`` and ``corr.V`` only, in O(m).  Bell:
    sum_ij c[i,j] E(a_i, b_j).  The signs c[i,j] sum to m and are +1
    exactly where i + j <= m + 1, so with x_i = e^{2i a_i}, y_j = e^{2i b_j}
    and P_k = y_1 + ... + y_k the sum is
    m c0 - V Re[2 sum_i x_i P_{m+1-i} - (sum x)(sum y)].
    Steering: (1/sqrt(m)) |sum_i E(a_i, b_i)| (non-negative).
    """
    m = spec.m
    if len(angles.alice) != m:
        raise ValueError(f"expected {m} settings per party, got {len(angles.alice)}")
    c0, V = corr.c0, corr.V
    if spec.kind == BELL:
        rect, prefix, total, sum_x, paired = cmath.rect, [], 0j, 0j, 0j
        for b in angles.bob:
            prefix.append(total := total + rect(1.0, b + b))
        for a, p in zip(angles.alice, reversed(prefix)):  # paired = sum_i x_i P_{m+1-i}
            sum_x += (x := rect(1.0, a + a))
            paired += x * p
        return m * c0 - V * (2.0 * paired - sum_x * prefix[-1]).real
    trace = sum([c0 - V * math.cos(2.0 * (a + b)) for a, b in zip(angles.alice, angles.bob)])
    return abs(trace) / math.sqrt(m)


def optimal_angles(spec):
    """Angles that maximize the witness for every correlator c0 - V cos 2(a + b), V >= 0.

    alice[i] = (i-1) pi / (2m) (1-based).  Bell: bob[j] = pi/2 +
    (j - (m+1)/2) pi / (2m), which gives sum_ij c[i,j] (-cos 2(a_i + b_j))
    = m / sin(pi / 2m).  Steering: bob[i] = pi/2 - alice[i], so every matched
    pair has cos 2(a_i + b_i) = -1.
    """
    m = spec.m
    alice = [i * math.pi / (2 * m) for i in range(m)]
    if spec.kind == STEERING:
        bob = [math.pi / 2 - a for a in alice]
    else:
        bob = [math.pi / 2 + (j - (m + 1) / 2) * math.pi / (2 * m) for j in range(1, m + 1)]
    return AngleAssignment(alice=alice, bob=bob)


def optimum(spec, c0, V):
    """Witness value maximized over all angles under the correlator c0 - V cos 2(a + b).

    Bell: m c0 + V B*_m with B*_m = m / sin(pi / 2m); steering:
    sqrt(m) (c0 + V), from the spec's alpha and sine.  Each is :func:`evaluate` at
    :func:`optimal_angles`.
    """
    alpha = spec.alpha
    if spec.kind == BELL:
        return alpha * c0 + V * alpha / spec.sine
    return alpha * (c0 + V)


def V_c(spec, c0):
    """(bound - alpha c0) / beta: the witness violates exactly when V > V_c.

    :func:`optimum` is alpha c0 + beta V, with the spec's alpha and beta: alpha c0 =
    optimum(spec, c0, 0) and beta = optimum(spec, 0, 1), each to the bit.
    """
    return (spec.bound - spec.alpha * c0) / spec.beta
