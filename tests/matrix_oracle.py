"""The witnesses summed over the full m x m pair matrix: an oracle for ``evaluate``.

``evaluate`` reads only c0 and V and sums the Bell form in O(m).  Here
every pairwise correlation c0 - V cos 2(a_i + b_j) is spelled out, the
Bell value is its sum against the full sign matrix and the steering value
its trace, as the witnesses are defined.

``reference_angles`` and ``reference_evaluate`` keep the O(m) form as it
was first written, item by item with ``sum`` and ``itertools.accumulate``:
``AngleAssignment`` and ``evaluate`` do the same float operations in the
same order, so they must agree with it bit for bit.  ``reference_bound``,
``reference_optimum`` and ``reference_V_c`` keep the bound, the optimum and
V_c as first written, from m at every call: ``WitnessSpec``'s constants,
``optimum`` and ``V_c`` must agree with them bit for bit too.
"""

import cmath
import itertools
import math

import numpy as np

from fuzzycorr.witness import STEERING


def bell_coefficients(m):
    """Sign matrix of the symmetric Bell family: +1 iff i + j <= m + 1 (1-based)."""
    i = np.arange(1, m + 1)[:, None]
    j = np.arange(1, m + 1)[None, :]
    return np.where(i + j <= m + 1, 1.0, -1.0)


def pair_matrix(corr, alice, bob):
    """All pairwise correlations: entry [i, j] = c0 - V cos 2(alice[i] + bob[j])."""
    alice = np.asarray(alice, dtype=float)
    bob = np.asarray(bob, dtype=float)
    return corr.c0 - corr.V * np.cos(2.0 * (alice[:, None] + bob[None, :]))


def matrix_witness(spec, alice, bob, corr):
    """Bell: sum_ij c[i,j] E(a_i, b_j); steering: (1/sqrt(m)) |trace E|."""
    pairs = pair_matrix(corr, alice, bob)
    if spec.kind == STEERING:
        return abs(float(np.trace(pairs))) / math.sqrt(spec.m)
    return float(np.sum(bell_coefficients(spec.m) * pairs))


def array_optimal_angles(spec):
    """(alice, bob) of ``optimal_angles`` built with array arithmetic and reduced mod pi."""
    m = spec.m
    alice = np.arange(m) * math.pi / (2 * m)
    if spec.kind == STEERING:
        bob = math.pi / 2 - alice
    else:
        bob = math.pi / 2 + (np.arange(1, m + 1) - (m + 1) / 2) * math.pi / (2 * m)
    return alice % math.pi, bob % math.pi


def reference_angles(alice, bob):
    """(alice, bob) as AngleAssignment first stored them, or the error it first raised."""
    # each item as the sequence yields it (a numpy scalar from an array); a second % sends
    # the pi that a tiny negative angle rounds to back to 0.0
    alice = tuple(float(a) % math.pi % math.pi for a in alice)
    bob = tuple(float(b) % math.pi % math.pi for b in bob)
    if len(alice) != len(bob):
        raise ValueError("alice and bob must have the same number of settings")
    if not math.isfinite(sum(alice) + sum(bob)):
        party = "bob" if math.isfinite(sum(alice)) else "alice"
        raise ValueError(f"{party}: every angle must be finite")
    return alice, bob


def reference_evaluate(spec, alice, bob, c0, V):
    """``evaluate`` at reduced angles as first written: m c0 - V Re[2 sum x P - (sum x)(sum y)]."""
    m = spec.m
    if spec.kind == STEERING:
        trace = sum(c0 - V * math.cos(2.0 * (a + b)) for a, b in zip(alice, bob))
        return abs(trace) / math.sqrt(m)
    x = [cmath.rect(1.0, 2.0 * a) for a in alice]
    prefix = list(itertools.accumulate(cmath.rect(1.0, 2.0 * b) for b in bob))
    paired = sum(x_i * p for x_i, p in zip(x, reversed(prefix)))  # sum_i x_i P_{m+1-i}
    return m * c0 - V * (2.0 * paired - sum(x) * prefix[-1]).real


def reference_bound(spec):
    """The classical bound as first written: floor((m^2 + 1)/2) for Bell, 1 for steering."""
    return 1.0 if spec.kind == STEERING else float((spec.m * spec.m + 1) // 2)


def reference_optimum(spec, c0, V):
    """The optimum as first written: m c0 + V m / sin(pi / 2m) for Bell, sqrt(m) (c0 + V)."""
    m = spec.m
    if spec.kind == STEERING:
        return math.sqrt(m) * (c0 + V)
    return m * c0 + V * m / math.sin(math.pi / (2 * m))


def reference_V_c(spec, c0):
    """V_c as first written: (bound - alpha c0) / beta, alpha c0 and beta read from the optimum."""
    return (reference_bound(spec) - reference_optimum(spec, c0, 0.0)) / reference_optimum(
        spec, 0.0, 1.0)
