"""The witnesses summed over the full m x m pair matrix: an oracle for ``evaluate``.

``evaluate`` reads only c0 and V and sums the Bell form in O(m).  Here
every pairwise correlation c0 - V cos 2(a_i + b_j) is spelled out, the
Bell value is its sum against the full sign matrix and the steering value
its trace, as the witnesses are defined.
"""

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
