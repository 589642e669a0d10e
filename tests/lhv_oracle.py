"""Brute-force local-realist bound of the symmetric Bell family: an oracle for ``bound``."""

import itertools
import math

import numpy as np

from matrix_oracle import bell_coefficients


def lhv_bound_bruteforce(m):
    """Maximum of the Bell form over all 2^(2m) deterministic sign strategies.

    Independent check of the closed-form bound: for each of Alice's 2^m
    sign vectors the best response of Bob is the sign of each column sum,
    so the inner maximization reduces to a sum of absolute column sums.
    """
    c = bell_coefficients(m)
    best = -math.inf
    for signs in itertools.product((1.0, -1.0), repeat=m):
        a = np.array(signs)
        best = max(best, float(np.abs(a @ c).sum()))
    return best
