"""Plain multi-start Nelder-Mead over all 2m measurement angles.

An optimizer oracle for the closed-form witness optima: seeded uniform
starts on [0, pi)^(2m), no structured or warm starts and no polish, so it
shares nothing with ``fuzzycorr.optimal_angles`` but the objective.
"""

import math

import numpy as np
from scipy.optimize import minimize

from fuzzycorr import AngleAssignment, evaluate


def maximize(spec, corr, starts=8, seed=0):
    """(best value, its angles) over ``starts`` Nelder-Mead descents."""
    m = spec.m

    def negative(x):
        return -evaluate(spec, AngleAssignment(alice=x[:m], bob=x[m:]), corr)

    rng = np.random.default_rng(seed)
    best = min(
        (
            minimize(negative, x0, method="Nelder-Mead",
                     options={"maxiter": 20000, "xatol": 1e-10, "fatol": 1e-13})
            for x0 in rng.uniform(0.0, math.pi, size=(starts, 2 * m))
        ),
        key=lambda res: res.fun,
    )
    return -float(best.fun), AngleAssignment(alice=best.x[:m], bob=best.x[m:])
