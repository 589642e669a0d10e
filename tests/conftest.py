"""Shared fixtures for the test suite.

The transition searches at the three reference visibilities are shared
between the transition-property tests and the acceptance tests, so they
are run once per session.
"""

import pytest

from fuzzycorr import (
    StateSpec,
    bell_spec,
    find_critical_Delta,
    find_critical_delta,
    steering_spec,
)


@pytest.fixture(scope="session")
def table1_points():
    """Transition variances for m=2, n=5 at p = 0.85 / 0.80 / 0.75.

    Returns {(p, kind): (delta_point, Delta_point)} with delta_point the
    critical delta^2 at Delta=0 and Delta_point the critical Delta^2 at
    delta=0.
    """
    points = {}
    for p in (0.85, 0.80, 0.75):
        state = StateSpec(n=5, p=p)
        for kind, spec in (("bell", bell_spec(2)), ("steering", steering_spec(2))):
            d2 = find_critical_delta(spec, state, Delta_fixed=0.0)
            D2 = find_critical_Delta(spec, state, delta_fixed=0.0)
            points[(p, kind)] = (d2, D2)
    return points
