"""Dense grid-search oracles for the witness optima.

Independent of the closed-form angles.  For any correlator (the sharp one,
-cos 2(a + b), by default):

* the steering witness splits into independent per-pair maxima, each found
  by scanning the pair on a dense grid;
* the CHSH form groups Bob's two angles into two independent brackets, so
  for every Alice pair the best Bob responses are dense-grid maxima.

Resolution is pi/720 on every scanned angle.
"""

import functools

import numpy as np

from matrix_oracle import pair_matrix

RESOLUTION = np.pi / 720
# Alice rows per CHSH block: one 4 x 720 x 720 buffer (16 MB) serves both brackets.
CHUNK = 4


def sharp_corr(a, b):
    return -np.cos(2.0 * (a + b))


def _grid_matrix(corr):
    """The grid and M[a, b] = corr(a, b) over it."""
    grid = np.arange(0.0, np.pi, RESOLUTION)
    if corr is None:
        return grid, sharp_corr(grid[:, None], grid[None, :])
    return grid, pair_matrix(corr, grid, grid)


def steering_grid_max(m, corr=None):
    """(1/sqrt(m)) * m * max over a dense (a, b) grid of |corr|."""
    _, values = _grid_matrix(corr)
    return m * float(np.abs(values).max()) / np.sqrt(m)


def chsh_grid_max(corr=None):
    """Dense grid search of the CHSH form for ``corr`` (default: sharp).

    B = [E(a1,b1) + E(a2,b1)] + [E(a1,b2) - E(a2,b2)]; each bracket is
    maximized over its own Bob angle for every (a1, a2) pair.
    """
    if corr is None:
        return _sharp_chsh_max()
    return _chsh_max(corr)


@functools.cache
def _sharp_chsh_max():
    return _chsh_max(None)


def _chsh_max(corr):
    """Each unordered Alice pair once: with S = M[a1] + M[a2] and D = M[a1] - M[a2],
    (a1, a2) scores max S + max D and (a2, a1) scores max S - min D, since IEEE
    addition commutes and a2 - a1 = -(a1 - a2) exactly."""
    _, M = _grid_matrix(corr)  # M[a, b]
    size = len(M)
    buf = np.empty((CHUNK, size, size))
    best = -np.inf
    for start in range(0, size, CHUNK):
        block = M[start : start + CHUNK, None, :]  # a1 rows, paired with a2 >= start
        pairs = buf[: len(block), : size - start]
        plus = np.add(block, M[None, start:, :], out=pairs).max(axis=2)
        np.subtract(block, M[None, start:, :], out=pairs)
        best = max(best, float((plus + pairs.max(axis=2)).max()),
                   float((plus - pairs.min(axis=2)).max()))
    return best
