"""A fixed reference kernel, sampled during the timed passes, that measures machine speed.

On a shared host the speed of the same code drifts by 20-40% within seconds
to minutes, so a wall-clock rate says as much about the neighbours as about
the program.  While an untraced pass runs, :class:`Sampler` interrupts it
every ``PERIOD_S`` seconds (``SIGALRM``) and times one :func:`unit` of fixed
work, so the reference sees the same moments the pass does.  ``run.py``
states the workload's rate in reference units: actions completed in the time
one unit takes.  The kernel mixes what the library spends its time on
(assembling and factorizing a small sparse matrix, padded stencil sums and
small einsum contractions on NumPy arrays, and plain interpreter work) and
calls nothing in ``ttaction``, so a change to the library leaves it alone.
"""

from __future__ import annotations

import signal
import time

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

GRID = 12
#: Sampling period; one unit takes about 2 ms, so samples cost about 5% of a pass.
PERIOD_S = 0.04


def _laplacian_triplets(n):
    """Row, column and value arrays of a shifted 2-D grid Laplacian."""
    grid = np.arange(n * n).reshape(n, n)
    a = np.concatenate([grid[:, :-1].ravel(), grid[:-1, :].ravel()])
    b = np.concatenate([grid[:, 1:].ravel(), grid[1:, :].ravel()])
    diag = np.arange(n * n)
    rows = np.concatenate([a, b, a, b, diag])
    cols = np.concatenate([a, b, b, a, diag])
    vals = np.concatenate([np.ones(2 * a.size), -np.ones(2 * a.size), np.full(n * n, 0.5)])
    return rows, cols, vals


_ROWS, _COLS, _VALS = _laplacian_triplets(GRID)
_RNG = np.random.default_rng(12345)
_CORE = _RNG.standard_normal((10, GRID, 10))
_VEC = _RNG.standard_normal(GRID)
_FIELD = _RNG.standard_normal((GRID, GRID))
_RHS = np.ones(GRID * GRID)


def unit():
    """One reference unit of work; returns a checksum so nothing is skipped."""
    size = GRID * GRID
    mat = scipy.sparse.coo_matrix((_VALS, (_ROWS, _COLS)), shape=(size, size)).tocsc()
    total = scipy.sparse.linalg.splu(mat).solve(_RHS)[0]
    for _ in range(20):
        padded = np.pad(_FIELD, 1)
        total += float((padded[1:-1, 2:] + padded[1:-1, :-2] - 2.0 * _FIELD).sum())
        total += float(np.einsum("abc,b->ac", _CORE, _VEC)[0, 0])
    count = 0
    for i in range(3000):
        count += i % 7
    return total + count


class Sampler:
    """Times one :func:`unit` on entry and then every ``PERIOD_S`` until exit.

    ``spent`` and ``units`` accumulate over every ``with`` block.
    :meth:`clock` is ``time.perf_counter`` minus the time spent sampling, so
    intervals timed with it leave the samples out.
    """

    def __init__(self):
        self.spent = 0.0
        self.units = 0
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        unit()
        self.spent += time.perf_counter() - t0
        self.units += 1

    def clock(self):
        return time.perf_counter() - self.spent

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
