"""Largest action-norm of a symmetric-in-derivative-slots tensor.

For a (k+1)-mode tensor T with k equal derivative slots the quantity

    sigma_1(T) = max over unit x of || T(x, ..., x, .) ||

generalizes the largest singular value (k = 1 recovers it exactly).  It is
estimated by shifted symmetric higher-order power iteration on the gradient
map x -> T(., x, ..., x, T(x, ..., x, .)), whose Rayleigh value at a fixed
point is sigma_1^2.  The shift is proportional to the current Rayleigh value,
so the iteration commutes with scaling the tensor and the homogeneity
sigma_1(c T) = |c| sigma_1(T) holds exactly.

The random starts run in lockstep: every iteration is two block actions,
one column per start still running, and a start leaves the block once it
stops.  Each start's scalar work (Rayleigh value, shift, norms, change test)
runs on its own contiguous vectors, so a block column has the bits of the
start run alone.  The oracle's cache is cleared before every iteration: the
two actions of one iteration share their state sensitivities, and iterates
never repeat across iterations (a start whose iterate repeats has stopped),
so solve counts are those of one start at a time while a cache holds at most
one iteration's lattices.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..core import ActionOracle
from ..errors import ConvergenceWarning, ShapeError

@dataclass
class Sigma1Result:
    """Estimate plus per-start diagnostics."""

    value: float
    converged: bool
    start_values: list
    start_converged: list
    iterations: list


class _DifferenceOracle(ActionOracle):
    """Action oracle for ``a - b``; clearing clears both operands."""

    def __init__(self, a, b):
        super().__init__(
            a.dims, lambda k, vs: a.action(k, vs) - b.action(k, vs)
        )
        self._operands = (a, b)

    def clear_cache(self):
        for o in self._operands:
            o.clear_cache()


def oracle_difference(a, b):
    """Action oracle for the difference of two same-shaped oracles.

    Differences of multilinear maps are multilinear, so the result is again a
    valid oracle; its ``clear_cache`` clears both operands.
    """
    if tuple(a.dims) != tuple(b.dims):
        raise ShapeError(f"dims differ: {a.dims} vs {b.dims}")
    return _DifferenceOracle(a, b)


def _norm(v):
    """Euclidean norm of a 1-D array, by numpy's own formula for one."""
    return math.sqrt(v @ v)


def sigma1_estimate(
    oracle,
    n_starts=5,
    seed=0,
    tol=1e-8,
    max_iter=500,
    return_info=False,
):
    """Estimate sigma_1 of an action oracle by shifted power iteration.

    Runs ``n_starts`` random unit starts in lockstep: each iteration clears
    the oracle's cache once, then takes one block action with every
    derivative slot saturated and one with the first slot free, one column
    per live start.  Each start iterates at shift ``|lam|``, its Rayleigh
    value, and leaves the block once the iterate change drops below ``tol``
    or its update is exactly zero; the rest stop after ``max_iter``
    iterations.  A start's arithmetic is its own, so its values, iterations
    and solve counts are those of the start run alone.
    Returns the square root of the largest final Rayleigh value over starts
    (as a float, or a :class:`Sigma1Result` with ``return_info``), with a
    :class:`~ttaction.errors.ConvergenceWarning` if no start converged.
    ``n_starts`` or ``max_iter`` below 1 raises
    :class:`~ttaction.errors.ShapeError`; a non-finite action raises
    :class:`~ttaction.errors.NonFiniteActionError` from the oracle.
    """
    dims = tuple(oracle.dims)
    d = len(dims)
    k = d - 1
    n = dims[0]
    if any(m != n for m in dims[:k]):
        raise ShapeError(f"derivative slots must have equal size, got {dims}")
    if min(n_starts, max_iter) < 1:
        raise ShapeError(f"need n_starts, max_iter >= 1, got {n_starts}, {max_iter}")

    xs = []
    for s in range(n_starts):
        rng = np.random.default_rng(np.random.SeedSequence((seed, s)))
        x = rng.standard_normal(n)
        x /= _norm(x)
        xs.append(x)
    lams = [0.0] * n_starts
    start_ok = [False] * n_starts
    start_iters = [max_iter] * n_starts
    live = list(range(n_starts))
    for it in range(max_iter):
        # one iteration's lattice at a time: iterates never repeat across
        # iterations, so the cache has nothing to share between them
        oracle.clear_cache()
        block = np.array([xs[s] for s in live]).T
        inner = oracle.action(d, [block] * k)
        # contiguous rows: a strided dot takes another BLAS kernel and other bits
        grads = oracle.action(1, [block] * (k - 1) + [inner]).T.copy()
        still = []
        for s, grad in zip(live, grads):
            x = xs[s]
            lam = float(x @ grad)
            y = grad + abs(lam) * x
            norm = _norm(y)
            lams[s] = lam
            if norm == 0.0:
                start_ok[s], start_iters[s] = True, it + 1
                continue  # exact zero tensor along this orbit
            y /= norm
            change = min(_norm(y - x), _norm(y + x))
            xs[s] = y
            if change < tol:
                start_ok[s], start_iters[s] = True, it + 1
            else:
                still.append(s)
        live = still
        if not live:
            break

    start_values = [max(0.0, lam) for lam in lams]
    value = float(np.sqrt(max(start_values)))
    converged = any(start_ok)
    if not converged:
        warnings.warn(
            f"no start converged within {max_iter} iterations; "
            f"returning the largest final start value {value:.6e}",
            ConvergenceWarning,
            stacklevel=2,
        )
    result = Sigma1Result(value, converged, start_values, start_ok, start_iters)
    return result if return_info else value
