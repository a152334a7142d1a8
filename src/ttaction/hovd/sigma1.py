"""Largest action-norm of a symmetric-in-derivative-slots tensor.

For a (k+1)-mode tensor T with k equal derivative slots the quantity

    sigma_1(T) = max over unit x of || T(x, ..., x, .) ||

generalizes the largest singular value (k = 1 recovers it exactly).  It is
estimated by shifted symmetric higher-order power iteration on the gradient
map x -> T(., x, ..., x, T(x, ..., x, .)), whose Rayleigh value at a fixed
point is sigma_1^2.  The shift is proportional to the current Rayleigh value,
so the iteration commutes with scaling the tensor and the homogeneity
sigma_1(c T) = |c| sigma_1(T) holds exactly.
"""

from __future__ import annotations

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

    def __float__(self):
        return self.value


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


def sigma1_estimate(
    oracle,
    n_starts=5,
    seed=0,
    tol=1e-8,
    max_iter=500,
    return_info=False,
):
    """Estimate sigma_1 of an action oracle by shifted power iteration.

    Runs ``n_starts`` random unit starts, clearing the oracle's cache before
    each; each start iterates at shift ``|lam|``, its Rayleigh value, until
    the iterate change drops below ``tol`` or ``max_iter`` iterations pass.
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

    start_values, start_ok, start_iters = [], [], []
    for s in range(n_starts):
        oracle.clear_cache()
        rng = np.random.default_rng(np.random.SeedSequence((seed, s)))
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        ok = False
        for it in range(max_iter):
            inner = oracle.action(d, [x] * k)
            grad = oracle.action(1, [x] * (k - 1) + [inner])
            lam = float(x @ grad)
            y = grad + abs(lam) * x
            norm = float(np.linalg.norm(y))
            if norm == 0.0:
                ok = True  # exact zero tensor along this orbit
                break
            y /= norm
            change = min(
                float(np.linalg.norm(y - x)), float(np.linalg.norm(y + x))
            )
            x = y
            if change < tol:
                ok = True
                break
        start_values.append(max(0.0, lam))
        start_ok.append(ok)
        start_iters.append(it + 1)

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
