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

#: Shift multipliers tried per start; later entries stabilize stubborn runs.
SHIFT_SCHEDULE = (1.0, 4.0, 16.0)


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
    each; each start walks the shift schedule until the iterate change drops
    below ``tol`` within ``max_iter`` iterations.  Returns the square root of
    the best Rayleigh value over starts (as a float, or a
    :class:`Sigma1Result` with ``return_info``).  If no start converges the
    best iterate's value is still returned, with a
    :class:`~ttaction.errors.ConvergenceWarning`.  A non-finite action raises
    :class:`~ttaction.errors.NonFiniteActionError` from the oracle.
    """
    dims = tuple(oracle.dims)
    d = len(dims)
    k = d - 1
    n = dims[0]
    if any(m != n for m in dims[:k]):
        raise ShapeError(f"derivative slots must have equal size, got {dims}")

    start_values, start_ok, start_iters = [], [], []
    for s in range(n_starts):
        oracle.clear_cache()
        rng = np.random.default_rng(np.random.SeedSequence((seed, s)))
        x0 = rng.standard_normal(n)
        x0 /= np.linalg.norm(x0)
        best_lam, best_ok, used = 0.0, False, 0
        for gamma in SHIFT_SCHEDULE:
            x = x0.copy()
            lam = 0.0
            ok = False
            for it in range(max_iter):
                inner = oracle.action(d, [x] * k)
                grad = oracle.action(1, [x] * (k - 1) + [inner])
                lam = float(x @ grad)
                y = grad + gamma * abs(lam) * x
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
            used += it + 1
            best_lam = max(best_lam, lam)
            if ok:
                best_ok = True
                break
        start_values.append(best_lam)
        start_ok.append(best_ok)
        start_iters.append(used)

    value = float(np.sqrt(max(0.0, max(start_values))))
    converged = any(start_ok)
    if not converged:
        warnings.warn(
            f"no start converged within {max_iter} iterations; "
            f"returning best iterate value {value:.6e}",
            ConvergenceWarning,
            stacklevel=2,
        )
    result = Sigma1Result(value, converged, start_values, start_ok, start_iters)
    return result if return_info else value
