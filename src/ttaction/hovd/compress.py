"""Rank selection for compressed derivative tensors via the spectral metric.

The compression target is relative: sigma1(T - T_tt) / sigma1(T) < eps, with
both spectral norms estimated by the shifted power method on actions.  The
search builds one train at a generous rank and rounds it down, testing ranks
2, 3, ... until the first passes; rounding a high-rank train tracks the
optimal truncation at each lower rank far better than independent direct
builds, which keeps the reported rank stable near a slowly decaying spectral
tail.  The build rank escalates when the crossing lands too close to it for
the rounding to have slack.
"""

from __future__ import annotations

import numpy as np

from ..builder import (
    DEFAULT_TAU_EXTRA,
    BuildConfig,
    build_ranks,
    predicted_action_count,
    tt_from_actions,
)
from ..core import oracle_from_tt, subseed, tt_round
from ..errors import CapacityError, ShapeError
from ..rangefinder import DEFAULT_OVERSAMPLING
from .oracle import WhitenedMap, derivative_dims, make_derivative_oracle
from .sigma1 import oracle_difference, sigma1_estimate
from .taylor import jacobian_train


def _sigma1(oracle, seed):
    """Three-start sigma_1 estimate and its diagnostics for the report."""
    result = sigma1_estimate(oracle, seed=seed, n_starts=3, return_info=True)
    return result.value, {
        "converged": result.converged,
        "iterations": result.iterations,
        "start_values": result.start_values,
    }


def compress_derivative(
    model,
    order,
    rank=None,
    eps=None,
    seed=0,
    oversampling=DEFAULT_OVERSAMPLING,
    tau_extra=DEFAULT_TAU_EXTRA,
    max_rank=None,
    whitener=None,
):
    """Compress the whitened order-``order`` derivative tensor at m = 0.

    Exactly one of ``rank`` (build once at that rank) and ``eps`` (grow the
    rank until the relative spectral error drops below it) must be given,
    and ``max_rank``, the ceiling of that growth, only with ``eps``; a rank
    below 1, an eps that is not finite and > 0, a ``max_rank`` below 2 or
    beside a ``rank``, or a negative ``oversampling`` or ``tau_extra`` raises
    :class:`~ttaction.errors.ShapeError` before any solve, and so do ranks
    of the first build that the action-count law refuses.  A grown build
    the law refuses comes after actions were spent, so it ends the search
    with :class:`~ttaction.errors.CapacityError`.
    Order 1 is read by :func:`~ttaction.hovd.taylor.jacobian_train` instead
    of the train builder.
    Returns (train, info) where info records the rank, the spectral error,
    and solver and action counters.  Every sigma_1 estimate keeps
    its diagnostics: whether any start converged, the iterations of each
    start and each start's final Rayleigh value (sigma_1 squared), in
    ``info["sigma1_info"]`` for the full tensor and in each
    ``info["trials"]`` entry for the differences.
    """
    if (rank is None) == (eps is None):
        raise ShapeError("give exactly one of rank and eps")
    if order < 1:
        raise ShapeError(f"order must be >= 1, got {order}")
    if eps is not None and not (np.isfinite(eps) and eps > 0):
        raise ShapeError(f"eps must be finite and > 0, got {eps}")
    if max_rank is not None and max_rank < 2:
        raise ShapeError(f"max_rank must be >= 2, got {max_rank}")
    if max_rank is not None and rank is not None:
        raise ShapeError(f"max_rank bounds an eps search; got it with rank={rank}")
    dims = derivative_dims(model, order)
    ceiling = max(build_ranks(dims, 48 if max_rank is None else max_rank))
    first = rank if rank is not None else min(8, ceiling)
    # the count law reads only the arguments, so a rank below 1, a negative
    # slack and a first build it refuses are refused before the base point
    # is solved
    predicted_action_count(dims, first, oversampling, tau_extra)
    whitener = whitener or WhitenedMap(model)
    oracle = make_derivative_oracle(model, order, whitener=whitener)
    engine = oracle.engine
    sigma_full, sigma_info = _sigma1(oracle, subseed(seed, 2))

    def build(r):
        oracle.clear_cache()
        if order == 1:
            return jacobian_train(
                oracle, r, oversampling=oversampling, seed=subseed(seed, 1)
            )
        config = BuildConfig(
            ranks=r,
            oversampling=oversampling,
            tau_extra=tau_extra,
            seed=subseed(seed, 1),
        )
        train, _ = tt_from_actions(oracle, config)
        return train

    def trial(train, r, build_rank):
        diff = oracle_difference(oracle, oracle_from_tt(train))
        value, diagnostics = _sigma1(diff, subseed(seed, 3, r))
        error = value / sigma_full
        trials.append(
            {"rank": r, "build_rank": build_rank, "sigma1_rel_error": error}
            | diagnostics
        )
        return error

    trials = []
    if rank is not None:
        # a fixed rank is an upper bound: report, and seed the trial by, the
        # largest rank the build realizes
        found = max(build_ranks(dims, rank))
        train = build(rank)
        achieved = trial(train, found, found)
    else:
        found = None
        build_rank = first
        while found is None:
            try:
                big = build(build_rank)
            except ShapeError as exc:
                # the law passed the first build up front, so this one grew
                raise CapacityError(f"build rank {build_rank}: {exc}") from exc
            for r in range(2, build_rank + 1):
                train = tt_round(big, ranks=r)
                achieved = trial(train, r, build_rank)
                if achieved < eps:
                    found = r
                    break
            if build_rank >= ceiling:
                break
            if found is not None and found > max(2, (3 * build_rank) // 4):
                # crossing too close to the build rank; rounding had no
                # slack, so rebuild larger and search again
                found = None
            if found is None:
                build_rank = min(2 * build_rank, ceiling)
        if found is None:
            raise CapacityError(
                f"no rank up to {ceiling} meets eps={eps:g} "
                f"(best {min(t['sigma1_rel_error'] for t in trials):.3e})"
            )
    info = {
        "grid": model.n,
        "order": order,
        "rank": found,
        "eps": eps,
        "sigma1": sigma_full,
        "sigma1_info": sigma_info,
        "sigma1_rel_error": achieved,
        "forward_solves": engine.forward_solves,
        "adjoint_solves": engine.adjoint_solves,
        "newton_iterations": engine.newton_iterations,
        "actions": oracle.action_count,
        "trials": trials,
    }
    return train, info
