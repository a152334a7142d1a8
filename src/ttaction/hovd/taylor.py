"""Polynomial surrogates built from compressed derivative tensors.

The order-k surrogate of a map f around zero is

    f_k(x) = f(0) + sum over j = 1..k of T_j(x, ..., x, .) / j!

with each derivative tensor T_j, the Jacobian T_1 included, kept as a tensor
train built from actions.  Surrogate quality is summarized by the normalized
error ||f(x) - f_k(x)|| divided by the sampled mean of ||f(x) - f(0)||, so
the order-0 surrogate has mean error one by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..builder import BuildConfig, build_ranks, predicted_action_count, tt_from_actions
from ..core import TensorTrain, subseed, tt_apply
from ..errors import NumericalError, ShapeError, ZeroNormError
from ..rangefinder import DEFAULT_OVERSAMPLING, RangeProblem, randomized_range
from .oracle import WhitenedMap, derivative_dims, make_derivative_oracle

# samples per block in taylor_error_stats, for truth and taylor_eval alike: a
# block of b points makes the train contraction hold b N r floats at once, so
# blocks this small keep the peak memory near the one-point path's, and a
# lockstep state solve of 16 columns already shares its LU solves
_EVAL_BLOCK = 16


def jacobian_train(oracle, rank, oversampling=DEFAULT_OVERSAMPLING, seed=0):
    """The order-1 oracle J as the input-first train with cores (Q^T J)^T, Q^T.

    The train builder's two-mode read-off, modes swapped: Gaussian probes
    of the forward action give the orthonormal output basis Q, then one
    block of free-input-slot actions, a column per basis vector, reads
    Q^T J, for ``rank + oversampling`` plus ``rank`` actions in total, the
    rank cut by :func:`~ttaction.builder.build_ranks`.
    """
    if oracle.order != 2:
        raise ShapeError(f"expected a 2-mode oracle, got {oracle.order} modes")
    n_in, n_out = oracle.dims
    rank = build_ranks(oracle.dims, rank)[0]
    problem = RangeProblem(
        evaluate=lambda vs: oracle.action(2, vs),
        input_dims=(n_in,),
        output_dim=n_out,
        seed=seed,
    )
    q = randomized_range(problem, rank, oversampling=oversampling).basis
    return TensorTrain([oracle.action(1, [q])[None], q.T[:, :, None]])


@dataclass
class TaylorSurrogate:
    """Truncated derivative expansion: ``trains[j]`` is T_j, j = 1..order."""

    base: np.ndarray
    trains: dict

    @property
    def order(self):
        return len(self.trains)

    @property
    def input_dim(self):
        return self.trains[1].dims[0]


def taylor_eval(surrogate, x):
    """The surrogate at ``x``, truncated at every order.

    ``x`` is an ``input_dim``-vector or an (input_dim, b) block of b points.
    Returns the (order + 1, n_q) array, or the (order + 1, n_q, b) array for
    a block, whose row j is f(0) plus the terms T_i(x, ..., x, .) / i! for
    i = 1..j, added in that order; each term is applied once, to every point
    of the block at once, with the bits of a single point's term.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] != surrogate.input_dim:
        raise ShapeError(
            f"x has shape {x.shape}, expected ({surrogate.input_dim},) "
            f"or ({surrogate.input_dim}, b)"
        )
    rows = np.empty((surrogate.order + 1, surrogate.base.size, *x.shape[1:]))
    rows[0] = surrogate.base if x.ndim == 1 else surrogate.base[:, None]
    for j in range(1, surrogate.order + 1):
        rows[j] = rows[j - 1] + tt_apply(surrogate.trains[j], j + 1, [x] * j) / math.factorial(j)
    return rows


def build_taylor_surrogate(
    model,
    order,
    rank,
    seed=0,
    oversampling=DEFAULT_OVERSAMPLING,
    whitener=None,
):
    """Assemble a surrogate of the whitened map up to derivative ``order``.

    Order 1 is read by :func:`jacobian_train`; each order j >= 2 compresses
    the whitened derivative tensor with the action-based train builder, all
    at rank ``rank``, an upper bound cut by
    :func:`~ttaction.builder.build_ranks`.  Returns the surrogate and the
    per-order reports; the order-1 report holds the Jacobian's ``actions``,
    the count law's ``predicted_actions`` and its ``rank``.
    An order below 1, or a rank or ``oversampling`` the action-count law
    refuses at any order, raises :class:`~ttaction.errors.ShapeError` before
    any solve.
    """
    if order < 1:
        raise ShapeError(f"order must be >= 1, got {order}")
    jacobian_law = predicted_action_count(derivative_dims(model, 1), rank, oversampling)
    for j in range(2, order + 1):
        predicted_action_count(derivative_dims(model, j), rank, oversampling)
    whitener = whitener or WhitenedMap(model)
    f0 = whitener.base_value()
    jac = make_derivative_oracle(model, 1, whitener=whitener)
    trains = {1: jacobian_train(jac, rank, oversampling, subseed(seed, 1))}
    reports = {
        1: {
            "actions": jac.action_count,
            "predicted_actions": jacobian_law,
            "rank": trains[1].ranks[0],
        }
    }
    for j in range(2, order + 1):
        oracle = make_derivative_oracle(model, j, whitener=whitener)
        config = BuildConfig(
            ranks=rank,
            oversampling=oversampling,
            seed=subseed(seed, j),
        )
        trains[j], reports[j] = tt_from_actions(oracle, config)
    return TaylorSurrogate(base=f0, trains=trains), reports


def taylor_error_stats(surrogate, truth, n_samples, seed=0):
    """Normalized surrogate errors over Gaussian samples, at every order 0..k.

    The samples go in blocks of ``_EVAL_BLOCK``: ``truth`` maps each
    ``(input_dim, b)`` block of raw-space samples to the ``(n_q, b)`` block
    of exact outputs, as :meth:`~ttaction.hovd.WhitenedMap.evaluate` does,
    and :func:`taylor_eval` evaluates the surrogate on the same block.
    Errors at each order are scaled by the sampled mean of ``||truth(x) -
    f(0)||``; the order-0 row therefore has mean one.  Returns a dict with
    the orders, per-order means and standard deviations, and the per-sample
    normalized errors (orders by samples).  Refuses ``n_samples`` below 1
    before sampling ``truth``, and, naming its samples, a ``truth`` block of
    another shape (ShapeError) or with a non-finite entry (NumericalError).
    """
    if n_samples < 1:
        raise ShapeError(f"need at least one sample, got {n_samples}")
    orders = list(range(surrogate.order + 1))
    dim = surrogate.input_dim
    blocks = []
    for start in range(0, n_samples, _EVAL_BLOCK):
        stop = min(start + _EVAL_BLOCK, n_samples)
        seeds = [np.random.SeedSequence((seed, i)) for i in range(start, stop)]
        xs = np.stack([np.random.default_rng(s).standard_normal(dim) for s in seeds], axis=1)
        fs = np.asarray(truth(xs), dtype=float)
        want = (surrogate.base.size, stop - start)
        if fs.shape != want:
            raise ShapeError(
                f"truth of samples {start} to {stop - 1} has shape {fs.shape}, "
                f"not {want}"
            )
        if not np.isfinite(fs).all():
            raise NumericalError(f"truth of samples {start} to {stop - 1} is not finite")
        blocks.append((start, xs, fs))
    base_dist = [
        float(np.linalg.norm(f - surrogate.base)) for _, _, fs in blocks for f in fs.T
    ]
    normalizer = float(np.mean(base_dist))
    if normalizer == 0.0:
        raise ZeroNormError("map is constant over the samples; nothing to normalize")
    errors = np.empty((len(orders), n_samples))
    for start, xs, fs in blocks:
        values = taylor_eval(surrogate, xs)
        for j, f in enumerate(fs.T):
            for row in orders:
                errors[row, start + j] = float(np.linalg.norm(f - values[row, :, j])) / normalizer
    return {
        "orders": orders,
        "means": errors.mean(axis=1).tolist(),
        "stds": errors.std(axis=1).tolist(),
        "errors": errors,
        "normalizer": normalizer,
    }
