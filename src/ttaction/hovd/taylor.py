"""Polynomial surrogates built from compressed derivative tensors.

The order-k surrogate of a map f around zero is

    f_k(x) = f(0) + J x + sum over j = 2..k of T_j(x, ..., x, .) / j!

with the Jacobian J kept as randomized-SVD factors and each higher
derivative tensor T_j kept as a tensor train built from actions.  Surrogate
quality is summarized by the normalized error ||f(x) - f_k(x)|| divided by
the sampled mean of ||f(x) - f(0)||, so the order-0 surrogate has mean error
one by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ..builder import BuildConfig, tt_from_actions
from ..core import fix_signs, subseed, tt_apply
from ..errors import ShapeError, ZeroNormError
from ..rangefinder import DEFAULT_OVERSAMPLING, RangeProblem, randomized_range
from .oracle import WhitenedMap, make_derivative_oracle


def jacobian_rsvd(oracle, rank, oversampling=DEFAULT_OVERSAMPLING, seed=0):
    """Randomized SVD factors (U, s, Vt) of an order-1 derivative oracle.

    Samples the forward action with Gaussian probes for the column space,
    then reads the row space through the free-derivative-slot action, for
    ``rank + oversampling`` plus ``rank`` actions in total.
    """
    if oracle.order != 2:
        raise ShapeError(f"expected a 2-mode oracle, got {oracle.order} modes")
    n_in, n_out = oracle.dims
    problem = RangeProblem(
        evaluate=lambda vs: oracle.action(2, vs),
        input_dims=(n_in,),
        output_dim=n_out,
        seed=seed,
    )
    basis = randomized_range(problem, rank, oversampling=oversampling)
    rows = np.stack(
        [oracle.action(1, [basis.basis[:, i]]) for i in range(basis.rank)]
    )
    u_small, s, vt = scipy.linalg.svd(rows, full_matrices=False, check_finite=False)
    u = basis.basis @ u_small
    fix_signs(u, vt)
    return u, s, vt


@dataclass
class TaylorSurrogate:
    """Truncated derivative expansion of a whitened forward map."""

    base: np.ndarray
    jacobian: tuple
    trains: dict = field(default_factory=dict)
    order: int = 1

    @property
    def input_dim(self):
        return self.jacobian[2].shape[1]


def taylor_eval(surrogate, x, order=None):
    """The surrogate at an ``input_dim``-vector ``x``, truncated at ``order`` (or full)."""
    order = surrogate.order if order is None else int(order)
    if order < 0 or order > surrogate.order:
        raise ShapeError(f"order must be in 0..{surrogate.order}, got {order}")
    x = np.asarray(x, dtype=float).ravel()
    if x.shape != (surrogate.input_dim,):
        raise ShapeError(f"x has {x.size} entries, expected {surrogate.input_dim}")
    out = surrogate.base.copy()
    if order >= 1:
        u, s, vt = surrogate.jacobian
        out = out + u @ (s * (vt @ x))
    for j in range(2, order + 1):
        train = surrogate.trains[j]
        out = out + tt_apply(train, j + 1, [x] * j) / math.factorial(j)
    return out


def build_taylor_surrogate(
    model,
    order,
    rank,
    seed=0,
    oversampling=DEFAULT_OVERSAMPLING,
    whitener=None,
):
    """Assemble a surrogate of the whitened map up to derivative ``order``.

    Order 1 uses randomized-SVD factors; each order j >= 2 compresses the
    whitened derivative tensor with the action-based train builder at uniform
    rank ``rank``.  Returns the surrogate and the per-order build reports.
    """
    if order < 1:
        raise ShapeError(f"order must be >= 1, got {order}")
    whitener = whitener or WhitenedMap(model)
    f0 = whitener.base_value()
    jac_oracle = make_derivative_oracle(model, 1, whitener=whitener)
    jacobian = jacobian_rsvd(
        jac_oracle, rank, oversampling=oversampling, seed=subseed(seed, 1)
    )
    reports = {1: {"actions": jac_oracle.action_count, "rank": int(jacobian[1].size)}}
    trains = {}
    for j in range(2, order + 1):
        oracle = make_derivative_oracle(model, j, whitener=whitener)
        config = BuildConfig(
            ranks=rank,
            oversampling=oversampling,
            seed=subseed(seed, j),
        )
        trains[j], report = tt_from_actions(oracle, config)
        reports[j] = report
    surrogate = TaylorSurrogate(base=f0, jacobian=jacobian, trains=trains, order=order)
    return surrogate, reports


def taylor_error_stats(surrogate, truth, n_samples, seed=0, orders=None):
    """Normalized surrogate errors over Gaussian samples.

    ``truth`` maps a raw-space sample to the exact output vector.  Errors at
    every requested order are scaled by the sampled mean of
    ``||truth(x) - f(0)||``; the order-0 row therefore has mean one.  Returns
    a dict with orders, per-order means and standard deviations, and the
    per-sample normalized errors (orders by samples).  Refuses an order
    outside 0..``surrogate.order`` before sampling ``truth``, and a ``truth``
    whose output shape differs from ``surrogate.base``.
    """
    if n_samples < 1:
        raise ShapeError(f"need at least one sample, got {n_samples}")
    orders = list(range(surrogate.order + 1)) if orders is None else list(orders)
    bad = [order for order in orders if not 0 <= order <= surrogate.order]
    if bad:
        raise ShapeError(f"orders must be in 0..{surrogate.order}, got {bad}")
    dim = surrogate.input_dim
    xs, fs = [], []
    for i in range(n_samples):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        x = rng.standard_normal(dim)
        f = np.asarray(truth(x), dtype=float)
        if f.shape != surrogate.base.shape:
            raise ShapeError(
                f"truth(x) of sample {i} has shape {f.shape}, not {surrogate.base.shape}"
            )
        xs.append(x)
        fs.append(f)
    base_dist = [float(np.linalg.norm(f - surrogate.base)) for f in fs]
    normalizer = float(np.mean(base_dist))
    if normalizer == 0.0:
        raise ZeroNormError("map is constant over the samples; nothing to normalize")
    errors = np.empty((len(orders), n_samples))
    for row, order in enumerate(orders):
        for i, (x, f) in enumerate(zip(xs, fs)):
            errors[row, i] = (
                float(np.linalg.norm(f - taylor_eval(surrogate, x, order)))
                / normalizer
            )
    return {
        "orders": orders,
        "means": errors.mean(axis=1).tolist(),
        "stds": errors.std(axis=1).tolist(),
        "errors": errors,
        "normalizer": normalizer,
    }
