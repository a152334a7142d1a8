"""Core-by-core construction of a tensor train from actions alone.

The tensor is peeled one mode at a time by a single stage rule.  At stage c,
modes 1..c-1 are saturated with interpolation vectors taken from the cores
already fixed, which leaves a map from modes c+1..d to the rows of the
mode-c unfolding:

* c = 1: nothing is saturated; the map is the tensor itself.
* c = 2: each column of the orthonormal first core saturates mode 1, an
  exact interpolation (one set, residual zero).
* c >= 3: each of ``tau`` interpolation sets saturates modes 1..c-2 with
  fibers of the built cores (:func:`interpolation_set`).  For row j, set i
  saturates mode c-1 with the vector eta[i, :, j] from
  :func:`solve_interpolation`, and the row is the sum of the ``tau`` actions.

A stage evaluates that map in one action: its W prefixes, a column per
(row, set) pair, enter as (N_k, W, 1) entries and its S samples as
(N_k, 1, S) entries, which broadcast to W S actions.  For c < d a randomized
range finder turns the S samples into an orthonormal core; for c = d the map
has no inputs left and the last core is read off, the case S = 1.  A
fixed-rank build of d modes thus makes d calls to ``action``, and the tensor
is touched only through full actions.  Action counts, one per broadcast
column, follow a closed form in the ranks, oversampling, and the number of
interpolation sets per stage, and the oracle counter is expected to match it
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import TensorTrain, _check_dims, prefix_contract, rank_list, subseed, unfolding_caps
from .errors import BuildStageError, InterpolationError, ShapeError
from .rangefinder import (
    DEFAULT_OVERSAMPLING,
    RangeProblem,
    adaptive_range,
    randomized_range,
)

#: Default number of interpolation sets per stage beyond ceil(r_k / N_k).
DEFAULT_TAU_EXTRA = 1


@dataclass
class BuildConfig:
    """Options for :func:`tt_from_actions`.

    Exactly one of ``ranks`` (fixed internal ranks, scalar broadcast) and
    ``tol`` (relative posterior-error target for per-stage adaptive rank
    growth, starting at rank 2) must be given.  ``oversampling`` is the
    number of range-finder samples beyond each stage's rank.  ``tau_extra``
    is added to the minimal number of interpolation sets ceil(r_k / N_k)
    each stage needs; the default :data:`DEFAULT_TAU_EXTRA` of 1 gives two
    sets in the common r_k < N_k case.  ``seed`` is the root of every
    stage's sample stream.
    """

    ranks: object = None
    tol: float = None
    oversampling: int = DEFAULT_OVERSAMPLING
    tau_extra: int = DEFAULT_TAU_EXTRA
    seed: int = 0


@dataclass
class BuildReport:
    """Per-stage accounting for one build.

    ``stages`` holds one entry per core with the realized rank, the number of
    interpolation sets (``tau``), the oracle actions consumed, the relative
    posterior error of the range basis, and the worst interpolation residual.
    ``predicted_actions`` is the closed-form count from those realized
    numbers and must equal ``total_actions``.
    """

    dims: tuple
    ranks: tuple
    oversampling: int
    seed: int
    stages: list = field(default_factory=list)
    total_actions: int = 0
    predicted_actions: int = 0
    converged: bool = True


def check_slack(oversampling, tau_extra):
    """Refuse a negative ``oversampling`` or ``tau_extra`` with ShapeError."""
    for name, value in (("oversampling", oversampling), ("tau_extra", tau_extra)):
        if value < 0:
            raise ShapeError(f"{name} must be >= 0, got {value}")


def required_tau(rank, mode_size, tau_extra=DEFAULT_TAU_EXTRA):
    """Interpolation sets needed at a stage: ceil(r / N) plus slack."""
    return math.ceil(rank / mode_size) + tau_extra


def predicted_action_count(
    dims, ranks, oversampling=DEFAULT_OVERSAMPLING, tau_extra=DEFAULT_TAU_EXTRA
):
    """Closed-form number of oracle actions for a fixed-rank build.

    For d >= 3 modes with internal ranks (r_1, ..., r_{d-1}) and
    oversampling p:

        (r_1 + p)                                   first core
      + r_1 (r_2 + p)                               second core
      + sum over cores c = 3..d-1 of tau_{c-1} r_{c-1} (r_c + p)
      + tau_{d-1} r_{d-1}                           last core

    with tau_k = ceil(r_k / N_k) + tau_extra.  For d = 2 the count is
    (r_1 + p) + r_1.  A scalar rank is broadcast, and the ranks are first
    cut as :func:`build_ranks` cuts them.  The law reads only its
    arguments, so its refusals are configuration errors: a negative p or
    ``tau_extra``, and ranks the builder would refuse, raise
    :class:`~ttaction.errors.ShapeError`.
    """
    check_slack(oversampling, tau_extra)
    ranks = build_ranks(dims, ranks)
    total = 0
    for c in range(1, len(dims) + 1):
        # prefixes saturating modes 1..c-1, times samples of the free rest
        if c == 1:
            prefixes = 1
        else:
            tau = 1
            if c >= 3:
                tau = required_tau(ranks[c - 2], dims[c - 2], tau_extra)
                _check_sets(tau, ranks[c - 3], c)
                _check_span(ranks[c - 2], dims[c - 3], dims[c - 2], c)
            prefixes = tau * ranks[c - 2]
        total += prefixes * (ranks[c - 1] + oversampling if c < len(dims) else 1)
    return total


def build_ranks(dims, ranks):
    """The internal ranks a fixed-rank build realizes: fixed ranks are bounds.

    Each r_k is cut at its unfolding's cap (:func:`unfolding_caps`) and at
    the r_{k-1} N_k rows stage k samples, r_{k-1} already cut; the build
    realizes exactly these ranks.  A scalar rank is broadcast.  Mode sizes
    are checked first (:func:`~ttaction.core._check_dims`), so the law, builds
    and their callers refuse a shape no train can have with one message.
    """
    dims = _check_dims(dims)
    realized, rows = [], 1
    for n, r, cap in zip(dims, rank_list(ranks, len(dims)), unfolding_caps(dims)):
        rows = min(r, cap, rows * n)
        realized.append(rows)
    return realized


def _check_sets(tau, rank, stage):
    """Refuse ``tau`` sets at ``stage`` drawn from core stage-2 of smaller rank.

    Recovering would mean re-running earlier stages at other ranks, which
    the builder does not attempt.
    """
    if tau > rank:
        raise ShapeError(
            f"ranks refused by the action-count law: stage {stage} needs {tau} "
            f"interpolation sets but core {stage - 2} has rank {rank}; "
            "earlier ranks would have to grow"
        )


def _check_span(rank, n_before, n_last, stage):
    """Refuse a rank the interpolation prefixes of ``stage`` cannot reach.

    Every prefix contracts cores 1..stage-3 with their first fibers and core
    stage-2 with one of its fibers, so the prefixes span at most
    N_{stage-2} dimensions and the interpolation system has rank at most
    N_{stage-2} N_{stage-1}.
    """
    if rank > n_before * n_last:
        raise ShapeError(
            f"ranks refused by the action-count law: stage {stage} interpolates "
            f"rank {rank} but its prefixes reach at most {n_before} x {n_last} "
            f"= {n_before * n_last}"
        )


def interpolation_set(cores, tau):
    """Saturating blocks and partial-map matrices for interpolation after ``cores``.

    Parameters
    ----------
    cores : list of ndarray
        The built cores 1..level, each (left_rank, mode_size, right_rank),
        where ``level = len(cores) >= 2`` is the depth of the partially
        built map.
    tau : int
        Number of interpolation sets, at most the rank of core ``level - 1``.

    Returns
    -------
    fixed : list of ndarray
        One (N_j, tau) block per mode j = 1..level-1; column i saturates
        those modes for set i.  Modes 1..level-2 take the first fiber of
        their core in every column, and mode level-1 takes fiber i of core
        level-1 in column i.
    a_mats : ndarray
        ``A_i = T_level(fixed[:, i]..., .)`` stacked as (tau, N_level,
        r_level), computed from the cores alone (no oracle actions).
    """
    level = len(cores)
    if level < 2:
        raise ShapeError(f"need at least 2 built cores, got {level}")
    prev = cores[level - 2]
    _check_sets(tau, prev.shape[2], level + 1)
    fixed = [np.repeat(c[0, :, :1], tau, axis=1) for c in cores[: level - 2]]
    fixed.append(prev[0, :, :tau])
    prefix = prefix_contract(cores[: level - 1], fixed)
    a, n, b = cores[level - 1].shape
    a_mats = prefix @ cores[level - 1].reshape(a, n * b)
    return fixed, a_mats.reshape(tau, n, b)


def solve_interpolation(a_mats):
    """Minimum-norm vectors eta with  sum_i A_i^T eta_i = e_j  for every j.

    Stacks the transposed partial-map matrices, factorizes with column-pivoted
    QR, and completes to the minimum-norm solution.  Returns the solution as
    an array of shape (tau, N, r) indexed (set, mode entry, target) plus the
    worst residual over targets; residuals beyond 1e-6 raise
    :class:`~ttaction.errors.InterpolationError`.
    """
    tau = len(a_mats)
    n, r = a_mats[0].shape
    stacked = np.concatenate([a.T for a in a_mats], axis=1)  # (r, tau n)
    q, rr, piv = scipy.linalg.qr(
        stacked.T, mode="economic", pivoting=True, check_finite=False
    )
    diag = np.abs(np.diag(rr))
    if diag.size == 0 or diag.min() <= diag.max() * 1e-14:
        raise InterpolationError(
            "interpolation system is numerically rank deficient",
            residual=float("inf"),
        )
    # stacked.T[:, piv] = q rr  =>  stacked = P rr^T q^T with P = I[:, piv]
    target = np.eye(r)[piv, :]
    sol = q @ scipy.linalg.solve_triangular(rr, target, trans="T", check_finite=False)
    resid = float(np.linalg.norm(stacked @ sol - np.eye(r), axis=0).max())
    if resid > 1e-6:
        raise InterpolationError(
            f"interpolation residual {resid:.3e} exceeds 1.000e-06",
            residual=resid,
        )
    return sol.reshape(tau, n, r), resid


def _find_range(problem, rank, config):
    """Run the fixed-rank or adaptive range finder for one stage."""
    if rank is not None:
        return randomized_range(problem, rank, oversampling=config.oversampling)
    return adaptive_range(problem, config.tol, oversampling=config.oversampling)


def tt_from_actions(oracle, config):
    """Build a tensor train for ``oracle`` using only full actions.

    Parameters
    ----------
    oracle : ActionOracle
        The tensor, d >= 2 modes.  Its counter is read before and after each
        stage for the report but is never reset.
    config : BuildConfig
        A negative ``oversampling`` or ``tau_extra``, and fixed ranks that
        :func:`predicted_action_count` refuses, raise
        :class:`~ttaction.errors.ShapeError` before any action.  A failure
        inside a running stage, a refusal of adaptive ranks included, is
        raised as :class:`~ttaction.errors.BuildStageError`.  Fixed ranks are
        upper bounds: the build realizes :func:`build_ranks` of them.

    Returns
    -------
    (TensorTrain, BuildReport)
        Cores 1..d-1 have column-orthonormal unfoldings.  The report's
        ``predicted_actions`` equals the observed total exactly.

    Notes
    -----
    For d = 2 the build reduces to a randomized SVD: an orthonormal column
    basis from sampled actions, then one block of actions, a column per
    basis vector, to read off the second factor.
    """
    if (config.ranks is None) == (config.tol is None):
        raise ShapeError("exactly one of ranks and tol must be set")
    check_slack(config.oversampling, config.tau_extra)
    dims = oracle.dims
    d = oracle.order
    ranks = None if config.ranks is None else build_ranks(dims, config.ranks)
    if ranks is not None:
        # ranks the count law refuses are refused before the first action
        predicted_action_count(dims, ranks, config.oversampling, config.tau_extra)

    report = BuildReport(
        dims=dims,
        ranks=(),
        oversampling=config.oversampling,
        seed=config.seed,
    )
    start_count = oracle.action_count
    cores = []

    def stage(c):
        # prefix: one (N_k, R tau) block per mode 1..c-1; column j tau + i
        # saturates those modes for set i of row j, and the sum of a row's
        # tau actions gives block j of the mode-c unfolding
        if c == 1:
            prefix, tau, resid = [], None, None
        elif c == 2:
            # exact interpolation through the orthonormal first core
            prefix, tau, resid = [cores[0][0]], 1, 0.0
        else:
            r_prev = cores[-1].shape[2]
            tau = required_tau(r_prev, dims[c - 2], config.tau_extra)
            fixed, a_mats = interpolation_set(cores, tau)
            eta, resid = solve_interpolation(a_mats)
            prefix = [np.tile(v, r_prev) for v in fixed]
            prefix.append(eta.transpose(1, 2, 0).reshape(dims[c - 2], -1))
        prefix = [v[:, :, None] for v in prefix]
        sets = tau or 1
        n_rows = (prefix[0].shape[1] if prefix else 1) // sets

        def evaluate(blocks):
            # one action, prefixes (N, W, 1) against samples (N, 1, S); each
            # row's sets are summed left to right into one array whose row
            # r N_c + i is entry i of row r's block of the unfolding
            out = oracle.action(c, [*prefix, *(v[:, None, :] for v in blocks)])
            out = out.reshape(dims[c - 1], n_rows, sets, -1)
            total = np.zeros((n_rows, dims[c - 1], out.shape[3]))
            for i in range(sets):
                total += out[:, :, i].transpose(1, 0, 2)
            return total.reshape(n_rows * dims[c - 1], -1)

        info = {
            "rank": None,
            "tau": tau,
            "posterior_error": None,
            "interp_residual": resid,
            "converged": True,
        }
        if c == d:
            # the last core is read off: one action, S = 1
            cores.append(evaluate([]).reshape(n_rows, dims[c - 1], 1))
            return info
        problem = RangeProblem(
            evaluate=evaluate,
            input_dims=dims[c:],
            output_dim=n_rows * dims[c - 1],
            seed=subseed(config.seed, c),
        )
        basis = _find_range(problem, None if ranks is None else ranks[c - 1], config)
        cores.append(basis.basis.reshape(n_rows, dims[c - 1], basis.rank))
        info.update(
            rank=basis.rank, posterior_error=basis.error, converged=basis.converged
        )
        return info

    for c in range(1, d + 1):
        before = oracle.action_count
        try:
            info = stage(c)
        except Exception as exc:
            raise BuildStageError(c, exc) from exc
        info["core"] = c
        info["actions"] = oracle.action_count - before
        report.stages.append(info)

    report.ranks = tuple(c.shape[2] for c in cores[:-1])
    report.total_actions = oracle.action_count - start_count
    report.predicted_actions = predicted_action_count(
        dims, report.ranks, config.oversampling, config.tau_extra
    )
    report.converged = all(s["converged"] for s in report.stages)
    return TensorTrain(cores), report

