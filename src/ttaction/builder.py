"""Core-by-core construction of a tensor train from actions alone.

The tensor is peeled one mode at a time.  A randomized range finder gives an
orthonormal basis for the current unfolding; interpolation vectors built from
the already-fixed cores then turn the remainder into a new action oracle for
the next mode, so every stage touches the tensor only through full actions.
Action counts follow a closed form in the ranks, oversampling, and the number
of interpolation sets per stage, and the oracle counter is expected to match
it exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import TensorTrain, prefix_contract, subseed
from .errors import (
    BacktrackingRequiredError,
    BuildStageError,
    InterpolationError,
    ShapeError,
)
from .rangefinder import (
    DEFAULT_OVERSAMPLING,
    RangeProblem,
    adaptive_range,
    posterior_error,
    randomized_range,
)


@dataclass
class BuildConfig:
    """Options for :func:`tt_from_actions`.

    Exactly one of ``ranks`` (fixed internal ranks, scalar broadcast) and
    ``tol`` (relative posterior-error target for per-stage adaptive rank
    growth) must be given.  ``tau_extra`` is added to the minimal number of
    interpolation sets ceil(r_k / N_k) each stage needs; the default of 1
    gives two sets in the common r_k < N_k case.
    """

    ranks: object = None
    tol: float = None
    oversampling: int = DEFAULT_OVERSAMPLING
    tau_extra: int = 1
    min_rank: int = 2
    max_rank: int = None
    residual_tol: float = 1e-6
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
    seconds: float = 0.0
    converged: bool = True


def required_tau(rank, mode_size, tau_extra=1):
    """Interpolation sets needed at a stage: ceil(r / N) plus slack."""
    return math.ceil(rank / mode_size) + tau_extra


def predicted_action_count(dims, ranks, oversampling=DEFAULT_OVERSAMPLING, tau_extra=1):
    """Closed-form number of oracle actions for a fixed-rank build.

    For d >= 3 modes with internal ranks (r_1, ..., r_{d-1}) and
    oversampling p:

        (r_1 + p)                                   first core
      + r_1 (r_2 + p)                               second core
      + sum over cores c = 3..d-1 of tau_{c-1} r_{c-1} (r_c + p)
      + tau_{d-1} r_{d-1}                           last core

    with tau_k = ceil(r_k / N_k) + tau_extra.  For d = 2 the count is
    (r_1 + p) + r_1.
    """
    d = len(dims)
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != d - 1:
        raise ShapeError(f"need {d - 1} ranks for {d} modes, got {len(ranks)}")
    total = ranks[0] + oversampling
    if d == 2:
        return total + ranks[0]
    total += ranks[0] * (ranks[1] + oversampling)
    for c in range(3, d):
        k = c - 1  # interpolation level
        tau = required_tau(ranks[k - 1], dims[k - 1], tau_extra)
        total += tau * ranks[k - 1] * (ranks[c - 1] + oversampling)
    tau = required_tau(ranks[d - 2], dims[d - 2], tau_extra)
    return total + tau * ranks[d - 2]


def interpolation_set(cores, level, tau):
    """Fixed vectors and partial-map matrices for interpolation at ``level``.

    Parameters
    ----------
    cores : list of ndarray
        Built cores 1..level, each (left_rank, mode_size, right_rank).
    level : int
        1-based depth k of the partially built map; needs ``level >= 2``.
    tau : int
        Number of interpolation sets, at most the rank of core ``level - 1``.

    Returns
    -------
    psis : list of ndarray
        First fibers of cores 1..level-2, saturating the leading modes.
    xis : list of ndarray
        ``tau`` fibers of core level-1, one per interpolation set.
    a_mats : list of ndarray
        ``A_i = T_level(psis..., xi_i, .)`` as (N_level, r_level) matrices,
        computed from the cores alone (no oracle actions).
    """
    if level < 2 or level > len(cores):
        raise ShapeError(f"level must be in 2..{len(cores)}, got {level}")
    prev = cores[level - 2]
    if tau > prev.shape[2]:
        raise BacktrackingRequiredError(
            f"stage needs {tau} interpolation sets but core {level - 1} has "
            f"rank {prev.shape[2]}; earlier ranks would have to grow"
        )
    psis = [c[0, :, 0] for c in cores[: level - 2]]
    xis = [prev[0, :, i] for i in range(tau)]
    a_mats = []
    for xi in xis:
        prefix = prefix_contract(cores[: level - 1], [*psis, xi])
        a_mats.append(np.einsum("a,anb->nb", prefix, cores[level - 1], optimize=True))
    return psis, xis, a_mats


def solve_interpolation(a_mats, residual_tol=1e-6):
    """Minimum-norm vectors eta with  sum_i A_i^T eta_i = e_j  for every j.

    Stacks the transposed partial-map matrices, factorizes with column-pivoted
    QR, and completes to the minimum-norm solution.  Returns the solution as
    an array of shape (tau, N, r) indexed (set, mode entry, target) plus the
    worst residual over targets; residuals beyond ``residual_tol`` raise
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
    if resid > residual_tol:
        raise InterpolationError(
            f"interpolation residual {resid:.3e} exceeds {residual_tol:.3e}",
            residual=resid,
        )
    return sol.reshape(tau, n, r), resid


def _find_range(problem, rank, config):
    """Run the fixed-rank or adaptive range finder for one stage."""
    if rank is not None:
        basis = randomized_range(problem, rank, oversampling=config.oversampling)
    else:
        basis = adaptive_range(
            problem,
            config.tol,
            oversampling=config.oversampling,
            start_rank=config.min_rank,
            max_rank=config.max_rank,
        )
    err = posterior_error(basis, basis.samples, relative=True)
    return basis, err


def tt_from_actions(oracle, config):
    """Build a tensor train for ``oracle`` using only full actions.

    Parameters
    ----------
    oracle : ActionOracle
        The tensor, d >= 2 modes.  Its counter is read before and after each
        stage for the report but is never reset.
    config : BuildConfig

    Returns
    -------
    (TensorTrain, BuildReport)
        Cores 1..d-1 have column-orthonormal unfoldings.  The report's
        ``predicted_actions`` equals the observed total exactly.

    Notes
    -----
    For d = 2 the build reduces to a randomized SVD: an orthonormal column
    basis from sampled actions, then one action per basis vector to read off
    the second factor.
    """
    if (config.ranks is None) == (config.tol is None):
        raise ShapeError("exactly one of ranks and tol must be set")
    dims = oracle.dims
    d = oracle.order
    ranks = config.ranks
    if ranks is not None and np.isscalar(ranks):
        ranks = [int(ranks)] * (d - 1)
    if ranks is not None and len(ranks) != d - 1:
        raise ShapeError(f"need {d - 1} ranks for {d} modes, got {len(ranks)}")

    report = BuildReport(
        dims=dims,
        ranks=(),
        oversampling=config.oversampling,
        seed=config.seed,
    )
    t0 = time.perf_counter()
    start_count = oracle.action_count
    cores = []
    converged = True

    def run_stage(core_index, fn):
        before = oracle.action_count
        try:
            info = fn()
        except Exception as exc:
            raise BuildStageError(core_index, exc) from exc
        info["core"] = core_index
        info["actions"] = oracle.action_count - before
        report.stages.append(info)
        return info

    # first core: orthonormal basis for the mode-1 unfolding
    def stage_first():
        problem = RangeProblem(
            evaluate=lambda vs: oracle.action(1, vs),
            input_dims=dims[1:],
            output_dim=dims[0],
            seed=subseed(config.seed, 1),
        )
        basis, err = _find_range(problem, None if ranks is None else ranks[0], config)
        cores.append(basis.basis.reshape(1, dims[0], basis.rank))
        return {
            "rank": basis.rank,
            "tau": None,
            "posterior_error": err,
            "interp_residual": None,
            "converged": basis.converged,
        }

    info = run_stage(1, stage_first)
    converged &= info["converged"]

    if d == 2:
        # second factor read off directly: columns of C1 interpolate exactly
        def stage_last_matrix():
            head = cores[0][0]
            rows = [oracle.action(2, [head[:, j]]) for j in range(head.shape[1])]
            cores.append(np.stack(rows)[:, :, None])
            return {
                "rank": None,
                "tau": 1,
                "posterior_error": None,
                "interp_residual": 0.0,
                "converged": True,
            }

        run_stage(2, stage_last_matrix)
    else:
        # second core: exact interpolation through the orthonormal first core
        def stage_second():
            head = cores[0][0]
            r1 = head.shape[1]

            def evaluate(vs):
                blocks = [oracle.action(2, [head[:, j], *vs]) for j in range(r1)]
                return np.concatenate(blocks)

            problem = RangeProblem(
                evaluate=evaluate,
                input_dims=dims[2:],
                output_dim=r1 * dims[1],
                seed=subseed(config.seed, 2),
            )
            basis, err = _find_range(problem, None if ranks is None else ranks[1], config)
            cores.append(basis.basis.reshape(r1, dims[1], basis.rank))
            return {
                "rank": basis.rank,
                "tau": 1,
                "posterior_error": err,
                "interp_residual": 0.0,
                "converged": basis.converged,
            }

        info = run_stage(2, stage_second)
        converged &= info["converged"]

        # middle cores: interpolate the built map, then range-find the rest
        for c in range(3, d):
            def stage_middle(c=c):
                level = c - 1
                r_prev = cores[-1].shape[2]
                tau = required_tau(r_prev, dims[level - 1], config.tau_extra)
                psis, xis, a_mats = interpolation_set(cores, level, tau)
                eta, resid = solve_interpolation(a_mats, config.residual_tol)

                def evaluate(vs):
                    blocks = []
                    for j in range(r_prev):
                        acc = np.zeros(dims[c - 1])
                        for i in range(tau):
                            acc += oracle.action(
                                c, [*psis, xis[i], eta[i, :, j], *vs]
                            )
                        blocks.append(acc)
                    return np.concatenate(blocks)

                problem = RangeProblem(
                    evaluate=evaluate,
                    input_dims=dims[c:],
                    output_dim=r_prev * dims[c - 1],
                    seed=subseed(config.seed, c),
                )
                basis, err = _find_range(
                    problem, None if ranks is None else ranks[c - 1], config
                )
                cores.append(basis.basis.reshape(r_prev, dims[c - 1], basis.rank))
                return {
                    "rank": basis.rank,
                    "tau": tau,
                    "posterior_error": err,
                    "interp_residual": resid,
                    "converged": basis.converged,
                }

            info = run_stage(c, stage_middle)
            converged &= info["converged"]

        # last core: push the interpolation vectors through the final mode
        def stage_last():
            level = d - 1
            r_prev = cores[-1].shape[2]
            tau = required_tau(r_prev, dims[level - 1], config.tau_extra)
            psis, xis, a_mats = interpolation_set(cores, level, tau)
            eta, resid = solve_interpolation(a_mats, config.residual_tol)
            rows = np.zeros((r_prev, dims[d - 1]))
            for j in range(r_prev):
                for i in range(tau):
                    rows[j] += oracle.action(d, [*psis, xis[i], eta[i, :, j]])
            cores.append(rows[:, :, None])
            return {
                "rank": None,
                "tau": tau,
                "posterior_error": None,
                "interp_residual": resid,
                "converged": True,
            }

        run_stage(d, stage_last)

    report.ranks = tuple(c.shape[2] for c in cores[:-1])
    report.total_actions = oracle.action_count - start_count
    report.predicted_actions = predicted_action_count(
        dims, report.ranks, config.oversampling, config.tau_extra
    )
    report.seconds = time.perf_counter() - t0
    report.converged = converged
    return TensorTrain(cores), report

