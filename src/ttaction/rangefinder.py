"""Randomized range finding for vector-valued multilinear maps.

The object of study is a map F taking several input vectors to one output
vector and linear in each input.  Feeding independent Gaussian vectors into
every slot yields output samples whose span estimates the range of F; an SVD
of the sample matrix gives an orthonormal basis.  This generalizes the
randomized range finder for matrices, which is the one-input special case.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceWarning, DegenerateRangeError, RankClampWarning, ShapeError
from .core import _truncated_svd

#: Default number of extra samples beyond the requested rank.
DEFAULT_OVERSAMPLING = 5


@dataclass
class RangeProblem:
    """A sampled multilinear map.

    Parameters
    ----------
    evaluate : callable
        ``evaluate(blocks) -> ndarray`` of shape ``(output_dim, s)``:
        ``blocks`` holds one (N_k, s) matrix per entry of ``input_dims``,
        whose column j is sample j's standard-normal input, and column j of
        the result is that sample's output.  A range finder asks for all
        its samples in one call, so an action-backed map serves them as one
        broadcast action.
    input_dims : tuple of int
        Length of each random input vector.
    output_dim : int
        Length of the output samples.
    seed : int
        Root seed.  Sample ``i`` always draws its inputs from a generator
        keyed by ``(seed, i)``, so enlarging a sample set reuses earlier
        samples and results do not depend on evaluation order.
    """

    evaluate: object
    input_dims: tuple
    output_dim: int
    seed: int = 0

    def sample_inputs(self, index):
        """Standard-normal input vectors for sample ``index``."""
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, index)))
        return [rng.standard_normal(n) for n in self.input_dims]


@dataclass
class RangeBasis:
    """Result of a range-finding pass.

    ``basis`` has orthonormal columns spanning the estimated range;
    ``samples`` keeps the raw outputs (one column per sample) and ``error``
    is the :func:`posterior_error` of the basis on them, computed once when
    the basis is found.  ``converged`` is False only when an adaptive search
    hit its rank ceiling without meeting the tolerance.
    """

    basis: np.ndarray
    samples: np.ndarray
    error: float
    converged: bool = True

    @property
    def rank(self):
        return self.basis.shape[1]


def _collect_samples(problem, indices):
    """The (output_dim, len(indices)) samples of the listed indices, one evaluation."""
    inputs = [problem.sample_inputs(i) for i in indices]
    out = problem.evaluate([np.stack(vs, axis=1) for vs in zip(*inputs)])
    out = np.ascontiguousarray(out, dtype=float)
    shape = (problem.output_dim, len(indices))
    if out.shape != shape:
        raise ShapeError(f"evaluate returned shape {out.shape}, expected {shape}")
    return out


def _orthobasis(samples, rank):
    """Leading ``rank`` left singular vectors of the sample matrix, sign-fixed."""
    # adaptive_range starts at rank 2 even on a one-dimensional output
    u, s, _ = _truncated_svd(samples, rank=min(rank, len(samples)))
    if s[-1] == 0.0:
        raise DegenerateRangeError(
            f"sample matrix has a zero singular value within rank {rank}"
        )
    return u


def randomized_range(problem, rank, oversampling=DEFAULT_OVERSAMPLING):
    """Estimate an orthonormal range basis from ``rank + oversampling`` samples.

    Evaluates the map once, on ``rank + oversampling`` samples.  The
    basis is the first ``rank`` left singular vectors of the sample matrix,
    each column signed so its largest-magnitude entry is positive.  A rank
    beyond the output dimension is clamped with a warning.
    """
    if rank < 1:
        raise ShapeError(f"rank must be positive, got {rank}")
    if oversampling < 0:
        raise ShapeError(f"oversampling must be >= 0, got {oversampling}")
    if rank > problem.output_dim:
        warnings.warn(
            f"rank {rank} exceeds output dimension {problem.output_dim}; clamped",
            RankClampWarning,
            stacklevel=2,
        )
        rank = problem.output_dim
    samples = _collect_samples(problem, range(rank + oversampling))
    basis = _orthobasis(samples, rank)
    return RangeBasis(basis, samples, posterior_error(basis, samples))


def posterior_error(basis, samples):
    """Worst-sample residual outside the span of ``basis``, relative.

    ``basis`` is an array U with orthonormal columns.  Returns ``max_i ||y_i
    - U U^T y_i||`` over the sample columns divided by ``max_i ||y_i||``.
    Reuses the samples already paid for; no new evaluations.
    """
    samples = np.asarray(samples, dtype=float)
    resid = samples - basis @ (basis.T @ samples)
    worst = float(np.linalg.norm(resid, axis=0).max())
    scale = float(np.linalg.norm(samples, axis=0).max())
    if scale == 0.0:
        raise DegenerateRangeError("all samples are zero; no relative error")
    return worst / scale


def adaptive_range(problem, tol, oversampling=DEFAULT_OVERSAMPLING, max_rank=None):
    """Grow the rank one sample at a time until the posterior error meets ``tol``.

    The error is relative to the largest sample.  Starts at rank 2 and reuses
    all previous samples, so finishing at rank r costs exactly
    ``r + oversampling`` samples: one evaluation of the first
    ``2 + oversampling``, then one per growth step.
    If the ceiling ``max_rank`` (default: the output dimension) is reached
    without convergence the basis is returned with ``converged=False`` and a
    :class:`~ttaction.errors.ConvergenceWarning`.
    """
    if tol <= 0:
        raise ShapeError(f"tolerance must be positive, got {tol}")
    if oversampling < 0:
        raise ShapeError(f"oversampling must be >= 0, got {oversampling}")
    ceiling = problem.output_dim if max_rank is None else min(max_rank, problem.output_dim)
    rank = 2
    samples = _collect_samples(problem, range(rank + oversampling))
    while True:
        basis = _orthobasis(samples, rank)
        err = posterior_error(basis, samples)
        if err < tol:
            return RangeBasis(basis, samples, err)
        if rank >= ceiling:
            warnings.warn(
                f"posterior error {err:.3e} above tolerance {tol:.3e} at the "
                f"rank ceiling {ceiling}",
                ConvergenceWarning,
                stacklevel=2,
            )
            return RangeBasis(basis, samples, err, converged=False)
        rank += 1
        more = _collect_samples(problem, [samples.shape[1]])
        samples = np.concatenate((samples, more), axis=1)
