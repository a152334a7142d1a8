"""Dense references the tests check the library against.

The library never densifies a tensor; these helpers do, so they live here.
``tt_svd`` runs its own left-to-right sweep over the dense unfoldings, so
``tt_round`` is checked against a TT-SVD that does not share its loop.
"""

import numpy as np

from ttaction import TensorTrain
from ttaction.core import _check_dims, _truncated_svd, rank_list, unfolding_caps
from ttaction.errors import ShapeError, ZeroNormError


def tt_to_dense(tt):
    """The train's full array: the product of its core chain, reshaped."""
    out = tt.cores[0]
    for c in tt.cores[1:]:
        r = c.shape[0]
        out = out.reshape(-1, r) @ c.reshape(r, -1)
    return out.reshape(tt.dims)


def frobenius(array):
    """Frobenius norm of a dense array of any order."""
    return float(np.linalg.norm(np.asarray(array).ravel()))


def relative_error(reference, candidate):
    """Relative Frobenius distance ``||reference - candidate|| / ||reference||``."""
    reference = np.asarray(reference, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    if reference.shape != candidate.shape:
        raise ShapeError(f"shape mismatch: {reference.shape} vs {candidate.shape}")
    denom = frobenius(reference)
    if denom == 0.0:
        raise ZeroNormError("reference tensor has zero norm")
    return frobenius(reference - candidate) / denom


def tt_dense_error(dense, tt):
    """Relative distance ``||dense - tt|| / ||dense||`` of a dense tensor and a train."""
    return relative_error(dense, tt_to_dense(tt))


def tt_svd(tensor, ranks=None):
    """TT-SVD of a dense tensor: left-to-right truncated SVDs of its unfoldings.

    ``ranks`` may be a scalar, which is broadcast; without it every rank is
    what its unfolding supports, and the train is exact.
    """
    tensor = np.asarray(tensor, dtype=float)
    dims = tensor.shape
    ranks = rank_list(unfolding_caps(dims) if ranks is None else ranks, len(dims))
    cores = []
    current, left = tensor, 1
    for k, rank in enumerate(ranks):
        u, s, vt = _truncated_svd(current.reshape(left * dims[k], -1), rank=rank)
        cores.append(u.reshape(left, dims[k], -1))
        current, left = s[:, None] * vt, u.shape[1]
    cores.append(current.reshape(left, dims[-1], 1))
    return TensorTrain(cores)


def hilbert_dense(dims):
    """The Hilbert tensor 1 / (i_1 + ... + i_d), 1-based, as a dense array."""
    dims = _check_dims(dims)
    out = np.zeros(dims)
    for k, n in enumerate(dims):
        shape = [1] * len(dims)
        shape[k] = n
        out += np.arange(1, n + 1, dtype=float).reshape(shape)
    return 1.0 / out


def entry_count(tt):
    """Total number of stored core entries."""
    return sum(c.size for c in tt.cores)


def left_orthogonality_defect(tt):
    """Worst ``||Q_k^T Q_k - I||_max`` over cores k < d as (r_{k-1} N_k, r_k) matrices."""
    worst = 0.0
    for c in tt.cores[:-1]:
        q = c.reshape(-1, c.shape[2])
        g = q.T @ q
        worst = max(worst, float(np.abs(g - np.eye(g.shape[0])).max()))
    return worst
