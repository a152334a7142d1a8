"""The Hilbert tensor and its matrix-free action.

The tensor has entries 1 / (i_1 + ... + i_d) with 1-based indices, the
d-mode generalization of the Hilbert matrix.  Its special structure makes the
action cheap without ever materializing entries: contracting all modes but
one reduces to a convolution of the saturating vectors followed by a
correlation against the reciprocal weights 1 / (d + t).  The same structure
gives an exact tensor train whose rank index is the partial index sum.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .core import ActionOracle, TensorTrain, _check_dims

#: Mode sizes used by the compression experiment.
DEFAULT_DIMS = (41, 42, 43, 44, 45)


def hilbert_dense(dims):
    """Materialize the Hilbert tensor with the given mode sizes.

    Builds the index-sum grid in place, so the peak footprint is a single
    float64 array of ``prod(dims)`` entries.  The caller is responsible for
    choosing sizes that fit in memory; the library itself uses
    :func:`hilbert_train`, and this dense form is the reference tests
    compare against.
    """
    dims = _check_dims(dims)
    out = np.zeros(dims)
    for k, n in enumerate(dims):
        shape = [1] * len(dims)
        shape[k] = n
        out += np.arange(1, n + 1, dtype=float).reshape(shape)
    np.divide(1.0, out, out=out)
    return out


def hilbert_train(dims):
    """The Hilbert tensor as an exact tensor train, built without its entries.

    With 0-based offsets z_j = i_j - 1, the rank index after mode k is the
    partial sum a = z_1 + ... + z_k: every core but the last maps rank index
    a to a + z_k, and the last core holds 1 / (d + a + z_d).  Rank k is
    therefore 1 + sum_{j <= k} (N_j - 1), a few hundred at most for the
    experiment's sizes.  Rounding this train with :func:`~ttaction.core.tt_round`
    gives the TT-SVD of the tensor: the unfoldings, and so their singular
    values, are the same.
    """
    dims = _check_dims(dims)
    cores = []
    left = 1
    for n in dims[:-1]:
        core = np.zeros((left, n, left + n - 1))
        a, z = np.meshgrid(np.arange(left), np.arange(n), indexing="ij")
        core[a, z, a + z] = 1.0
        cores.append(core)
        left += n - 1
    sums = np.arange(left)[:, None] + np.arange(dims[-1])
    cores.append((1.0 / (len(dims) + sums))[:, :, None])
    return TensorTrain(cores)


def hilbert_oracle(dims):
    """Action oracle for the Hilbert tensor, never materializing entries.

    With 0-based offsets z_j = i_j - 1 an entry is 1 / (d + sum z_j), so the
    action in the free mode is

        out[z] = sum_s c[s] / (d + z + s),

    where c is the full convolution of the saturating vectors.  One action
    costs O(N^2) instead of the O(N^d) of a dense contraction.
    """
    dims = tuple(int(n) for n in dims)
    d = len(dims)

    def apply_fn(free_mode, vectors):
        conv = reduce(np.convolve, vectors)
        n_free = dims[free_mode - 1]
        weights = 1.0 / (d + np.arange(n_free + conv.size - 1, dtype=float))
        return np.correlate(weights, conv, mode="valid")

    return ActionOracle(dims, apply_fn)
