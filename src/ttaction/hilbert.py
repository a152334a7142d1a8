"""The Hilbert tensor and its matrix-free action.

The tensor has entries 1 / (i_1 + ... + i_d) with 1-based indices, the
d-mode generalization of the Hilbert matrix.  Its special structure makes the
action cheap without ever materializing entries: contracting all modes but
one reduces to a convolution of the saturating vectors followed by a
correlation against the reciprocal weights 1 / (d + t).  The same structure
gives an exact tensor train whose rank index is the partial index sum.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ActionOracle, TensorTrain, _check_dims

#: Mode sizes used by the compression experiment.
DEFAULT_DIMS = (41, 42, 43, 44, 45)


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

    where c is the full convolution of the saturating vectors.  A block of
    b actions convolves all its columns at once through one real FFT per
    mode, of one column where the mode's entry is a vector broadcast over
    the block (a stride-0 view), then applies the Hankel matrix
    H[z, s] = w[z + s], read from the one weight vector w[t] = 1 / (d + t),
    to all b convolutions in one product.  One action costs O(N^2) instead
    of the O(N^d) of a dense contraction.
    """
    dims = _check_dims(dims)
    weights = 1.0 / (len(dims) + np.arange(sum(dims) - len(dims) + 1, dtype=float))

    def apply_fn(free_mode, blocks):
        size = sum(v.shape[0] for v in blocks) - len(blocks) + 1
        nfft = 1 << (size - 1).bit_length()
        spectrum = None
        for v in blocks:
            # a vector broadcast over the block (a range-finder sample) is
            # transformed once and its spectrum broadcast in the product
            f = np.fft.rfft(v[:, :1] if v.strides[1] == 0 else v, nfft, axis=0)
            spectrum = f if spectrum is None else spectrum * f
        spectrum = np.broadcast_to(spectrum, (spectrum.shape[0], blocks[0].shape[1]))
        conv = np.fft.irfft(spectrum, nfft, axis=0)[:size]
        hankel = sliding_window_view(weights, size)[: dims[free_mode - 1]]
        return np.ascontiguousarray(hankel) @ conv

    return ActionOracle(dims, apply_fn)
