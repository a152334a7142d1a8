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

from .core import ActionOracle, TensorTrain, _check_dims, _distinct_columns

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
    of the O(N^d) of a dense contraction.  The oracle's lead is the product
    of the spectra of the modes before the free one, so the actions of one
    build stage transform their shared interpolation prefixes once; the
    spectra are still multiplied in mode order.
    """
    dims = _check_dims(dims)
    d = len(dims)
    weights = 1.0 / (d + np.arange(sum(dims) - d + 1, dtype=float))

    def fft_size(free_mode):
        # the convolution of the d - 1 saturating vectors, and its FFT length
        size = sum(dims) - dims[free_mode - 1] - d + 2
        return size, 1 << (size - 1).bit_length()

    def times_spectra(spectrum, blocks, nfft):
        # a vector broadcast over the block (a range-finder sample) is
        # transformed once and its spectrum broadcast in the product
        for v in blocks:
            f = np.fft.rfft(_distinct_columns(v), nfft, axis=0)
            spectrum = f if spectrum is None else spectrum * f
        return spectrum

    def lead_fn(free_mode, lead):
        return times_spectra(None, lead, fft_size(free_mode)[1])

    def apply_fn(free_mode, blocks, lead):
        size, nfft = fft_size(free_mode)
        spectrum = times_spectra(lead, blocks[free_mode - 1:], nfft)
        spectrum = np.broadcast_to(spectrum, (spectrum.shape[0], blocks[0].shape[1]))
        conv = np.fft.irfft(spectrum, nfft, axis=0)[:size]
        hankel = sliding_window_view(weights, size)[: dims[free_mode - 1]]
        return np.ascontiguousarray(hankel) @ conv

    return ActionOracle(dims, apply_fn, lead_fn)
