"""The Hilbert tensor and its matrix-free action.

The tensor has entries 1 / (i_1 + ... + i_d) with 1-based indices, the
d-mode generalization of the Hilbert matrix.  Its special structure makes the
action cheap without ever materializing entries: contracting all modes but
one reduces to a convolution of the saturating vectors followed by a
correlation against the reciprocal weights 1 / (d + t).  The same structure
gives an exact tensor train whose rank index is the partial index sum.
"""

from __future__ import annotations

import math

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

    where c is the full convolution of the saturating vectors: the inverse
    FFT of the product of their spectra.  The correlation is one product
    with the Hankel matrix H[z, s] = w[z + s] of the weights
    w[t] = 1 / (d + t), so one action costs O(N^2) instead of the O(N^d) of
    a dense contraction.  Broadcast entries (N_k, b_0, *rest) are served
    natively: each vector of an entry is transformed once, the leading
    spectra that do not vary along the trailing axes (a build stage's
    prefixes) are multiplied once, and per trailing index the others are
    multiplied in, in mode order, and one Hankel product serves all b_0
    leading columns, so the transient stays one (nfft, b_0) block.  A block
    column therefore agrees with the single action on its vectors only to
    roundoff (up to 2e-14 relative measured), not bitwise: the block's
    Hankel product is a matrix product where a single action's is a
    matrix-vector product.  Train and derivative oracles serve a block
    column with the bits of the single action.
    """
    dims = _check_dims(dims)
    d = len(dims)
    weights = 1.0 / (d + np.arange(sum(dims) - d + 1, dtype=float))

    def apply_fn(free_mode, blocks):
        n = dims[free_mode - 1]
        # the convolution of the d - 1 saturating vectors, and its FFT length
        size = sum(dims) - n - d + 2
        nfft = 1 << (size - 1).bit_length()
        hankel = np.ascontiguousarray(sliding_window_view(weights, size)[:n])
        spectra = [np.fft.rfft(v, nfft, axis=0) for v in blocks]
        batch = np.broadcast_shapes(*(f.shape[1:] for f in spectra))
        lead = None
        while spectra and math.prod(spectra[0].shape[2:]) == 1:
            f = spectra.pop(0)
            f = f.reshape(f.shape[:2])
            lead = f if lead is None else lead * f
        out = np.empty((n, *batch))
        for index in np.ndindex(*batch[1:]):
            spectrum = lead
            for f in spectra:
                # an axis of length 1 broadcasts: it is read at index 0
                f = f[(slice(None), slice(None), *(i % m for i, m in zip(index, f.shape[2:])))]
                spectrum = f if spectrum is None else spectrum * f
            spectrum = np.broadcast_to(spectrum, (spectrum.shape[0], batch[0]))
            conv = np.fft.irfft(spectrum, nfft, axis=0)[:size]
            out[(slice(None), slice(None), *index)] = hankel @ conv
        return out

    return ActionOracle(dims, apply_fn)
