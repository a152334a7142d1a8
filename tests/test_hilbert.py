"""Hilbert tensor: entries, exact train, convolution-based action, error curves."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ttaction.hilbert
from ttaction import (
    BuildConfig,
    oracle_from_dense,
    tt_from_actions,
    tt_relative_error,
    tt_round,
)
from ttaction.errors import ShapeError
from ttaction.hilbert import DEFAULT_DIMS, _hankel_factors, hilbert_oracle, hilbert_train

from dense_reference import hilbert_dense, tt_dense_error, tt_svd, tt_to_dense


def test_entries_one_based():
    t = hilbert_dense((3, 4))
    assert t[0, 0] == 0.5  # 1 / (1 + 1)
    assert t[1, 2] == 1.0 / 5.0
    five = hilbert_dense((2, 2, 2, 2, 2))
    assert five[0, 0, 0, 0, 0] == pytest.approx(0.2)
    assert five[1, 1, 1, 1, 1] == pytest.approx(0.1)


def test_default_dims():
    assert DEFAULT_DIMS == (41, 42, 43, 44, 45)


def test_dense_validation():
    for make in (hilbert_dense, hilbert_train):
        with pytest.raises(ShapeError):
            make((7,))
        with pytest.raises(ShapeError):
            make((4, 0))


@pytest.mark.parametrize("dims", [(6, 7), (5, 6, 7), (4, 5, 4, 6), (1, 3, 2)])
def test_train_is_exact(dims):
    train = hilbert_train(dims)
    # rank k is one more than the largest partial index sum over modes 1..k
    assert list(train.ranks) == list(np.cumsum([n - 1 for n in dims[:-1]]) + 1)
    np.testing.assert_allclose(tt_to_dense(train), hilbert_dense(dims), rtol=1e-15)


@pytest.mark.parametrize("dims", [(6, 7), (5, 6, 7), (4, 5, 4, 6)])
def test_oracle_matches_dense_action(dims):
    rng = np.random.default_rng(len(dims))
    dense = hilbert_dense(dims)
    oracle = hilbert_oracle(dims)
    for mode in range(1, len(dims) + 1):
        vectors = [rng.standard_normal(n) for j, n in enumerate(dims) if j != mode - 1]
        np.testing.assert_allclose(
            oracle.action(mode, vectors),
            oracle_from_dense(dense).action(mode, vectors),
            atol=1e-12,
        )
    assert oracle.action_count == len(dims)


def _direct_action(dims, mode, vectors):
    """out[z] = sum_s c[s] / (d + z + s), c the direct convolution of the vectors."""
    conv = vectors[0]
    for v in vectors[1:]:
        conv = np.convolve(conv, v)
    n = dims[mode - 1]
    weights = 1.0 / (len(dims) + np.arange(n + conv.size - 1))
    return np.correlate(weights, conv, mode="valid")


@pytest.mark.parametrize(
    "dims",
    # (1, 1), (1, 2) and (2, 1, 1) have nfft 1 and 2, where only the DC and
    # Nyquist weights are left; (3, 40) and (200, 3, 3) are lopsided
    [(6, 7), DEFAULT_DIMS, (100,) * 6, (1, 1), (1, 2), (2, 1, 1), (3, 40), (200, 3, 3)],
)
def test_block_equals_single_actions(dims):
    rng = np.random.default_rng(11)
    oracle = hilbert_oracle(dims)
    width = 5
    for mode in range(1, len(dims) + 1):
        blocks = [rng.standard_normal((n, width)) for k, n in enumerate(dims, 1) if k != mode]
        before = oracle.action_count
        got = oracle.action(mode, blocks)
        assert got.shape == (dims[mode - 1], width)
        assert oracle.action_count == before + width
        for j in range(width):
            column = [v[:, j].copy() for v in blocks]
            for want in (oracle.action(mode, column), _direct_action(dims, mode, column)):
                assert np.linalg.norm(got[:, j] - want) <= 1e-10 * np.linalg.norm(want)


def _hankel(dims, n):
    """The dense (n, size) Hankel matrix H[z, s] = 1 / (d + z + s) of free-mode size n."""
    d = len(dims)
    size = sum(dims) - n - d + 2
    return 1.0 / (d + np.add.outer(np.arange(n), np.arange(size)))


@pytest.mark.parametrize("dims", [(1, 2), (3, 40), DEFAULT_DIMS, (100,) * 6])
def test_hankel_factors_keep_the_numerical_rank_and_fold_the_inverse_fft(dims):
    rng = np.random.default_rng(8)
    d = len(dims)
    weights = 1.0 / (d + np.arange(sum(dims) - d + 1, dtype=float))
    for n in sorted(set(dims)):
        hankel = _hankel(dims, n)
        size = hankel.shape[1]
        nfft, left, right = _hankel_factors(weights, n, size)
        assert nfft == 1 << (size - 1).bit_length()
        sigma = np.linalg.svd(hankel, compute_uv=False)
        k = np.count_nonzero(sigma > np.finfo(float).eps * sigma[0])
        assert left.shape == (n, k) and right.shape == (k, 2 * (nfft // 2 + 1))
        if dims in (DEFAULT_DIMS, (100,) * 6):
            assert k <= 25  # 17 and 20 measured
        # any real spectrum: the imaginary parts of the DC and Nyquist bins are ignored
        spectrum = np.fft.rfft(rng.standard_normal((nfft, 4)), axis=0)
        spectrum += 1j * rng.standard_normal(spectrum.shape)
        want = hankel @ np.fft.irfft(spectrum, nfft, axis=0)[:size]
        got = left @ (right @ np.concatenate([spectrum.real, spectrum.imag]))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_hankel_is_factored_once_per_mode_size_and_never_during_a_build(monkeypatch):
    calls = []

    def counted(mat, *args, **kwargs):
        calls.append(mat.shape)
        return truncated_svd(mat, *args, **kwargs)

    truncated_svd = ttaction.hilbert._truncated_svd
    monkeypatch.setattr(ttaction.hilbert, "_truncated_svd", counted)
    for dims, rank in (((100,) * 6, 20), (DEFAULT_DIMS, 10)):
        calls.clear()
        oracle = hilbert_oracle(dims)
        assert len(calls) == len(set(dims))  # 1, then 5
        assert sorted(calls) == sorted({_hankel(dims, n).shape for n in dims})
        calls.clear()
        tt_from_actions(oracle, BuildConfig(ranks=rank, seed=0))
        assert calls == []


_HASH_BUILDS = """
import hashlib, json
import numpy as np
from ttaction import BuildConfig, tt_from_actions
from ttaction.hilbert import DEFAULT_DIMS, hilbert_oracle
digests = []
for dims, rank in (((100,) * 6, 20), (DEFAULT_DIMS, 10)):
    train, _ = tt_from_actions(hilbert_oracle(dims), BuildConfig(ranks=rank, seed=0))
    digest = hashlib.sha256()
    for core in train.cores:
        digest.update(np.ascontiguousarray(core).tobytes())
    digests.append(digest.hexdigest())
print(json.dumps(digests))
"""


def test_builds_are_hash_identical_at_one_and_two_blas_threads():
    src = str(Path(ttaction.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_BUILDS], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads(proc.stdout))
    assert digests[0] == digests[1]


def test_error_curve_matches_per_rank_tt_svd():
    dims = (8, 9, 10)
    exact = hilbert_train(dims)
    dense = hilbert_dense(dims)
    for rank in range(2, 7):
        error = tt_relative_error(exact, tt_round(exact, ranks=rank))
        direct = tt_dense_error(dense, tt_svd(dense, ranks=rank))
        assert direct > 1e-11
        assert error == pytest.approx(direct, rel=1e-8)


def test_error_curve_monotone_and_small():
    exact = hilbert_train((10, 11, 12))
    errors = [
        tt_relative_error(exact, tt_round(exact, ranks=rank)) for rank in range(2, 9)
    ]
    assert all(a >= b - 1e-14 for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-7  # fast singular value decay


def test_randomized_build_tracks_svd_error():
    dims = (10, 11, 12)
    dense = hilbert_dense(dims)
    oracle = hilbert_oracle(dims)
    built, report = tt_from_actions(oracle, BuildConfig(ranks=[4, 4], seed=0))
    rsvd_error = tt_dense_error(dense, built)
    svd_error = tt_dense_error(dense, tt_svd(dense, ranks=[4, 4]))
    assert rsvd_error < 10.0 * svd_error
    assert report.total_actions == oracle.action_count
