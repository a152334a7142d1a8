"""Hilbert tensor: entries, exact train, convolution-based action, error curves."""

import numpy as np
import pytest

from ttaction import (
    BuildConfig,
    dense_action,
    tt_from_actions,
    tt_relative_error,
    tt_round,
)
from ttaction.errors import ShapeError
from ttaction.hilbert import DEFAULT_DIMS, hilbert_oracle, hilbert_train

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
            dense_action(dense, mode, vectors),
            atol=1e-12,
        )
    assert oracle.action_count == len(dims)


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
