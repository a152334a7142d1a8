"""Derivative-based polynomial surrogates and their error statistics."""

import numpy as np
import pytest

from ttaction import oracle_from_dense
from ttaction.errors import ShapeError, ZeroNormError
from ttaction.hovd import (
    ReactionDiffusionModel,
    TaylorSurrogate,
    WhitenedMap,
    build_taylor_surrogate,
    jacobian_rsvd,
    taylor_error_stats,
    taylor_eval,
)


def test_jacobian_rsvd_recovers_low_rank_matrix():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((14, 4)) @ rng.standard_normal((4, 11))
    # oracle modes: (input slot, output slot); the factors are of the
    # forward map, outputs by inputs
    oracle = oracle_from_dense(mat.T)
    u, s, vt = jacobian_rsvd(oracle, rank=4, oversampling=3, seed=0)
    np.testing.assert_allclose(u @ (s[:, None] * vt), mat, atol=1e-10)
    assert oracle.action_count == (4 + 3) + 4
    np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(vt @ vt.T, np.eye(4), atol=1e-12)
    assert (np.diff(s) <= 0).all()


def test_jacobian_rsvd_deterministic():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((10, 8))
    runs = [jacobian_rsvd(oracle_from_dense(mat), rank=5, seed=7) for _ in range(2)]
    for a, b in zip(runs[0], runs[1]):
        assert np.array_equal(a, b)


def test_jacobian_rsvd_requires_two_modes():
    with pytest.raises(ShapeError):
        jacobian_rsvd(oracle_from_dense(np.zeros((3, 3, 3))), rank=2)


def surrogate_fixture(order=3, rank=6, n=5):
    model = ReactionDiffusionModel(n)
    whitener = WhitenedMap(model)
    surrogate, reports = build_taylor_surrogate(
        model, order=order, rank=rank, seed=0, whitener=whitener
    )
    return model, whitener, surrogate, reports


def test_surrogate_structure():
    model, _, surrogate, reports = surrogate_fixture()
    assert isinstance(surrogate, TaylorSurrogate)
    assert surrogate.order == 3
    assert surrogate.input_dim == model.n_m
    assert set(surrogate.trains) == {2, 3}
    assert surrogate.trains[2].dims == (model.n_m, model.n_m, model.n_q)
    assert set(reports) == {1, 2, 3}
    assert reports[2].total_actions == reports[2].predicted_actions


def test_eval_at_zero_is_base():
    _, _, surrogate, _ = surrogate_fixture(order=2)
    zero = np.zeros(surrogate.input_dim)
    np.testing.assert_array_equal(taylor_eval(surrogate, zero), surrogate.base)
    np.testing.assert_array_equal(taylor_eval(surrogate, zero, order=0), surrogate.base)


def test_eval_orders_nest():
    _, _, surrogate, _ = surrogate_fixture(order=3)
    x = np.random.default_rng(2).standard_normal(surrogate.input_dim)
    full = taylor_eval(surrogate, x)
    np.testing.assert_array_equal(full, taylor_eval(surrogate, x, order=3))
    # linear part alone matches the jacobian factors
    u, s, vt = surrogate.jacobian
    np.testing.assert_allclose(
        taylor_eval(surrogate, x, order=1), surrogate.base + u @ (s * (vt @ x)), atol=1e-12
    )
    with pytest.raises(ShapeError):
        taylor_eval(surrogate, x, order=4)


def test_error_stats_normalization_and_decrease():
    model, whitener, surrogate, _ = surrogate_fixture(order=3, rank=8, n=5)
    stats = taylor_error_stats(surrogate, whitener.evaluate, n_samples=20, seed=3)
    assert stats["orders"] == [0, 1, 2, 3]
    assert stats["means"][0] == pytest.approx(1.0, abs=1e-12)
    # each added order helps on this smooth map
    means = stats["means"]
    assert means[1] < 0.5 * means[0]
    assert means[2] < means[1]
    assert stats["errors"].shape == (4, 20)
    assert stats["normalizer"] > 0.0


def test_error_stats_requested_orders_and_validation():
    _, whitener, surrogate, _ = surrogate_fixture(order=2)
    stats = taylor_error_stats(
        surrogate, whitener.evaluate, n_samples=4, seed=1, orders=[0, 2]
    )
    assert stats["orders"] == [0, 2]
    assert stats["errors"].shape == (2, 4)
    with pytest.raises(ShapeError):
        taylor_error_stats(surrogate, whitener.evaluate, n_samples=0)
    truths = []

    def truth(x):
        truths.append(x)
        return whitener.evaluate(x)

    for orders in ([0, 7], [-1]):
        with pytest.raises(ShapeError):
            taylor_error_stats(surrogate, truth, n_samples=50, orders=orders)
    assert not truths  # refused before any truth solve


def test_error_stats_zero_map_rejected():
    surrogate = TaylorSurrogate(
        base=np.zeros(3),
        jacobian=(np.zeros((3, 1)), np.zeros(1), np.zeros((1, 4))),
        order=1,
    )
    with pytest.raises(ZeroNormError):
        taylor_error_stats(surrogate, lambda x: np.zeros(3), n_samples=3)


def test_build_validation():
    model = ReactionDiffusionModel(5)
    with pytest.raises(ShapeError):
        build_taylor_surrogate(model, order=0, rank=4)
