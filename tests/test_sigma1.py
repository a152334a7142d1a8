"""Largest action-norm estimation and oracle differences."""

import numpy as np
import pytest

from ttaction import (
    ActionOracle,
    TensorTrain,
    oracle_from_dense,
    oracle_from_tt,
    tt_apply,
)
from ttaction.errors import ConvergenceWarning, NonFiniteActionError, ShapeError
from ttaction.hovd import (
    ReactionDiffusionModel,
    make_derivative_oracle,
    oracle_difference,
    sigma1_estimate,
)

from dense_reference import tt_svd


def test_matrix_case_recovers_largest_singular_value():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((12, 9))
    top = np.linalg.svd(mat, compute_uv=False)[0]
    est = sigma1_estimate(oracle_from_dense(mat), seed=0)
    assert abs(est - top) < 1e-6 * top


def test_symmetric_rank_one_tensor():
    # T = w (x) w (x) c has sigma_1 = ||w||^2 ||c|| attained at x = w/||w||
    rng = np.random.default_rng(1)
    w, c = rng.standard_normal(8), rng.standard_normal(5)
    tensor = np.einsum("i,j,k->ijk", w, w, c)
    expect = np.linalg.norm(w) ** 2 * np.linalg.norm(c)
    est = sigma1_estimate(oracle_from_dense(tensor), seed=0)
    assert abs(est - expect) < 1e-7 * expect


def test_homogeneity_is_exact():
    rng = np.random.default_rng(2)
    tensor = rng.standard_normal((7, 7, 6))
    for c in (3.0, 0.125, 7.5):
        base = sigma1_estimate(oracle_from_dense(tensor), seed=1)
        scaled = sigma1_estimate(oracle_from_dense(c * tensor), seed=1)
        assert abs(scaled - c * base) < 1e-8 * max(c * base, 1.0)


def test_result_diagnostics():
    rng = np.random.default_rng(3)
    tensor = rng.standard_normal((6, 6, 5))
    res = sigma1_estimate(oracle_from_dense(tensor), n_starts=3, seed=0, return_info=True)
    assert res.converged
    assert len(res.start_values) == 3
    assert float(res) == res.value
    assert res.value == pytest.approx(np.sqrt(max(res.start_values)))


def test_estimate_upper_bounded_by_operator_norm_samples():
    # the estimate is a max over feasible x, so no sampled x may beat it
    rng = np.random.default_rng(4)
    tensor = rng.standard_normal((8, 8, 7))
    est = sigma1_estimate(oracle_from_dense(tensor), seed=2)
    for s in range(20):
        x = rng.standard_normal(8)
        x /= np.linalg.norm(x)
        val = np.linalg.norm(np.einsum("ijk,i,j->k", tensor, x, x))
        assert val <= est * (1.0 + 1e-7)


def test_nonconvergence_warns():
    rng = np.random.default_rng(5)
    tensor = rng.standard_normal((6, 6, 4))
    with pytest.warns(ConvergenceWarning):
        res = sigma1_estimate(
            oracle_from_dense(tensor), n_starts=1, seed=0, max_iter=1, return_info=True
        )
    assert not res.converged
    assert res.value >= 0.0
    assert res.iterations == [1]


def test_unequal_derivative_slots_rejected():
    oracle = oracle_from_dense(np.zeros((4, 5, 3)))
    with pytest.raises(ShapeError):
        sigma1_estimate(oracle)
    # empty loop bounds are refused too
    square = oracle_from_dense(np.ones((4, 4, 3)))
    for kwargs in ({"n_starts": 0}, {"max_iter": 0}):
        with pytest.raises(ShapeError):
            sigma1_estimate(square, **kwargs)


def test_oracle_difference():
    rng = np.random.default_rng(6)
    dense = rng.standard_normal((6, 6, 5))
    approx = tt_svd(dense, ranks=[3, 3])
    diff = oracle_difference(oracle_from_dense(dense), oracle_from_tt(approx))
    assert diff.dims == (6, 6, 5)
    x, y = rng.standard_normal(6), rng.standard_normal(6)
    expect = np.einsum("ijk,i,j->k", dense, x, y) - tt_apply(approx, 3, [x, y])
    np.testing.assert_allclose(diff.action(3, [x, y]), expect, atol=1e-11)
    with pytest.raises(ShapeError):
        oracle_difference(oracle_from_dense(dense), oracle_from_dense(np.zeros((2, 2))))


def test_difference_sigma1_matches_truncation_error():
    # for the matrix case the difference norm is the first dropped singular value
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((10, 8))
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    trunc = (u[:, :3] * s[:3]) @ vt[:3]
    diff = oracle_difference(oracle_from_dense(mat), oracle_from_dense(trunc))
    est = sigma1_estimate(diff, seed=0)
    assert abs(est - s[3]) < 1e-6 * s[3]


def test_nonfinite_action_raises_instead_of_nan():
    oracle = ActionOracle((5, 5, 4), lambda k, vs: np.full((5, 5, 4)[k - 1], np.nan))
    with pytest.raises(NonFiniteActionError):
        sigma1_estimate(oracle, n_starts=1, seed=0)


class SpyOracle(ActionOracle):
    def __init__(self, tensor):
        super().__init__(tensor.shape, oracle_from_dense(tensor).action)
        self.clears = 0

    def clear_cache(self):
        self.clears += 1


def test_cache_cleared_once_per_start():
    rng = np.random.default_rng(8)
    w, c = rng.standard_normal(5), rng.standard_normal(4)
    spy = SpyOracle(np.einsum("i,j,k->ijk", w, w, c))
    sigma1_estimate(spy, n_starts=4, seed=0)
    assert spy.clears == 4


def test_difference_clears_derivative_engine_cache():
    model = ReactionDiffusionModel(4)
    deriv = make_derivative_oracle(model, 2)
    rng = np.random.default_rng(9)
    dims = deriv.dims
    train = TensorTrain(
        [
            rng.standard_normal((1, dims[0], 2)),
            rng.standard_normal((2, dims[1], 2)),
            rng.standard_normal((2, dims[2], 1)),
        ]
    )
    diff = oracle_difference(deriv, oracle_from_tt(train))
    diff.action(3, [rng.standard_normal(dims[0]), rng.standard_normal(dims[1])])
    assert deriv.engine._cache
    diff.clear_cache()
    assert not deriv.engine._cache
    assert not hasattr(diff, "engine")


def test_plain_oracle_clear_cache_is_a_no_op():
    tensor = np.random.default_rng(10).standard_normal((4, 5, 3))
    oracle = oracle_from_dense(tensor)
    vs = [np.ones(4), np.ones(5)]
    before = oracle.action(3, vs)
    assert oracle.clear_cache() is None
    np.testing.assert_array_equal(oracle.action(3, vs), before)
    assert oracle.action_count == 2
