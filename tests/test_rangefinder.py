"""Randomized range estimation: recovery, sample reuse, adaptivity."""

import numpy as np
import pytest

from ttaction.errors import (
    ConvergenceWarning,
    DegenerateRangeError,
    RankClampWarning,
    ShapeError,
)
from ttaction.rangefinder import (
    RangeProblem,
    adaptive_range,
    posterior_error,
    randomized_range,
)


def low_rank_matrix_problem(n, m, rank, seed=0, noise=0.0):
    """Map v -> A v for a random matrix A of the given rank.

    ``calls`` records the number of samples of each evaluation.
    """
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m))
    if noise:
        mat = mat + noise * rng.standard_normal((n, m))
    calls = []

    def evaluate(blocks):
        calls.append(blocks[0].shape[1])
        return mat @ blocks[0]

    problem = RangeProblem(evaluate, (m,), n, seed=seed)
    return problem, mat, calls


def test_exact_rank_recovery_matrix_case():
    problem, mat, _ = low_rank_matrix_problem(30, 25, rank=4, seed=0)
    result = randomized_range(problem, rank=4)
    assert result.rank == 4
    assert result.converged
    # range captured: projecting A onto the basis loses nothing
    resid = mat - result.basis @ (result.basis.T @ mat)
    assert np.linalg.norm(resid) / np.linalg.norm(mat) < 1e-12
    assert np.allclose(result.basis.T @ result.basis, np.eye(4), atol=1e-12)


def test_exact_rank_recovery_bilinear_map():
    # bilinear map from a rank-3 third-order tensor, free mode first
    rng = np.random.default_rng(1)
    a = rng.standard_normal((20, 3))
    b = rng.standard_normal((3, 8))
    c = rng.standard_normal((3, 9))
    tensor = np.einsum("ir,rj,rk->ijk", a, b, c)

    def evaluate(blocks):
        return np.einsum("ijk,js,ks->is", tensor, blocks[0], blocks[1])

    problem = RangeProblem(evaluate, (8, 9), 20, seed=1)
    result = randomized_range(problem, rank=3)
    unfold = tensor.reshape(20, -1)
    resid = unfold - result.basis @ (result.basis.T @ unfold)
    assert np.linalg.norm(resid) / np.linalg.norm(unfold) < 1e-12


def test_sample_count_is_exact():
    problem, _, calls = low_rank_matrix_problem(15, 12, rank=3, seed=2)
    randomized_range(problem, rank=4, oversampling=2)
    assert calls == [6]  # one evaluation of all six samples


def test_sample_keying_is_order_independent():
    # sample i depends only on (seed, i), not on how many samples exist
    problem, _, _ = low_rank_matrix_problem(10, 9, rank=5, seed=3)
    first = problem.sample_inputs(4)
    other = RangeProblem(problem.evaluate, (9,), 10, seed=3)
    again = other.sample_inputs(4)
    for a, b in zip(first, again):
        assert np.array_equal(a, b)
    assert not np.array_equal(first[0], problem.sample_inputs(5)[0])


def test_deterministic_same_seed():
    res = []
    for _ in range(2):
        problem, _, _ = low_rank_matrix_problem(20, 16, rank=4, seed=4, noise=1e-3)
        res.append(randomized_range(problem, rank=6))
    assert np.array_equal(res[0].basis, res[1].basis)
    assert np.array_equal(res[0].samples, res[1].samples)


def test_basis_sign_convention():
    problem, _, _ = low_rank_matrix_problem(12, 10, rank=3, seed=5)
    basis = randomized_range(problem, rank=3).basis
    idx = np.abs(basis).argmax(axis=0)
    assert (basis[idx, np.arange(basis.shape[1])] > 0).all()


def test_posterior_error_reuses_samples():
    problem, _, calls = low_rank_matrix_problem(25, 20, rank=4, seed=6)
    result = randomized_range(problem, rank=4)
    n_calls = len(calls)
    err = posterior_error(result.basis, result.samples)
    assert err < 1e-10
    assert err == result.error
    assert len(calls) == n_calls  # no new evaluations
    # dropping a basis direction leaves visible residual
    short = result.basis[:, :2]
    assert posterior_error(short, result.samples) > 1e-3


def test_adaptive_growth_stops_at_true_rank():
    problem, mat, calls = low_rank_matrix_problem(30, 24, rank=5, seed=7)
    result = adaptive_range(problem, tol=1e-10, oversampling=3)
    assert result.rank == 5
    assert result.converged
    # the error that stopped the growth is the one the basis carries
    assert result.error == posterior_error(result.basis, result.samples) < 1e-10
    # rank r plus oversampling samples, reused on the way up: one evaluation
    # of the first 2 + 3, then one sample per growth step
    assert calls == [5] + [1] * (result.rank - 2)
    resid = mat - result.basis @ (result.basis.T @ mat)
    assert np.linalg.norm(resid) / np.linalg.norm(mat) < 1e-9


def test_adaptive_hits_ceiling_with_warning():
    problem, _, _ = low_rank_matrix_problem(20, 18, rank=8, seed=8, noise=0.1)
    with pytest.warns(ConvergenceWarning):
        result = adaptive_range(problem, tol=1e-14, max_rank=4)
    assert result.rank == 4
    assert not result.converged


def test_rank_clamped_to_output_dim():
    problem, _, calls = low_rank_matrix_problem(5, 12, rank=5, seed=9)
    with pytest.warns(RankClampWarning):
        result = randomized_range(problem, rank=9, oversampling=1)
    assert result.rank == 5
    assert calls == [6]


def test_degenerate_map_raises():
    problem = RangeProblem(lambda vs: np.zeros((7, vs[0].shape[1])), (4,), 7, seed=10)
    with pytest.raises(DegenerateRangeError):
        randomized_range(problem, rank=2)
    with pytest.raises(DegenerateRangeError):
        posterior_error(np.zeros((7, 2)), np.zeros((7, 3)))


def test_evaluate_shape_checked():
    for wrong in (lambda vs: np.zeros(3), lambda vs: np.zeros(7), lambda vs: np.zeros((7, 1))):
        problem = RangeProblem(wrong, (4,), 7, seed=11)
        with pytest.raises(ShapeError):
            randomized_range(problem, rank=2)


def test_randomized_range_makes_one_evaluate_call():
    # the call holds every sample, column j the inputs of sample j
    blocks_seen = []
    mat = np.random.default_rng(13).standard_normal((6, 4))

    def evaluate(blocks):
        blocks_seen.append(blocks)
        return mat @ blocks[0] + blocks[1].sum(axis=0)

    problem = RangeProblem(evaluate, (4, 3), 6, seed=14)
    result = randomized_range(problem, rank=3, oversampling=2)
    assert len(blocks_seen) == 1
    blocks = blocks_seen[0]
    assert [b.shape for b in blocks] == [(4, 5), (3, 5)]
    for j in range(5):
        for block, want in zip(blocks, problem.sample_inputs(j)):
            np.testing.assert_array_equal(block[:, j], want)
    np.testing.assert_array_equal(result.samples, mat @ blocks[0] + blocks[1].sum(axis=0))


def test_parameter_validation():
    problem, _, _ = low_rank_matrix_problem(6, 6, rank=2, seed=12)
    with pytest.raises(ShapeError):
        randomized_range(problem, rank=0)
    with pytest.raises(ShapeError):
        randomized_range(problem, rank=2, oversampling=-1)
    with pytest.raises(ShapeError):
        adaptive_range(problem, tol=0.0)
    # one sample would read as a converged rank-1 basis of a rank-2 map
    with pytest.raises(ShapeError):
        adaptive_range(problem, tol=1e-8, oversampling=-1)
