"""Derivative-based polynomial surrogates and their error statistics."""

import math
import warnings

import numpy as np
import pytest

from ttaction import TensorTrain, oracle_from_dense, tt_apply
from ttaction.builder import predicted_action_count
from ttaction.errors import NumericalError, ShapeError, ZeroNormError
from ttaction.rangefinder import DEFAULT_OVERSAMPLING
from ttaction.hovd import oracle as oracle_module
from ttaction.hovd.oracle import derivative_dims
from ttaction.hovd import taylor as taylor_module
from ttaction.hovd import (
    ReactionDiffusionModel,
    TaylorSurrogate,
    WhitenedMap,
    build_taylor_surrogate,
    jacobian_train,
    make_derivative_oracle,
    taylor_error_stats,
    taylor_eval,
)


def test_jacobian_train_recovers_low_rank_matrix():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((14, 4)) @ rng.standard_normal((4, 11))
    # oracle modes: (input slot, output slot), as the train's are
    oracle = oracle_from_dense(mat.T)
    train = jacobian_train(oracle, rank=4, oversampling=3, seed=0)
    assert train.dims == (11, 14) and train.ranks == (4,)
    first, second = train.cores[0][0], train.cores[1][:, :, 0]
    np.testing.assert_allclose(first @ second, mat.T, atol=1e-10)
    assert oracle.action_count == (4 + 3) + 4
    # core 2 is Q^T, the range finder's orthonormal output basis
    np.testing.assert_allclose(second @ second.T, np.eye(4), atol=1e-12)


def test_jacobian_train_deterministic():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((10, 8))
    runs = [jacobian_train(oracle_from_dense(mat), rank=5, seed=7) for _ in range(2)]
    for a, b in zip(runs[0].cores, runs[1].cores):
        assert np.array_equal(a, b)


def test_jacobian_train_requires_two_modes():
    with pytest.raises(ShapeError):
        jacobian_train(oracle_from_dense(np.zeros((3, 3, 3))), rank=2)


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
    assert set(surrogate.trains) == {1, 2, 3}
    assert surrogate.trains[1].dims == (model.n_m, model.n_q)
    assert surrogate.trains[2].dims == (model.n_m, model.n_m, model.n_q)
    assert set(reports) == {1, 2, 3}
    assert reports[2].total_actions == reports[2].predicted_actions


def test_eval_at_zero_is_base():
    _, _, surrogate, _ = surrogate_fixture(order=2)
    rows = taylor_eval(surrogate, np.zeros(surrogate.input_dim))
    np.testing.assert_array_equal(rows[-1], surrogate.base)
    np.testing.assert_array_equal(rows[0], surrogate.base)


def test_eval_orders_nest():
    _, _, surrogate, _ = surrogate_fixture(order=3)
    x = np.random.default_rng(2).standard_normal(surrogate.input_dim)
    rows = taylor_eval(surrogate, x)
    np.testing.assert_array_equal(rows[-1], rows[3])
    # linear part alone is the Jacobian train's action
    np.testing.assert_allclose(
        rows[1],
        surrogate.base + tt_apply(surrogate.trains[1], 2, [x]),
        atol=1e-12,
    )
    # one row per order 0..3, and none beyond
    assert rows.shape == (4, surrogate.base.size)


def test_eval_rows_are_the_truncations_summed_in_order():
    _, _, surrogate, _ = surrogate_fixture(order=3)
    x = np.random.default_rng(4).standard_normal(surrogate.input_dim)
    rows = taylor_eval(surrogate, x)
    for j in range(surrogate.order + 1):
        want = surrogate.base.copy()
        for i in range(1, j + 1):
            want = want + tt_apply(surrogate.trains[i], i + 1, [x] * i) / math.factorial(i)
        np.testing.assert_array_equal(rows[j], want)


def test_eval_refuses_a_wrong_length_x():
    # refused whole, though row 0 reads no part of x
    _, _, surrogate, _ = surrogate_fixture(order=2)
    for n in (surrogate.input_dim - 1, surrogate.input_dim + 1):
        with pytest.raises(ShapeError):
            taylor_eval(surrogate, np.zeros(n))


def test_eval_refuses_a_grid_of_input_dim_entries():
    # x is a flat vector or a block of them; the model's (n, n) grid form is
    # refused
    model, _, surrogate, _ = surrogate_fixture(order=2)
    grid = np.zeros((model.n, model.n))
    assert grid.size == surrogate.input_dim
    with pytest.raises(ShapeError, match=r"shape \(5, 5\)"):
        taylor_eval(surrogate, grid)


def test_exact_series_falls_by_order():
    # the order-j term T_j(x, ..., x) / j! is one output-free action of the
    # order-j oracle; against the true map the truncated series improves at
    # least threefold per order through order 6
    model = ReactionDiffusionModel(8)
    whitener = WhitenedMap(model)
    oracles = [make_derivative_oracle(model, j, whitener=whitener) for j in range(1, 7)]
    base = whitener.base_value()
    errors = np.empty((7, 20))
    for i in range(errors.shape[1]):
        x = np.random.default_rng(np.random.SeedSequence((0, i))).standard_normal(model.n_m)
        f = whitener.evaluate(x)
        series = base.copy()
        errors[0, i] = np.linalg.norm(f - series)
        for j, oracle in enumerate(oracles, start=1):
            series = series + oracle.action(j + 1, [x] * j) / math.factorial(j)
            errors[j, i] = np.linalg.norm(f - series)
    means = errors.mean(axis=1)
    assert (means[1:] * 3.0 <= means[:-1]).all(), means / means[0]


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


def test_error_stats_apply_each_term_once_per_sample(monkeypatch):
    # one evaluation of the block of all samples: each order's term is
    # applied once, to every sample at once
    _, whitener, surrogate, _ = surrogate_fixture(order=3)
    calls = {"taylor_eval": 0, "tt_apply": 0}

    def spy(name):
        real = getattr(taylor_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(taylor_module, name, wrapper)

    spy("taylor_eval")
    spy("tt_apply")
    taylor_error_stats(surrogate, whitener.evaluate, n_samples=3)
    assert calls == {"taylor_eval": 1, "tt_apply": 3}


def test_error_stats_keep_every_bit_of_per_sample_evaluations():
    _, whitener, surrogate, _ = surrogate_fixture(order=3)
    stats = taylor_error_stats(surrogate, whitener.evaluate, n_samples=4, seed=5)
    for i in range(4):
        rng = np.random.default_rng(np.random.SeedSequence((5, i)))
        x = rng.standard_normal(surrogate.input_dim)
        f = whitener.evaluate(x)
        for row, value in enumerate(taylor_eval(surrogate, x)):
            want = float(np.linalg.norm(f - value)) / stats["normalizer"]
            assert stats["errors"][row, i] == want


def test_eval_of_a_block_is_bitwise_its_columns():
    _, _, surrogate, _ = surrogate_fixture(order=3)
    xs = np.random.default_rng(6).standard_normal((surrogate.input_dim, 3))
    rows = taylor_eval(surrogate, xs)
    assert rows.shape == (4, surrogate.base.size, 3)
    for j in range(3):
        np.testing.assert_array_equal(rows[:, :, j], taylor_eval(surrogate, xs[:, j].copy()))


def test_error_stats_refuses_a_bad_sample_count_before_any_truth_call():
    _, whitener, surrogate, _ = surrogate_fixture(order=2)
    truths = []

    def truth(x):
        truths.append(x)
        return whitener.evaluate(x)

    for n_samples in (0, -3):
        with pytest.raises(ShapeError):
            taylor_error_stats(surrogate, truth, n_samples=n_samples)
    assert not truths  # refused before any truth solve


@pytest.mark.parametrize("n_samples, widths", [(200, [16] * 12 + [8]), (3, [3])])
def test_error_stats_pass_truth_whole_blocks(n_samples, widths):
    # truth sees ceil(n / 16) calls, each of an (input_dim, b) block of the
    # samples taylor_eval is given, and its block outputs keep every bit of
    # the per-sample truths
    _, whitener, surrogate, _ = surrogate_fixture(order=2)
    blocks = []

    def truth(x):
        blocks.append(x)
        return whitener.evaluate(x)

    stats = taylor_error_stats(surrogate, truth, n_samples=n_samples, seed=4)
    assert [x.shape for x in blocks] == [(surrogate.input_dim, b) for b in widths]
    xs = np.concatenate(blocks, axis=1)
    for i in (0, n_samples - 1):
        x = np.random.default_rng(np.random.SeedSequence((4, i))).standard_normal(
            surrogate.input_dim
        )
        np.testing.assert_array_equal(xs[:, i], x)
        f = whitener.evaluate(x)
        for row, value in enumerate(taylor_eval(surrogate, x)):
            want = float(np.linalg.norm(f - value)) / stats["normalizer"]
            assert stats["errors"][row, i] == want


#: A zero map from 4 inputs to 3 outputs.
ZERO_JACOBIAN = TensorTrain([np.zeros((1, 4, 1)), np.zeros((1, 3, 1))])


def test_error_stats_refuses_a_truth_of_the_wrong_shape():
    # the second block, samples 16 to 19, comes back as a flat vector, which
    # would broadcast against the base, or one column short
    surrogate = TaylorSurrogate(base=np.ones(3), trains={1: ZERO_JACOBIAN})
    for wrong in (lambda b: (3,), lambda b: (3, b - 1)):
        calls = []

        def truth(x):
            calls.append(x)
            b = x.shape[1]
            return np.zeros((3, b) if len(calls) < 2 else wrong(b))

        with pytest.raises(ShapeError, match="samples 16 to 19 has shape"):
            taylor_error_stats(surrogate, truth, n_samples=20)
        assert [x.shape for x in calls] == [(4, 16), (4, 4)]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_error_stats_refuses_a_non_finite_truth_before_any_error(monkeypatch, bad):
    # one entry of the second block's truth, samples 16 to 19, used to turn
    # every mean into NaN without a word
    model = ReactionDiffusionModel(5)
    whitener = WhitenedMap(model)
    surrogate, _ = build_taylor_surrogate(model, order=2, rank=2, whitener=whitener)
    calls = []

    def truth(x):
        calls.append(x.shape)
        fs = whitener.evaluate(x)
        if len(calls) == 2:
            fs[5, 2] = bad
        return fs

    monkeypatch.setattr(taylor_module, "taylor_eval", None)  # no error is computed
    with pytest.raises(NumericalError, match="^truth of samples 16 to 19 is not finite$"):
        taylor_error_stats(surrogate, truth, n_samples=20)
    assert calls == [(model.n_m, 16), (model.n_m, 4)]


def test_error_stats_zero_map_rejected():
    surrogate = TaylorSurrogate(base=np.zeros(3), trains={1: ZERO_JACOBIAN})
    with pytest.raises(ZeroNormError):
        taylor_error_stats(surrogate, lambda x: np.zeros((3, x.shape[1])), n_samples=3)


def test_build_validation():
    model = ReactionDiffusionModel(5)
    with pytest.raises(ShapeError):
        build_taylor_surrogate(model, order=0, rank=4)


@pytest.mark.parametrize("rank", [12, 13, 14, 15, 16])
def test_jacobian_actions_follow_the_count_law_in_its_mode_order(rank):
    # at n=4 the Jacobian oracle's modes are (n_m, n_q) = (16, 12), and
    # build_ranks cuts every rank here to the cap 12, so the build spends
    # the law's (12 + 5) + 12 actions and clamps nothing inside it
    model = ReactionDiffusionModel(4)
    law = predicted_action_count(derivative_dims(model, 1), rank, DEFAULT_OVERSAMPLING)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        surrogate, reports = build_taylor_surrogate(model, 1, rank)
    assert reports[1]["actions"] == reports[1]["predicted_actions"] == law == 29
    assert reports[1]["rank"] == surrogate.trains[1].ranks[0] == 12


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize(
    "kwargs", [{"rank": 0}, {"rank": 2, "oversampling": -1}], ids=["rank", "oversampling"]
)
def test_a_refused_configuration_makes_no_state_solve(monkeypatch, order, kwargs):
    # a fresh model, so its base point is not solved yet
    solves = []
    solve_state = oracle_module.solve_state

    def spy(*args, **kwargs):
        solves.append(args)
        return solve_state(*args, **kwargs)

    monkeypatch.setattr(oracle_module, "solve_state", spy)
    with pytest.raises(ShapeError):
        build_taylor_surrogate(ReactionDiffusionModel(5), order, **kwargs)
    assert solves == []
