"""Full-action tensor train construction: recovery, counting, determinism."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from ttaction import (
    ActionOracle,
    BuildConfig,
    TensorTrain,
    oracle_from_dense,
    oracle_from_tt,
    predicted_action_count,
    tt_apply,
    tt_from_actions,
)
from ttaction.builder import (
    build_ranks,
    interpolation_set,
    required_tau,
    solve_interpolation,
)
from ttaction.errors import (
    BuildStageError,
    DegenerateRangeError,
    InterpolationError,
    NonFiniteActionError,
    ShapeError,
)
from ttaction.hilbert import DEFAULT_DIMS, hilbert_oracle

from dense_reference import left_orthogonality_defect, tt_dense_error, tt_to_dense


def random_tt(rng, dims, ranks):
    bounds = (1,) + tuple(ranks) + (1,)
    return TensorTrain(
        [
            rng.standard_normal((bounds[k], dims[k], bounds[k + 1]))
            for k in range(len(dims))
        ]
    )


CASES = [
    ((7, 9), (3,)),
    ((6, 7, 8), (3, 4)),
    ((5, 6, 7, 5), (3, 4, 3)),
    ((4, 5, 6, 5, 4), (2, 3, 3, 2)),
    ((4, 4, 5, 4, 4, 4), (2, 3, 3, 3, 2)),
]


@pytest.mark.parametrize("dims,ranks", CASES)
def test_exact_recovery(dims, ranks):
    rng = np.random.default_rng(sum(dims))
    truth = random_tt(rng, dims, ranks)
    oracle = oracle_from_tt(truth)
    built, report = tt_from_actions(oracle, BuildConfig(ranks=list(ranks), seed=3))
    assert built.dims == dims
    assert built.ranks == tuple(ranks)
    assert tt_dense_error(tt_to_dense(truth), built) < 1e-10
    assert report.converged


@pytest.mark.parametrize("dims,ranks", CASES)
def test_action_count_law_is_exact(dims, ranks):
    rng = np.random.default_rng(100 + len(dims))
    oracle = oracle_from_tt(random_tt(rng, dims, ranks))
    config = BuildConfig(ranks=list(ranks), oversampling=4, tau_extra=1, seed=5)
    _, report = tt_from_actions(oracle, config)
    predicted = predicted_action_count(dims, ranks, oversampling=4, tau_extra=1)
    assert report.total_actions == predicted
    assert report.predicted_actions == predicted
    assert oracle.action_count == predicted
    assert sum(s["actions"] for s in report.stages) == predicted


def test_action_count_law_varies_with_tau_extra():
    dims, ranks = (5, 6, 7, 5), (3, 4, 3)
    rng = np.random.default_rng(11)
    truth = random_tt(rng, dims, ranks)
    dense = tt_to_dense(truth)
    for extra in (0, 1, 2):
        oracle = oracle_from_tt(truth)
        config = BuildConfig(ranks=list(ranks), tau_extra=extra, seed=1)
        built, report = tt_from_actions(oracle, config)
        assert report.total_actions == predicted_action_count(
            dims, ranks, tau_extra=extra
        )
        assert tt_dense_error(dense, built) < 1e-9


def test_deterministic_same_seed():
    dims, ranks = (5, 6, 5, 4), (3, 3, 2)
    rng = np.random.default_rng(21)
    truth = random_tt(rng, dims, ranks)
    results, reports = [], []
    for _ in range(3):
        oracle = oracle_from_tt(truth)
        tt, report = tt_from_actions(oracle, BuildConfig(ranks=list(ranks), seed=9))
        results.append(tt)
        reports.append(report)
    for other in results[1:]:
        for a, b in zip(results[0].cores, other.cores):
            assert np.array_equal(a, b)
    # a report is a pure function of the oracle and the config
    assert reports[1:] == reports[:-1]


def test_different_seeds_differ():
    dims, ranks = (6, 6, 6), (3, 3)
    truth = random_tt(np.random.default_rng(22), dims, ranks)
    tt_a, _ = tt_from_actions(oracle_from_tt(truth), BuildConfig(ranks=[3, 3], seed=0))
    tt_b, _ = tt_from_actions(oracle_from_tt(truth), BuildConfig(ranks=[3, 3], seed=1))
    assert not np.array_equal(tt_a.cores[0], tt_b.cores[0])


def test_adaptive_tol_recovers_ranks():
    dims, ranks = (6, 7, 6, 5), (3, 4, 3)
    truth = random_tt(np.random.default_rng(23), dims, ranks)
    oracle = oracle_from_tt(truth)
    built, report = tt_from_actions(oracle, BuildConfig(tol=1e-9, seed=2))
    assert built.ranks == ranks
    assert tt_dense_error(tt_to_dense(truth), built) < 1e-8
    assert report.converged


def test_scalar_rank_broadcast():
    dims = (5, 5, 5)
    truth = random_tt(np.random.default_rng(24), dims, (2, 2))
    built, _ = tt_from_actions(oracle_from_tt(truth), BuildConfig(ranks=3, seed=0))
    assert built.ranks == (3, 3)
    assert predicted_action_count(dims, 3) == predicted_action_count(dims, (3, 3))


def test_built_cores_are_left_orthonormal():
    dims, ranks = (5, 6, 7, 5), (3, 4, 3)
    truth = random_tt(np.random.default_rng(25), dims, ranks)
    built, _ = tt_from_actions(oracle_from_tt(truth), BuildConfig(ranks=list(ranks)))
    assert left_orthogonality_defect(built) < 1e-12


def test_matrix_case_matches_randomized_svd_subspace():
    rng = np.random.default_rng(26)
    mat = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 10))
    oracle = oracle_from_dense(mat)
    built, report = tt_from_actions(oracle, BuildConfig(ranks=[3], seed=0))
    assert tt_dense_error(mat, built) < 1e-12
    assert report.total_actions == (3 + 5) + 3


def test_config_requires_exactly_one_target():
    oracle = oracle_from_dense(np.ones((3, 3)))
    with pytest.raises(ShapeError):
        tt_from_actions(oracle, BuildConfig())
    with pytest.raises(ShapeError):
        tt_from_actions(oracle, BuildConfig(ranks=[2], tol=1e-6))
    with pytest.raises(ShapeError):
        tt_from_actions(oracle, BuildConfig(ranks=[2, 2]))


def test_required_tau():
    assert required_tau(3, 10) == 2  # ceil(3/10) + 1
    assert required_tau(12, 5) == 4  # ceil(12/5) + 1
    assert required_tau(3, 10, tau_extra=0) == 1


def test_interpolation_matrices_match_dense_contraction():
    rng = np.random.default_rng(12)
    cores = random_tt(rng, (3, 4, 1, 5, 4), (2, 3, 3, 2)).cores
    for level in range(2, 5):
        tau = min(2, cores[level - 2].shape[2])
        fixed, a_mats = interpolation_set(cores[:level], tau)
        # cores 1..level as one dense array, right bond left open
        partial = cores[0][0]
        for c in cores[1:level]:
            partial = np.tensordot(partial, c, axes=(-1, 0))
        assert len(a_mats) == tau
        assert [v.shape for v in fixed] == [(c.shape[1], tau) for c in cores[: level - 1]]
        for i, a in enumerate(a_mats):
            expect = partial
            for v in fixed:
                expect = np.tensordot(v[:, i], expect, axes=(0, 0))
            np.testing.assert_allclose(a, expect, rtol=1e-12, atol=1e-12)


def test_interpolation_set_needs_enough_rank():
    rng = np.random.default_rng(27)
    cores = [rng.standard_normal((1, 4, 2)), rng.standard_normal((2, 4, 3))]
    with pytest.raises(ShapeError, match="action-count law: stage 3"):
        interpolation_set(cores, tau=3)
    with pytest.raises(ShapeError):
        interpolation_set(cores[:1], tau=1)


def _backtracking_oracle():
    # rank 2 at stage 2 cannot support tau_extra=3 -> 4 interpolation sets
    return oracle_from_tt(random_tt(np.random.default_rng(28), (5, 5, 5, 5), (2, 2, 2)))


def _zero_oracle():
    return oracle_from_dense(np.zeros((4, 5, 6)))


def _last_mode_fails_oracle():
    truth = random_tt(np.random.default_rng(31), (5, 6, 7, 5), (2, 3, 2))

    def apply_fn(free_mode, vectors):
        if free_mode == 4:
            raise ValueError("mode 4 unavailable")
        return tt_apply(truth, free_mode, vectors)

    return ActionOracle(truth.dims, apply_fn)


def _nan_mode_two_oracle():
    truth = random_tt(np.random.default_rng(32), (5, 6, 7, 5), (2, 3, 2))

    def apply_fn(free_mode, vectors):
        out = tt_apply(truth, free_mode, vectors)
        return out * np.nan if free_mode == 2 else out

    return ActionOracle(truth.dims, apply_fn)


@pytest.mark.parametrize(
    "make_oracle,ranks,tau_extra,stage,cause",
    [
        (_zero_oracle, (2, 2), 1, 1, DegenerateRangeError),
        (_last_mode_fails_oracle, (2, 3, 2), 1, 4, ValueError),
        (_nan_mode_two_oracle, (2, 3, 2), 1, 2, NonFiniteActionError),
    ],
    ids=["zero-first-stage", "failing-last-mode", "nan-second-stage"],
)
def test_backtracking_surfaces_as_stage_error(make_oracle, ranks, tau_extra, stage, cause):
    with pytest.raises(BuildStageError) as err:
        tt_from_actions(
            make_oracle(), BuildConfig(ranks=list(ranks), tau_extra=tau_extra)
        )
    assert isinstance(err.value.cause, cause)
    assert err.value.stage == stage


def test_backtracking_is_refused_before_any_action():
    oracle = _backtracking_oracle()
    with pytest.raises(ShapeError, match="action-count law: stage 3"):
        tt_from_actions(oracle, BuildConfig(ranks=[2, 2, 2], tau_extra=3))
    assert oracle.action_count == 0


def test_backtracking_inside_an_adaptive_stage_surfaces_as_stage_error():
    # the adaptive ranks come out 2, so stage 3 needs 4 sets of core 1's 2
    with pytest.raises(BuildStageError) as err:
        tt_from_actions(_backtracking_oracle(), BuildConfig(tol=1e-8, tau_extra=3))
    assert isinstance(err.value.cause, ShapeError)
    assert err.value.stage == 3


def test_solve_interpolation_solves_and_reports_residual():
    rng = np.random.default_rng(29)
    a_mats = [rng.standard_normal((6, 4)) for _ in range(2)]
    sol, resid = solve_interpolation(a_mats)
    assert sol.shape == (2, 6, 4)
    assert resid < 1e-10
    recon = sum(a_mats[i].T @ sol[i] for i in range(2))
    np.testing.assert_allclose(recon, np.eye(4), atol=1e-10)


def test_solve_interpolation_rejects_deficient_system():
    a = np.zeros((5, 3))
    a[:, 0] = 1.0  # rank one, cannot reach all three targets
    with pytest.raises(InterpolationError):
        solve_interpolation([a, a.copy()])


@pytest.mark.parametrize(
    "dims,ranks",
    [((7, 9), (3,)), ((5, 6, 5), (2, 3)), ((5, 6, 7, 5), (3, 4, 3))],
    ids=["d2", "d3", "d4"],
)
def test_report_structure(dims, ranks):
    truth = random_tt(np.random.default_rng(30), dims, ranks)
    config = BuildConfig(ranks=list(ranks))
    _, report = tt_from_actions(oracle_from_tt(truth), config)
    assert report.dims == dims
    assert report.ranks == ranks
    assert len(report.stages) == len(dims)
    for c, stage in enumerate(report.stages, start=1):
        last = c == len(dims)
        assert stage["core"] == c
        assert stage["rank"] == (None if last else ranks[c - 1])
        assert (stage["posterior_error"] is None) == last
        if c == 1:
            tau, prefixes = None, 1
            assert stage["interp_residual"] is None
        elif c == 2:
            tau, prefixes = 1, ranks[0]
            assert stage["interp_residual"] == 0.0
        else:
            tau = required_tau(ranks[c - 2], dims[c - 2])
            prefixes = tau * ranks[c - 2]
            assert 0.0 <= stage["interp_residual"] < 1e-6
        assert stage["tau"] == tau
        samples = 1 if last else ranks[c - 1] + config.oversampling
        assert stage["actions"] == prefixes * samples
    d = dataclasses.asdict(report)
    assert d["total_actions"] == d["predicted_actions"]


def test_predicted_action_count_validation():
    with pytest.raises(ShapeError):
        predicted_action_count((4, 4, 4), (2,))
    with pytest.raises(ShapeError, match="ranks must be >= 1"):
        predicted_action_count((4, 4, 4), (2, 0))


@pytest.mark.parametrize("ranks", [0, [0, 1, 1], [2, -1, 2]])
def test_rank_below_one_is_refused_before_any_action(ranks):
    dims = (5, 6, 7, 5)
    oracle = oracle_from_tt(random_tt(np.random.default_rng(34), dims, (3, 4, 3)))
    with pytest.raises(ShapeError, match="ranks must be >= 1"):
        tt_from_actions(oracle, BuildConfig(ranks=ranks))
    assert oracle.action_count == 0


@pytest.mark.parametrize(
    "slack", [{"oversampling": -1}, {"tau_extra": -1}, {"oversampling": -3}]
)
def test_negative_slack_is_refused_before_any_action(slack):
    dims, ranks = (5, 6, 7, 5), (3, 4, 3)
    oracle = oracle_from_tt(random_tt(np.random.default_rng(33), dims, ranks))
    for config in (
        BuildConfig(ranks=list(ranks), **slack),
        BuildConfig(tol=1e-8, **slack),
    ):
        with pytest.raises(ShapeError, match="must be >= 0"):
            tt_from_actions(oracle, config)
    assert oracle.action_count == 0
    with pytest.raises(ShapeError, match="must be >= 0"):
        predicted_action_count(dims, ranks, **slack)


@pytest.mark.parametrize("dims,ranks", CASES[3:], ids=["d5", "d6"])
def test_predicted_action_count_refuses_what_the_build_refuses(dims, ranks):
    # tau = ceil(3 / N_2) + 2 = 3 sets at stage 3, but core 1 has rank 2
    oracle = oracle_from_tt(random_tt(np.random.default_rng(32), dims, ranks))
    with pytest.raises(ShapeError, match="action-count law: stage 3"):
        tt_from_actions(oracle, BuildConfig(ranks=list(ranks), tau_extra=2))
    assert oracle.action_count == 0  # refused before the first stage
    with pytest.raises(ShapeError, match="core 1 has rank 2"):
        predicted_action_count(dims, ranks, tau_extra=2)


@pytest.mark.parametrize("dims", [(5,), (5, 0), (), (0, 3, 4)], ids=repr)
def test_a_shape_no_train_can_have_is_refused_with_one_message(dims):
    # the mode sizes are checked before the ranks are read, so no shape is
    # counted or cut below rank 1
    message = f"need at least 2 modes of positive size, got {dims}"
    with pytest.raises(ShapeError, match=re.escape(message)):
        build_ranks(dims, 3)
    with pytest.raises(ShapeError, match=re.escape(message)):
        predicted_action_count(dims, 3)


def test_clamped_rank_is_counted_as_the_build_cuts_it():
    # stage 2 samples r_1 N_2 = 2 rows, so rank 8 is cut to 2 and stage 3
    # needs tau = ceil(2 / 2) = 1 set, which core 1 of rank 1 holds
    dims, ranks = (2, 2, 2, 2), [1, 8, 1]
    oracle = oracle_from_tt(random_tt(np.random.default_rng(46), dims, (2, 4, 2)))
    config = BuildConfig(ranks=ranks, tau_extra=0, oversampling=2)
    with warnings.catch_warnings():
        # the build realizes the cut ranks; nothing is clamped inside it
        warnings.simplefilter("error")
        built, report = tt_from_actions(oracle, config)
    assert build_ranks(dims, ranks) == [1, 2, 1]
    assert built.ranks == report.ranks == (1, 2, 1)
    law = predicted_action_count(dims, ranks, oversampling=2, tau_extra=0)
    assert law == (1 + 2) + 1 * (2 + 2) + 1 * 2 * (1 + 2) + 1 * 1
    assert oracle.action_count == report.total_actions == law


def test_ranks_above_the_unfolding_caps_are_cut_before_the_build():
    # caps (4, 6): rank 8 is cut to 4 and 6, and the build realizes exactly
    # those, recovering the rank-(4, 6) truth without a clamp inside it
    dims = (4, 5, 6)
    truth = random_tt(np.random.default_rng(48), dims, (4, 6))
    oracle = oracle_from_tt(truth)
    assert build_ranks(dims, 8) == [4, 6]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        built, report = tt_from_actions(oracle, BuildConfig(ranks=8))
    assert built.ranks == report.ranks == (4, 6)
    assert oracle.action_count == report.total_actions == predicted_action_count(dims, 8)
    assert tt_dense_error(tt_to_dense(truth), built) < 1e-10


def test_rank_beyond_the_prefix_span_is_refused_before_any_action():
    # stage 4 interpolates r_3 = 10 from prefixes spanning N_2 = 2
    # dimensions, so its system has rank at most N_2 N_3 = 8
    dims, ranks = (4, 2, 4, 4, 4), [4, 8, 10, 4]
    oracle = oracle_from_tt(random_tt(np.random.default_rng(47), dims, (4, 8, 16, 4)))
    with pytest.raises(ShapeError, match="action-count law: stage 4"):
        tt_from_actions(oracle, BuildConfig(ranks=ranks, tau_extra=0))
    assert oracle.action_count == 0
    with pytest.raises(ShapeError, match="at most 2 x 4 = 8"):
        predicted_action_count(dims, ranks, tau_extra=0)


class CallCountingOracle(ActionOracle):
    """A train oracle that also counts calls to ``action``, whatever their width."""

    def __init__(self, tt):
        super().__init__(tt.dims, lambda k, vs: tt_apply(tt, k, vs))
        self.calls = 0

    def action(self, free_mode, vectors):
        self.calls += 1
        return super().action(free_mode, vectors)


@pytest.mark.parametrize("dims,ranks", CASES)
def test_build_makes_one_action_call_per_stage(dims, ranks):
    # each stage's range-finder samples are one call, and so is the last
    # core; the calls still spend the closed-form count of actions
    oracle = CallCountingOracle(random_tt(np.random.default_rng(45), dims, ranks))
    config = BuildConfig(ranks=list(ranks), oversampling=3)
    _, report = tt_from_actions(oracle, config)
    assert oracle.calls == len(dims)
    assert oracle.action_count == predicted_action_count(dims, ranks, oversampling=3)
    assert report.total_actions == oracle.action_count


# ---------------------------------------------------------------------------
# one action per stage: a stage's shared interpolation prefixes are worked once

STAGE_CASES = [("train", dims, ranks) for dims, ranks in CASES] + [
    ("hilbert", DEFAULT_DIMS, (10,) * 4),
    ("hilbert", (12, 13, 14), (6, 6)),
]


def _stage_oracle(kind, dims, ranks):
    if kind == "hilbert":
        return hilbert_oracle(dims)
    return oracle_from_tt(random_tt(np.random.default_rng(sum(dims)), dims, ranks))


class PerSampleOracle:
    """``oracle`` served one range-finder sample at a time, as builds once ran.

    A stage's action on (N, W, 1) prefixes and (N, 1, S) samples becomes S
    actions on plain (N, W) blocks, each sample copied into all W columns,
    and the S fibers are stacked along the last axis.
    """

    def __init__(self, oracle):
        self.inner = oracle
        self.dims, self.order = oracle.dims, oracle.order

    @property
    def action_count(self):
        return self.inner.action_count

    def action(self, free_mode, vectors):
        assert all(v.ndim == 3 for v in vectors)
        width = max(v.shape[1] for v in vectors)
        fibers = []
        for s in range(max(v.shape[2] for v in vectors)):
            blocks = [
                v[:, :, 0] if v.shape[2] == 1 else np.repeat(v[:, :, s], width, axis=1)
                for v in vectors
            ]
            fibers.append(self.inner.action(free_mode, blocks))
        return np.stack(fibers, axis=2)


@pytest.mark.parametrize(
    "kind,dims,ranks", STAGE_CASES, ids=[f"{k}-{len(d)}-{d[0]}" for k, d, _ in STAGE_CASES]
)
def test_stage_actions_keep_every_bit_and_count_of_a_per_sample_build(kind, dims, ranks):
    config = BuildConfig(ranks=list(ranks), seed=7)
    staged = _stage_oracle(kind, dims, ranks)
    per_sample = PerSampleOracle(_stage_oracle(kind, dims, ranks))
    built, report = tt_from_actions(staged, config)
    rebuilt, rereport = tt_from_actions(per_sample, config)
    assert [c.tobytes() for c in built.cores] == [c.tobytes() for c in rebuilt.cores]
    assert staged.action_count == per_sample.action_count == report.total_actions
    assert [s["actions"] for s in report.stages] == [s["actions"] for s in rereport.stages]


@pytest.mark.parametrize("dims,ranks", CASES)
def test_build_makes_one_block_call_per_sample(dims, ranks):
    # served one range-finder sample at a time, each stage 1..d-1 splits into
    # one plain (N, W) block call per sample and the last core into one, and
    # the block calls still spend the closed-form count of actions
    inner = CallCountingOracle(random_tt(np.random.default_rng(45), dims, ranks))
    config = BuildConfig(ranks=list(ranks), oversampling=3)
    _, report = tt_from_actions(PerSampleOracle(inner), config)
    assert inner.calls == sum(r + config.oversampling for r in ranks) + 1
    assert inner.action_count == predicted_action_count(dims, ranks, oversampling=3)
    assert report.total_actions == inner.action_count


@pytest.mark.parametrize("kind", ["train", "hilbert"])
def test_a_build_works_each_stage_lead_once(kind):
    # a stage's interpolation prefixes enter one action, as (N, W, 1)
    # entries against the stage's (N, 1, S) samples
    dims, ranks = (4, 5, 6, 5, 4), (2, 3, 3, 2)
    oracle = _stage_oracle(kind, dims, ranks)
    apply_fn, seen = oracle._apply, []

    def recorded(free_mode, blocks):
        seen.append((free_mode, [v.shape for v in blocks]))
        return apply_fn(free_mode, blocks)

    oracle._apply = recorded
    _, report = tt_from_actions(oracle, BuildConfig(ranks=list(ranks), oversampling=3))
    assert [mode for mode, _ in seen] == [1, 2, 3, 4, 5]
    for (mode, shapes), stage in zip(seen, report.stages):
        width = 1 if mode == 1 else (stage["tau"] or 1) * ranks[mode - 2]
        samples = ranks[mode - 1] + 3 if mode < len(dims) else 1
        lead = [(n, width, 1) for n in dims[: mode - 1]]
        assert shapes == lead + [(n, 1, samples) for n in dims[mode:]]
