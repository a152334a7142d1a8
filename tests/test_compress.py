"""Spectral-error-targeted compression of whitened derivative tensors."""

import json

import numpy as np
import pytest

from ttaction.builder import BuildConfig, tt_from_actions
from ttaction.cli import main
from ttaction.core import subseed, tt_round
from ttaction.errors import CapacityError, ShapeError
from ttaction.hovd import (
    ReactionDiffusionModel,
    WhitenedMap,
    compress,
    compress_derivative,
    jacobian_train,
    make_derivative_oracle,
)

from dense_reference import tt_to_dense


def test_fixed_rank_mode_order_two():
    model = ReactionDiffusionModel(5)
    train, info = compress_derivative(model, order=2, rank=6, seed=0)
    assert train.dims == (model.n_m, model.n_m, model.n_q)
    assert max(train.ranks) <= 6
    assert info["rank"] == 6
    assert info["order"] == 2
    assert info["grid"] == 5
    assert info["eps"] is None
    assert 0.0 <= info["sigma1_rel_error"] < 1.0
    assert info["sigma1"] > 0.0
    assert info["forward_solves"] > 0
    assert info["adjoint_solves"] > 0
    assert info["newton_iterations"] > 0
    assert info["actions"] > 0
    [trial] = info["trials"]
    assert {k: trial[k] for k in ("rank", "build_rank", "sigma1_rel_error")} == {
        "rank": 6,
        "build_rank": 6,
        "sigma1_rel_error": info["sigma1_rel_error"],
    }


@pytest.mark.filterwarnings("ignore::ttaction.errors.ConvergenceWarning")
def test_order_one_uses_matrix_factors():
    # the full-rank difference is numerically zero, so the power iteration
    # cannot settle and legitimately warns
    model = ReactionDiffusionModel(5)
    full = min(model.n_m, model.n_q)
    train, info = compress_derivative(model, order=1, rank=full, seed=0)
    assert train.dims == (model.n_m, model.n_q)
    assert train.ranks == (full,)
    # full rank: the two cores factor the Jacobian essentially exactly
    assert info["sigma1_rel_error"] < 1e-8


def test_order_one_is_the_jacobian_train():
    model = ReactionDiffusionModel(5)
    whitener = WhitenedMap(model)
    train, _ = compress_derivative(model, order=1, rank=4, seed=3, whitener=whitener)
    oracle = make_derivative_oracle(model, 1, whitener=whitener)
    reference = jacobian_train(oracle, 4, seed=subseed(3, 1))
    for a, b in zip(train.cores, reference.cores):
        assert np.array_equal(a, b)


def test_eps_mode_finds_small_rank():
    model = ReactionDiffusionModel(5)
    train, info = compress_derivative(model, order=2, eps=0.2, seed=0)
    assert info["rank"] >= 2
    assert info["sigma1_rel_error"] < 0.2
    assert max(train.ranks) <= info["rank"]
    ranks_tried = [t["rank"] for t in info["trials"]]
    assert ranks_tried[-1] == info["rank"]
    # every earlier trial at the final build rank failed the target
    final_build = info["trials"][-1]["build_rank"]
    for t in info["trials"][:-1]:
        if t["build_rank"] == final_build:
            assert t["sigma1_rel_error"] >= 0.2


def test_sigma1_diagnostics_kept_for_every_estimate():
    model = ReactionDiffusionModel(5)
    _, info = compress_derivative(model, order=2, eps=0.2, seed=0)
    estimates = [info["sigma1_info"], *info["trials"]]
    for est in estimates:
        assert isinstance(est["converged"], bool)
        assert len(est["iterations"]) == len(est["start_values"]) == 3
        assert all(isinstance(it, int) and it >= 1 for it in est["iterations"])
    # each reported value is the best start's Rayleigh value, square-rooted
    assert info["sigma1"] == np.sqrt(max(info["sigma1_info"]["start_values"]))
    for t in info["trials"]:
        best = np.sqrt(max(0.0, max(t["start_values"])))
        assert t["sigma1_rel_error"] == best / info["sigma1"]
    # the report stays plain JSON
    assert json.loads(json.dumps(info))["trials"][-1]["converged"] in (True, False)


def test_eps_mode_unreachable_raises():
    model = ReactionDiffusionModel(5)
    with pytest.raises(CapacityError):
        compress_derivative(model, order=2, eps=1e-12, max_rank=3, seed=0)


def test_validation(monkeypatch):
    model = ReactionDiffusionModel(5)
    # bad arguments are refused before the first sigma_1 estimate
    monkeypatch.setattr(compress, "sigma1_estimate", None)
    with pytest.raises(ShapeError):
        compress_derivative(model, order=2)
    with pytest.raises(ShapeError):
        compress_derivative(model, order=2, rank=4, eps=0.1)
    with pytest.raises(ShapeError):
        compress_derivative(model, order=0, rank=4)
    # bad targets are refused before any solve
    for kwargs in (
        {"eps": 0.0},
        {"eps": float("nan")},
        {"eps": -1.0},
        {"eps": float("inf")},
        {"rank": 0},
        {"eps": 0.1, "max_rank": 1},
        {"eps": 0.1, "max_rank": 0},
        {"eps": 0.1, "oversampling": -1},
        {"eps": 0.1, "tau_extra": -2},
        {"rank": 4, "tau_extra": -1},
        {"rank": 4, "max_rank": 3},
    ):
        with pytest.raises(ShapeError):
            compress_derivative(model, order=2, **kwargs)


@pytest.mark.parametrize(
    "target", [{"rank": 3, "tau_extra": 5}, {"eps": 1e-2, "tau_extra": 8}], ids=["rank", "eps"]
)
def test_a_first_build_the_count_law_refuses_is_refused_before_any_solve(
    monkeypatch, target
):
    # stage 3 would need ceil(r / n_m) + tau_extra sets from a core of rank
    # 3 (the rank) or 8 (the eps search's first build)
    monkeypatch.setattr(compress, "WhitenedMap", None)
    monkeypatch.setattr(compress, "make_derivative_oracle", None)
    with pytest.raises(ShapeError, match="action-count law"):
        compress_derivative(ReactionDiffusionModel(6), 2, **target)


def test_a_grown_build_the_count_law_refuses_ends_the_search(monkeypatch, tmp_path):
    # no default search at these grids grows to a rank the law refuses, so
    # the second build (rank 16, after ranks 2..8 miss eps) raises its refusal
    build = compress.tt_from_actions
    ranks = []

    def refuse_second(oracle, config):
        ranks.append(config.ranks)
        if len(ranks) == 2:
            raise ShapeError("ranks refused by the action-count law: stage 3")
        return build(oracle, config)

    monkeypatch.setattr(compress, "tt_from_actions", refuse_second)
    model = ReactionDiffusionModel(4)
    with pytest.raises(CapacityError, match="build rank 16: ranks refused by the"):
        compress_derivative(model, 2, eps=1e-12, seed=0)
    assert ranks == [8, 16]
    ranks.clear()
    argv = ["derivative", "--n", "4", "--k", "2", "--eps", "1e-12", "--out-dir", str(tmp_path)]
    assert main(argv) == 3
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("ignore::ttaction.errors.ConvergenceWarning")
def test_a_max_rank_above_the_caps_searches_as_the_default():
    # at n=4 the order-2 caps are (16, 12), so a ceiling of 64 is cut to 16,
    # as the default 48 is: both searches build at ranks 8 and 16 only.  At
    # eps 1e-14 some trial estimates do not converge; both searches agree.
    runs = [
        compress_derivative(ReactionDiffusionModel(4), 2, eps=1e-14, seed=0, max_rank=m)[1]
        for m in (None, 64)
    ]
    default, above = runs
    for key in ("rank", "sigma1_rel_error", "actions", "forward_solves", "trials"):
        assert above[key] == default[key]
    assert sorted({t["build_rank"] for t in default["trials"]}) == [8, 16]
    assert len(default["trials"]) == 21


@pytest.mark.filterwarnings("ignore::ttaction.errors.ConvergenceWarning")
def test_a_fixed_rank_above_the_caps_reports_the_rank_it_builds(tmp_path):
    # at n=4 the order-2 caps are (16, 12): rank 64 builds ranks (16, 12),
    # so it reports 16, and runs exactly as rank 16 does.  The capped train
    # is exact, so its difference estimate cannot settle and warns.
    model = ReactionDiffusionModel(4)
    whitener = WhitenedMap(model)
    above, capped = (
        compress_derivative(model, 2, rank=r, seed=0, whitener=whitener)
        for r in (64, 16)
    )
    assert above[0].ranks == (16, 12)
    assert above[1]["rank"] == 16
    [trial] = above[1]["trials"]
    assert (trial["rank"], trial["build_rank"]) == (16, 16)
    for a, b in zip(above[0].cores, capped[0].cores):
        assert np.array_equal(a, b)
    for key in ("sigma1_rel_error", "actions", "forward_solves", "trials"):
        assert above[1][key] == capped[1][key]
    argv = ["derivative", "--n", "4", "--k", "2", "--rank", "64"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    written = json.loads((tmp_path / "derivative.json").read_text())
    assert (written["rank"], written["ranks_built"]) == (16, [16, 12])


def test_derivative_eps_seed0_counts():
    # the benchmark's derivative-eps workload pins these counts at seed 0
    _, info = compress_derivative(ReactionDiffusionModel(8), 2, eps=1e-2, seed=0)
    assert info["rank"] == 11
    assert info["actions"] == 11330
    assert info["forward_solves"] == 10962
    assert info["adjoint_solves"] == 11350
    estimates = [info["sigma1_info"]] + info["trials"]
    assert all(e["converged"] for e in estimates)
    assert sum(sum(e["iterations"]) for e in estimates) == 5404


def test_deterministic_given_seed():
    model = ReactionDiffusionModel(5)
    whitener = WhitenedMap(model)
    first, info_a = compress_derivative(
        model, order=2, rank=5, seed=11, whitener=whitener
    )
    second, info_b = compress_derivative(
        model, order=2, rank=5, seed=11, whitener=whitener
    )
    for a, b in zip(first.cores, second.cores):
        assert np.array_equal(a, b)
    # the info dict is a pure function of the inputs and the seed
    assert info_a == info_b


def test_sigma1_estimates_sit_below_the_dense_unfolding_norm():
    # sigma_1(D) = max ||D(x, x, .)|| over unit x, and x (x) x is a unit
    # vector, so the spectral norm of the (12|3) unfolding bounds it from
    # above; every estimate is a power iterate's value, a lower bound
    model = ReactionDiffusionModel(6)
    oracle = make_derivative_oracle(model, 2, whitener=WhitenedMap(model))
    eye = np.eye(model.n_m)
    dense = np.empty((model.n_m, model.n_m, model.n_q))
    for i in range(model.n_m):
        for j in range(i, model.n_m):
            dense[i, j] = dense[j, i] = oracle.action(3, [eye[i], eye[j]])

    def bound(tensor):
        return np.linalg.norm(tensor.reshape(model.n_m**2, model.n_q), 2)

    slack = 1.0 + 1e-9  # roundoff between the two ways of acting
    for r in (2, 4, 6):
        train, info = compress_derivative(model, 2, rank=r, seed=0)
        assert info["sigma1"] <= bound(dense) * slack
        difference = info["sigma1_rel_error"] * info["sigma1"]
        assert difference <= bound(dense - tt_to_dense(train)) * slack


@pytest.mark.parametrize(
    "n,build_ranks,closest,rank",
    [
        pytest.param(8, [8, 16], 10, 11, id="n8"),
        # five of build 32's estimates, the selected rank 17's among them, stop
        # at the iteration cap unconverged; each is still a lower bound
        pytest.param(
            10, [8, 16, 32], 16, 17, id="n10",
            marks=pytest.mark.filterwarnings("ignore::ttaction.errors.ConvergenceWarning"),
        ),
    ],
)
def test_the_seed0_search_decisions_sit_inside_dense_brackets(n, build_ranks, closest, rank):
    # the (12|3) unfolding norm bounds sigma_1 from above and every estimate
    # is a power iterate's value, a lower bound; so a rank whose estimate
    # over the bound of the full tensor still reaches eps certainly fails
    model, eps = ReactionDiffusionModel(n), 1e-2
    train, info = compress_derivative(model, 2, eps=eps, seed=0)
    oracle = make_derivative_oracle(model, 2, whitener=WhitenedMap(model))
    eye = np.eye(model.n_m)
    dense = np.empty((model.n_m, model.n_m, model.n_q))
    for i in range(model.n_m):
        for j in range(i, model.n_m):
            dense[i, j] = dense[j, i] = oracle.action(3, [eye[i], eye[j]])
    assert oracle.action_count == model.n_m * (model.n_m + 1) // 2

    def bound(tensor):
        return np.linalg.norm(tensor.reshape(model.n_m**2, model.n_q), 2)

    slack = 1.0 + 1e-9  # roundoff between the two ways of acting
    full = bound(dense)
    assert info["sigma1"] <= full * slack
    builds = {}
    rejected = []
    for trial in info["trials"]:
        b = trial["build_rank"]
        if b not in builds:
            builds[b], _ = tt_from_actions(oracle, BuildConfig(ranks=b, seed=subseed(0, 1)))
        rounded = tt_round(builds[b], trial["rank"])
        estimate = trial["sigma1_rel_error"] * info["sigma1"]
        assert estimate <= bound(dense - tt_to_dense(rounded)) * slack
        if trial["sigma1_rel_error"] >= eps:
            rejected.append((trial["rank"], estimate / full))
    assert sorted(builds) == build_ranks
    assert len(rejected) == len(info["trials"]) - 1
    assert all(ratio >= eps for _, ratio in rejected)
    # the closest call, just above the bar, is the rank below the selected one
    assert min(rejected, key=lambda pair: pair[1])[0] == closest
    selected = tt_round(builds[info["trials"][-1]["build_rank"]], info["rank"])
    assert info["trials"][-1]["rank"] == info["rank"] == rank
    for a, b in zip(train.cores, selected.cores):
        assert np.array_equal(a, b)
