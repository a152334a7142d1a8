"""End-to-end acceptance runs, one test per shipped criterion.

Each test appends a single pass/fail line to the acceptance registry (echoed
in the terminal summary) and asserts its verdict.  Budgets are wall-clock
on a single worker; the heavy compression sweeps dominate the runtime.
"""

import csv
import time

import numpy as np
import pytest

from ttaction import (
    BuildConfig,
    TensorTrain,
    oracle_from_dense,
    oracle_from_tt,
    predicted_action_count,
    tt_from_actions,
)
from ttaction.cli import main as cli_main
from ttaction.hovd import (
    DerivativeEngine,
    ReactionDiffusionModel,
    WhitenedMap,
    build_taylor_surrogate,
    compress_derivative,
    sigma1_estimate,
    solve_state,
    taylor_error_stats,
)

from dense_reference import tt_dense_error, tt_to_dense


def record(log, num, ok, detail):
    log[num] = (bool(ok), detail)
    assert ok, f"criterion {num} failed: {detail}"


def random_train(dims, ranks, seed):
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7001)))
    bounds = (1,) + tuple(ranks) + (1,)
    return TensorTrain(
        [
            rng.standard_normal((bounds[k], dims[k], bounds[k + 1]))
            for k in range(len(dims))
        ]
    )


def test_criterion_1_exact_recovery(acceptance_log):
    dims, ranks = (20,) * 5, (4, 5, 6, 4)
    t0 = time.perf_counter()
    worst = 0.0
    recovered = 0
    for seed in range(20):
        truth = random_train(dims, ranks, seed)
        built, _ = tt_from_actions(
            oracle_from_tt(truth),
            BuildConfig(ranks=list(ranks), oversampling=5, tau_extra=1, seed=seed),
        )
        err = tt_dense_error(tt_to_dense(truth), built)
        worst = max(worst, err)
        recovered += err < 1e-6
    seconds = time.perf_counter() - t0
    ok = recovered == 20 and seconds < 30.0
    record(
        acceptance_log,
        1,
        ok,
        f"{recovered}/20 seeds below 1e-06 (worst {worst:.2e}), "
        f"{seconds:.1f}s (budget 30s)",
    )


def test_criterion_2_hilbert_error_envelope(acceptance_log, tmp_path):
    t0 = time.perf_counter()
    code = cli_main(["hilbert", "--out-dir", str(tmp_path), "--no-timing"])
    seconds = time.perf_counter() - t0
    assert code == 0
    with open(tmp_path / "hilbert.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    errors = {
        method: [
            float(r["rel_error"])
            for r in sorted(rows, key=lambda r: int(r["rank"]))
            if r["method"] == method
        ]
        for method in ("rsvd", "svd")
    }
    ratio = max(a / b for a, b in zip(errors["rsvd"], errors["svd"]))
    monotone = all(
        a >= b - 1e-14 for curve in errors.values() for a, b in zip(curve, curve[1:])
    )
    ok = ratio <= 10.0 and monotone and seconds < 300.0
    record(
        acceptance_log,
        2,
        ok,
        f"ranks 2..10 on (41..45): max rsvd/svd ratio {ratio:.2f} (cap 10), "
        f"monotone={monotone}, {seconds:.0f}s (budget 300s)",
    )


ACTION_LAW_CONFIGS = [
    ((5, 6, 7), (2, 3), 5, 1),
    ((6, 5, 6), (4, 4), 3, 0),
    ((7, 7, 7), (5, 6), 4, 1),
    ((4, 5, 6, 7), (2, 3, 4), 5, 1),
    ((6, 6, 6, 6), (3, 5, 3), 2, 2),
    ((8, 8, 8, 8), (6, 7, 6), 5, 1),
    ((5, 5, 5, 5, 5), (2, 3, 4, 3), 3, 1),
    ((6, 5, 4, 5, 6), (4, 4, 4, 4), 5, 0),
    ((4, 4, 4, 4, 4, 4), (2, 3, 4, 3, 2), 5, 1),
    ((5, 4, 5, 4, 5, 4), (3, 3, 3, 3, 3), 4, 2),
]


def test_criterion_3_action_count_law(acceptance_log):
    exact = 0
    for i, (dims, ranks, p, extra) in enumerate(ACTION_LAW_CONFIGS):
        oracle = oracle_from_tt(random_train(dims, ranks, 900 + i))
        _, report = tt_from_actions(
            oracle,
            BuildConfig(ranks=list(ranks), oversampling=p, tau_extra=extra, seed=i),
        )
        predicted = predicted_action_count(dims, ranks, oversampling=p, tau_extra=extra)
        exact += (
            report.total_actions == predicted and oracle.action_count == predicted
        )
    ok = exact == len(ACTION_LAW_CONFIGS)
    record(
        acceptance_log,
        3,
        ok,
        f"{exact}/{len(ACTION_LAW_CONFIGS)} configurations match the closed "
        f"form exactly (orders 3..6, zero tolerance)",
    )


def test_criterion_4_derivative_engine(acceptance_log):
    model = ReactionDiffusionModel(6)
    rng = np.random.default_rng(0)
    p = rng.standard_normal(model.n_m)
    p /= np.linalg.norm(p)

    def phi(t):
        m = t * p
        u, _ = solve_state(model, m)
        return model.qoi(u)

    fd_errors = []
    for order, h, tol in ((1, 1e-4, 1e-5), (2, 1e-3, 1e-4), (3, 1e-2, 1e-2)):
        engine = DerivativeEngine(model, order)
        exact = engine.output_free([p] * order)
        if order == 1:
            approx = (phi(h) - phi(-h)) / (2 * h)
        elif order == 2:
            approx = (phi(h) - 2 * phi(0.0) + phi(-h)) / h**2
        else:
            approx = (phi(2 * h) - 2 * phi(h) + 2 * phi(-h) - phi(-2 * h)) / (
                2 * h**3
            )
        rel = np.linalg.norm(exact - approx) / max(np.linalg.norm(exact), 1.0)
        fd_errors.append((rel, tol))
    fd_ok = all(rel < tol for rel, tol in fd_errors)

    engine = DerivativeEngine(model, 3)
    a, b, c = (rng.standard_normal(model.n_m) for _ in range(3))
    q = rng.standard_normal(model.n_q)
    forward = engine.output_free([a, b, c]) @ q
    adjoint = engine.mode_free([b, c], q) @ a
    duality = abs(forward - adjoint) / max(abs(forward), 1.0)
    base = engine.output_free([a, b, c])
    permuted = engine.output_free([c, a, b])
    symmetry = np.linalg.norm(permuted - base) / max(np.linalg.norm(base), 1.0)

    counts_ok = True
    probe = DerivativeEngine(model, 3)
    probe.output_free([a, a, a])
    counts_ok &= probe.forward_solves == 3
    probe.output_free([a, a, a])
    counts_ok &= probe.forward_solves == 3  # cached, zero new solves
    probe.clear_cache()
    probe.forward_solves = 0
    probe.output_free([a, b, c])
    counts_ok &= probe.forward_solves == 7
    probe.clear_cache()
    probe.forward_solves = 0
    probe.output_free([a, b, b])
    counts_ok &= probe.forward_solves == 5
    fresh = DerivativeEngine(model, 3)
    fresh.mode_free([b, c], q)
    counts_ok &= fresh.forward_solves == 3 and fresh.adjoint_solves == 4

    ok = fd_ok and duality < 1e-8 and symmetry < 1e-10 and counts_ok
    record(
        acceptance_log,
        4,
        ok,
        "fd errors "
        + ", ".join(f"k={k + 1}: {rel:.1e} (tol {tol:g})" for k, (rel, tol) in enumerate(fd_errors))
        + f"; duality {duality:.1e} (< 1e-08); symmetry {symmetry:.1e} (< 1e-10); "
        f"solve counts exact={bool(counts_ok)}",
    )


def test_criterion_5_rank_stability_across_grids(acceptance_log):
    t0 = time.perf_counter()
    details = []
    ok = True
    for k in (2, 3):
        ranks = []
        for n in (8, 10, 12, 14, 16):
            model = ReactionDiffusionModel(n)
            _, info = compress_derivative(model, k, eps=1e-2, seed=0)
            ranks.append(info["rank"])
        ratio = max(ranks) / min(ranks)
        ok &= ratio <= 2.0
        details.append(f"k={k} ranks {ranks} ratio {ratio:.2f}")
    seconds = time.perf_counter() - t0
    ok = ok and seconds < 900.0
    record(
        acceptance_log,
        5,
        ok,
        "; ".join(details) + f" (cap 2.0); {seconds:.0f}s (budget 900s)",
    )


def test_criterion_6_taylor_error_decay(acceptance_log):
    t0 = time.perf_counter()
    model = ReactionDiffusionModel(12)
    whitener = WhitenedMap(model)
    surrogate, _ = build_taylor_surrogate(
        model, order=3, rank=10, seed=0, whitener=whitener
    )
    stats = taylor_error_stats(
        surrogate,
        whitener.evaluate,
        n_samples=200,
        seed=int(np.random.SeedSequence((0, 9)).generate_state(1)[0]),
    )
    seconds = time.perf_counter() - t0
    means = stats["means"]
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    anchored = 0.8 <= means[0] <= 1.2
    ok = decreasing and anchored and seconds < 1200.0
    record(
        acceptance_log,
        6,
        ok,
        "means "
        + ", ".join(f"{m:.4f}" for m in means)
        + f" strictly decreasing={decreasing}, order-0 in [0.8, 1.2]={anchored}, "
        f"{seconds:.0f}s (budget 1200s)",
    )


def test_criterion_7_sigma1_checks(acceptance_log):
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((25, 20))
    top = np.linalg.svd(mat, compute_uv=False)[0]
    est = sigma1_estimate(oracle_from_dense(mat), seed=0)
    matrix_err = abs(est - top) / top

    tensor = rng.standard_normal((9, 9, 7))
    base = sigma1_estimate(oracle_from_dense(tensor), seed=1)
    homo_err = 0.0
    for c in (2.0, 0.5, 10.0):
        scaled = sigma1_estimate(oracle_from_dense(c * tensor), seed=1)
        homo_err = max(homo_err, abs(scaled - c * base) / max(1.0, c * base))
    ok = matrix_err < 1e-6 and homo_err < 1e-8
    record(
        acceptance_log,
        7,
        ok,
        f"matrix vs dense SVD {matrix_err:.1e} (< 1e-06); "
        f"homogeneity deviation {homo_err:.1e} (< 1e-08)",
    )


REPLAY_COMMANDS = [
    ("synthetic", ["synthetic", "--shape", "10,10,10,10", "--true-ranks", "3,4,3"]),
    ("hilbert", ["hilbert", "--dims", "12,13,14", "--max-rank", "6"]),
    ("derivative", ["derivative", "--n", "8", "--k", "2", "--eps", "1e-2"]),
    ("taylor", ["taylor", "--n", "8", "--max-order", "2", "--rank", "6", "--samples", "20"]),
]


def test_criterion_8_byte_identical_reruns(acceptance_log, tmp_path):
    compared = 0
    identical = True
    for name, argv in REPLAY_COMMANDS:
        dirs = []
        for run in ("a", "b"):
            out = tmp_path / name / run
            code = cli_main(
                argv + ["--seed", "0", "--no-timing", "--out-dir", str(out)]
            )
            assert code == 0, f"{name} run {len(dirs) + 1} of 2 failed"
            dirs.append(out)
        # manifests carry real timestamps; every data file must agree byte
        # for byte
        names = [
            sorted(p.name for p in d.iterdir() if not p.name.endswith("_manifest.json"))
            for d in dirs
        ]
        identical &= names[0] == names[1] and len(names[0]) > 0
        for fname in names[0]:
            same = (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()
            identical &= same
            compared += 1
    record(
        acceptance_log,
        8,
        identical,
        f"4 commands re-run twice at the same seed, {compared} data files "
        f"byte-identical (manifests excluded)",
    )
