"""The benchmark's own checks: tracer wiring, span accounting, output contract.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import ttaction
from ttaction import builder, hovd
from ttaction.hilbert import hilbert_oracle

import calibrate
import metrics
import run
from tracer import Tracer
from workloads import WORKLOADS, Pass, _random_train

ROOT = Path(__file__).resolve().parents[2]


def no_check(result):
    return 0, []


def small_pass(tracer=None):
    """One pass over small inputs that reaches every traced layer."""
    p = Pass(tracer)
    rng = np.random.default_rng(0)
    oracle = ttaction.oracle_from_tt(_random_train(rng, (5, 6, 7, 5), (2, 3, 2)))
    config = ttaction.BuildConfig(ranks=[2, 3, 2])
    p.operation("build_recovery", lambda: builder.tt_from_actions(oracle, config), no_check)
    hilbert = hilbert_oracle((6, 7, 8))
    if tracer is not None:
        tracer.hilbert_ids = {id(hilbert)}
    config = ttaction.BuildConfig(ranks=2)
    p.operation("build_hilbert", lambda: builder.tt_from_actions(hilbert, config), no_check)

    def check_compress(result):
        info = result[1]
        p.hovd_actions += info["actions"]
        return info["actions"], []

    model = hovd.ReactionDiffusionModel(4)
    p.operation(
        "compress_derivative",
        lambda: hovd.compress_derivative(model, 2, eps=0.3),
        check_compress,
    )

    def check_taylor(result):
        reports = result[1]
        spent = reports[1]["actions"] + reports[2].total_actions
        p.hovd_actions += spent
        return spent, []

    model = hovd.ReactionDiffusionModel(5)
    whitener = hovd.WhitenedMap(model)
    built = p.operation(
        "build_taylor_surrogate",
        lambda: hovd.build_taylor_surrogate(model, order=2, rank=2, whitener=whitener),
        check_taylor,
    )
    p.operation(
        "taylor_error_stats",
        lambda: hovd.taylor_error_stats(built[0], whitener.evaluate, n_samples=3),
        no_check,
    )
    assert p.failed == 0, p.errors
    return p


def test_untraced_pass_sees_originals_and_wrappers_are_restored():
    tracer = Tracer()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracer.targets()]
    with tracer:
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
        small_pass(tracer)
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    recorded = len(tracer.start)
    small_pass()
    assert len(tracer.start) == recorded
    with pytest.raises(RuntimeError):
        with tracer:
            raise RuntimeError("boom")
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def test_self_times_sum_within_traced_solve_s():
    tracer = Tracer()
    with tracer:
        p = small_pass(tracer)
    table = tracer.span_table(0)
    self_total = sum(row[2] for row in table.values())
    assert 0.9 * p.solve_s < self_total <= p.solve_s
    for name, (count, total, self_s) in table.items():
        assert count > 0 and -1e-9 <= self_s <= total + 1e-12, name


def test_spans_agree_with_program_counters():
    tracer = Tracer()
    with tracer:
        p = small_pass(tracer)
    assert run.trace_checks(tracer, 0, p) == []
    layer = tracer.layer_metrics(0)
    names = {m["name"] for m in metrics.PER_LAYER}
    assert set(layer) == names - {"trace.overhead_s", "hovd.compress.trials"}
    assert layer["builder.actions_over_predicted"] == 1.0
    for name in metrics.PER_LAYER:
        if name["name"] in layer and name["name"] != "hovd.sigma1.unconverged":
            assert layer[name["name"]] > 0, name["name"]


def test_sigma1_wrapper_returns_what_the_caller_asked_for():
    sigma1 = ttaction.hovd.compress.sigma1_estimate
    mat = np.random.default_rng(1).standard_normal((6, 5))
    plain = sigma1(ttaction.oracle_from_dense(mat), seed=0)
    tracer = Tracer()
    with tracer, tracer.op("sigma1"):
        wrapped = ttaction.hovd.compress.sigma1_estimate
        assert wrapped(ttaction.oracle_from_dense(mat), seed=0) == plain
        info = wrapped(ttaction.oracle_from_dense(mat), seed=0, return_info=True)
        assert info.value == plain
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            wrapped(ttaction.oracle_from_dense(mat), seed=0, n_starts=1, max_iter=1)
    assert [w.category.__name__ for w in caught] == ["ConvergenceWarning"]
    assert tracer.counts[(0, "hovd.sigma1.unconverged")] == 1


def test_benchmark_json_matches_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["workloads"] == [{"name": k, "why": v} for k, v in metrics.WORKLOADS.items()]
    keep = ("name", "unit", "better", "bound")
    assert spec["end_to_end"] == [{k: m[k] for k in keep} for m in metrics.END_TO_END]
    assert spec["per_layer"] == [{k: m[k] for k in keep[:3]} for m in metrics.PER_LAYER]


def test_run_prints_metrics_and_a_result_line(capsys):
    assert run.main(["--workload", "train-build", "--seed", "0", "--seconds", "0"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in metrics.END_TO_END]
    shown = {line.split()[1]: float(line.split()[2])
             for line in lines if line.startswith("metric ")}
    assert {m["name"] for m in metrics.END_TO_END + metrics.REPORTED_ONLY} <= set(shown)
    # one pass: actions per reference unit is actions per second times seconds per unit
    assert shown["actions_per_ref"] == pytest.approx(
        shown["actions_per_s"] * shown["ref_unit_s"], rel=1e-9
    )


def test_sampler_times_the_reference_and_leaves_it_out_of_its_clock():
    assert calibrate.unit() == calibrate.unit()
    sampler = calibrate.Sampler()
    previous = signal.getsignal(signal.SIGALRM)
    with sampler:
        t0, c0 = time.perf_counter(), sampler.clock()
        while time.perf_counter() - t0 < 10 * calibrate.PERIOD_S:
            pass
        wall, work = time.perf_counter() - t0, sampler.clock() - c0
    assert sampler.units >= 5
    assert work == pytest.approx(wall - sampler.spent, abs=0.05)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-build",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
