"""The three workloads: inputs made from the seed, timed calls, output checks.

Each workload is a closed loop with one caller.  ``make_inputs(seed)`` builds
everything the timed calls need (it is what ``setup_s`` measures, together
with the import), ``warm_up()`` runs a small instance so lazy imports and
first-call costs land outside the timing, and ``run(inputs, p)`` performs one
pass through :meth:`Pass.operation`, which times the library call, runs its
checks and counts failures.  Only public functions of ``ttaction`` are
called, and the ones the tracer wraps are looked up on their module at call
time.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

import ttaction
from ttaction import builder, hovd
from ttaction.hilbert import DEFAULT_DIMS, hilbert_oracle

#: Counts the ROADMAP baseline recorded for derivative-eps at seed 0.
DERIVATIVE_SEED0 = {
    "actions": 11330,
    "forward_solves": 10962,
    "adjoint_solves": 11350,
    "rank": 11,
}

PROBES = 32


def subseed(seed, *tag):
    return int(np.random.SeedSequence((seed,) + tag).generate_state(1)[0])


class Pass:
    """Bookkeeping for one pass: solve time, actions, attempts and failures.

    ``clock`` times the library calls; ``run.py`` passes one that leaves out
    the reference samples taken during the call.
    """

    def __init__(self, tracer=None, clock=time.perf_counter):
        self.tracer = tracer
        self.clock = clock
        self.solve_s = 0.0
        self.actions = 0
        self.hovd_actions = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.layer = {}

    def operation(self, name, call, check):
        """Time ``call()``, then ``check(result)`` -> (actions, problems).

        A call that raises, or a check that reports a problem, is one failed
        operation.  Returns the call's result, or None when it raised.
        """
        self.attempted += 1
        span = self.tracer.op(name) if self.tracer else nullcontext()
        try:
            t0 = self.clock()
            with span:
                result = call()
            self.solve_s += self.clock() - t0
        except Exception as exc:  # a raised call is a counted failure, not a crash
            self.fail(name, f"{type(exc).__name__}: {exc}")
            return None
        actions, problems = check(result)
        self.actions += actions
        if problems:
            self.fail(name, "; ".join(problems))
        return result

    def fail(self, name, message):
        self.failed += 1
        self.errors.append(f"{name}: {message}")


def _action_error(oracle, train, rng):
    """Worst relative difference over random probe actions, train vs oracle."""
    worst = 0.0
    for _ in range(PROBES):
        free = int(rng.integers(1, oracle.order + 1))
        vs = [rng.standard_normal(n) for k, n in enumerate(oracle.dims, 1) if k != free]
        want = oracle.action(free, vs)
        got = ttaction.core.tt_apply(train, free, vs)
        worst = max(worst, float(np.linalg.norm(got - want) / np.linalg.norm(want)))
    return worst


def _random_train(rng, dims, ranks):
    bounds = (1, *ranks, 1)
    return ttaction.TensorTrain(
        [rng.standard_normal((bounds[k], n, bounds[k + 1])) for k, n in enumerate(dims)]
    )


class TrainBuild:
    """Action-only builds: three random-train recoveries and two Hilbert trains."""

    name = "train-build"
    # (dims, ranks, probe tolerance).  Recoveries are exact up to rounding
    # (probe errors near 1e-14); the Hilbert tolerances sit more than ten
    # times above the truncation error seen over seeds 0-5 (at most 2.5e-8
    # at rank 20 and 7.8e-6 at rank 10).
    RECOVERIES = [
        ((40,) * 8, (10,) * 7, 1e-10),
        ((60,) * 6, (12, 14, 16, 14, 12), 1e-10),
        ((20,) * 5, (4, 5, 6, 4), 1e-10),
    ]
    HILBERT = [((100,) * 6, 20, 1e-6), (DEFAULT_DIMS, 10, 1e-4)]

    def make_inputs(self, seed):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        cases = []
        for i, (dims, ranks, tol) in enumerate(self.RECOVERIES):
            oracle = ttaction.oracle_from_tt(_random_train(rng, dims, ranks))
            cases.append(("recovery", oracle, list(ranks), subseed(seed, 1, i), tol))
        for i, (dims, rank, tol) in enumerate(self.HILBERT):
            ranks = [rank] * (len(dims) - 1)
            cases.append(("hilbert", hilbert_oracle(dims), ranks, subseed(seed, 2, i), tol))
        hilbert = [case[1] for case in cases if case[0] == "hilbert"]
        return {"cases": cases, "probe_seed": subseed(seed, 3), "hilbert": hilbert}

    def run(self, inputs, p):
        probe_rng = np.random.default_rng(inputs["probe_seed"])
        for kind, oracle, ranks, seed, tol in inputs["cases"]:
            config = ttaction.BuildConfig(ranks=ranks, seed=seed)

            def call(oracle=oracle, config=config):
                before = oracle.action_count
                train, _ = builder.tt_from_actions(oracle, config)
                return train, oracle.action_count - before

            def check(result, oracle=oracle, ranks=ranks, tol=tol):
                train, spent = result
                problems = []
                law = ttaction.predicted_action_count(oracle.dims, ranks)
                if spent != law:
                    problems.append(f"{spent} actions, closed form {law}")
                if train.ranks != tuple(ranks):
                    problems.append(f"ranks {train.ranks}, asked {tuple(ranks)}")
                err = _action_error(oracle, train, probe_rng)
                if not err < tol:
                    problems.append(f"probe error {err:.2e} not below {tol:.0e}")
                return spent, problems

            p.operation(f"build_{kind}", call, check)

    def warm_up(self):
        rng = np.random.default_rng(0)
        oracle = ttaction.oracle_from_tt(_random_train(rng, (6, 7, 8, 6), (2, 3, 2)))
        builder.tt_from_actions(oracle, ttaction.BuildConfig(ranks=[2, 3, 2]))
        builder.tt_from_actions(hilbert_oracle((8, 9, 10)), ttaction.BuildConfig(ranks=2))


class DerivativeEps:
    """Spectral-error rank search on the order-2 derivative tensor at n = 8."""

    name = "derivative-eps"
    GRID, ORDER, EPS = 8, 2, 1e-2

    def make_inputs(self, seed):
        model = hovd.ReactionDiffusionModel(self.GRID)
        return {"model": model, "whitener": hovd.WhitenedMap(model), "seed": seed}

    def run(self, inputs, p):
        seed = inputs["seed"]

        def call():
            return hovd.compress_derivative(
                inputs["model"], self.ORDER, eps=self.EPS, seed=seed,
                whitener=inputs["whitener"],
            )

        def check(result):
            _, info = result
            problems = []
            if not info["sigma1_rel_error"] < self.EPS:
                problems.append(
                    f"sigma1_rel_error {info['sigma1_rel_error']:.3e} not below {self.EPS}"
                )
            if seed == 0:
                for key, want in DERIVATIVE_SEED0.items():
                    if info[key] != want:
                        problems.append(f"seed 0 {key} {info[key]}, baseline {want}")
            p.hovd_actions += info["actions"]
            p.layer["hovd.compress.trials"] = len(info["trials"])
            return info["actions"], problems

        p.operation("compress_derivative", call, check)

    def warm_up(self):
        model = hovd.ReactionDiffusionModel(4)
        hovd.compress_derivative(model, 2, rank=2)


class Taylor:
    """Order-3 Taylor surrogate at n = 12, then error statistics over 200 samples."""

    name = "taylor"
    GRID, ORDER, RANK, SAMPLES = 12, 3, 10, 200

    def make_inputs(self, seed):
        model = hovd.ReactionDiffusionModel(self.GRID)
        return {"model": model, "whitener": hovd.WhitenedMap(model), "seed": seed}

    def run(self, inputs, p):
        seed, model, whitener = inputs["seed"], inputs["model"], inputs["whitener"]

        def build():
            return hovd.build_taylor_surrogate(
                model, order=self.ORDER, rank=self.RANK, seed=seed, whitener=whitener
            )

        def check_build(result):
            _, reports = result
            problems = []
            p_over = ttaction.rangefinder.DEFAULT_OVERSAMPLING
            spent, law = reports[1]["actions"], 2 * self.RANK + p_over
            if spent != law:
                problems.append(f"order 1: {spent} actions, closed form {law}")
            for j in range(2, self.ORDER + 1):
                dims = (model.n_m,) * j + (model.n_q,)
                law = ttaction.predicted_action_count(dims, [self.RANK] * j)
                if reports[j].total_actions != law:
                    problems.append(
                        f"order {j}: {reports[j].total_actions} actions, closed form {law}"
                    )
                spent += reports[j].total_actions
            p.hovd_actions += spent
            return spent, problems

        built = p.operation("build_taylor_surrogate", build, check_build)

        def stats():
            if built is None:
                raise RuntimeError("no surrogate: the build failed")
            return hovd.taylor_error_stats(
                built[0], whitener.evaluate, n_samples=self.SAMPLES, seed=subseed(seed, 9)
            )

        def check_stats(result):
            means = result["means"]
            problems = []
            if not all(a > b for a, b in zip(means, means[1:])):
                problems.append(f"means not strictly decreasing: {means}")
            if not 0.8 <= means[0] <= 1.2:
                problems.append(f"order-0 mean {means[0]:.4f} outside [0.8, 1.2]")
            return 0, problems

        p.operation("taylor_error_stats", stats, check_stats)

    def warm_up(self):
        model = hovd.ReactionDiffusionModel(5)
        whitener = hovd.WhitenedMap(model)
        surrogate, _ = hovd.build_taylor_surrogate(model, order=2, rank=2, whitener=whitener)
        hovd.taylor_error_stats(surrogate, whitener.evaluate, n_samples=2)


WORKLOADS = {w.name: w for w in (TrainBuild(), DerivativeEps(), Taylor())}
