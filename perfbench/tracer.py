"""Spans around the library's public calls, recorded from outside the library.

:class:`Tracer` replaces the attributes each caller resolves at call time
(class methods, ``ttaction.core.tt_apply`` and the names imported into
``builder``, ``hovd.compress``, ``hovd.oracle`` and ``hovd.taylor``) with thin
wrappers, and puts every original back on exit.  A wrapper records a span
(name, start, end, parent, pass id) only while an operation span is open, so
correctness checks run between operations stay untraced.  Spans are kept in
flat arrays until :meth:`Tracer.layer_metrics` folds one pass into per-layer
numbers.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import Counter

OP_PREFIX = "op."

# span names whose self time counts as core.action time
ACTION_SPANS = ("core.action", "hilbert.action", "hovd.action")


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self._name_ids = {}
        self.names = []
        self.span_name = array("l")
        self.span_pass = array("l")
        self.span_parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()  # (pass id, counter name) -> value
        self.engines = {}  # pass id -> engines created inside operations
        self.hilbert_ids = set()
        self.pass_id = 0
        self._stack = []
        self._saved = []

    # -- recording ------------------------------------------------------------

    def _open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.span_name.append(nid)
        self.span_pass.append(self.pass_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name, value=1):
        self.counts[(self.pass_id, name)] += value

    @contextlib.contextmanager
    def op(self, name):
        """One top-level operation span; library calls inside it are traced."""
        idx = self._open(OP_PREFIX + name)
        try:
            yield
        finally:
            self._close(idx)

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _span(self, name, after=None):
        """Wrapper factory: record a span, then optionally inspect the result."""

        def make(fn):
            def wrapper(*args, **kwargs):
                if not self._stack:
                    return fn(*args, **kwargs)
                idx = self._open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._close(idx)
                if after is not None:
                    after(out)
                return out

            return wrapper

        return make

    def _action(self, fn):
        def wrapper(oracle, *args, **kwargs):
            if not self._stack:
                return fn(oracle, *args, **kwargs)
            if id(oracle) in self.hilbert_ids:
                name = "hilbert.action"
            elif getattr(oracle, "engine", None) is not None:
                name = "hovd.action"
            else:
                name = "core.action"
            idx = self._open(name)
            try:
                return fn(oracle, *args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _build(self, fn):
        """tt_from_actions: also compare the oracle's counter to the closed form."""
        from ttaction.builder import predicted_action_count

        def wrapper(oracle, config):
            if not self._stack:
                return fn(oracle, config)
            before = oracle.action_count
            idx = self._open("builder.build")
            try:
                train, report = fn(oracle, config)
            finally:
                self._close(idx)
            self.count("builder.actions", oracle.action_count - before)
            self.count(
                "builder.predicted",
                predicted_action_count(
                    oracle.dims, report.ranks, config.oversampling, config.tau_extra
                ),
            )
            return train, report

        return wrapper

    def _sigma1(self, fn):
        """sigma1_estimate: ask for the diagnostics, hand the caller its float."""

        def wrapper(oracle, *args, return_info=False, **kwargs):
            if not self._stack:
                return fn(oracle, *args, return_info=return_info, **kwargs)
            idx = self._open("hovd.sigma1")
            try:
                result = fn(oracle, *args, return_info=True, **kwargs)
            finally:
                self._close(idx)
            self.count("hovd.sigma1.iters", sum(result.iterations))
            self.count("hovd.sigma1.unconverged", int(not result.converged))
            return result if return_info else result.value

        return wrapper

    def _counter(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                if self._stack:
                    self.count(name)
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _engine_init(self, fn):
        def wrapper(engine, *args, **kwargs):
            fn(engine, *args, **kwargs)
            if self._stack:
                self.engines.setdefault(self.pass_id, []).append(engine)

        return wrapper

    def targets(self):
        """(owner, attribute, wrapper factory) for every traced entry point."""
        from ttaction import builder, core, rangefinder
        from ttaction.hovd import compress, model, oracle, taylor

        def newton(out):
            self.count("hovd.oracle.newton_iters", out[1])

        apply_span = self._span("core.tt_apply")
        range_span = self._span("rangefinder.range")
        interp_span = self._span("builder.interp")
        partial_span = self._span("hovd.model.partial")
        solve_span = self._span("hovd.model.lu_solve")
        engine_span = self._span("hovd.oracle.engine")
        return [
            (core.ActionOracle, "action", self._action),
            (core, "tt_apply", apply_span),
            (taylor, "tt_apply", apply_span),
            (compress, "tt_round", self._span("core.tt_round")),
            (builder, "randomized_range", range_span),
            (builder, "adaptive_range", range_span),
            (taylor, "randomized_range", range_span),
            (rangefinder.RangeProblem, "sample_inputs", self._counter("rangefinder.samples")),
            (builder, "tt_from_actions", self._build),
            (compress, "tt_from_actions", self._build),
            (taylor, "tt_from_actions", self._build),
            (builder, "interpolation_set", interp_span),
            (builder, "solve_interpolation", interp_span),
            (model.ReactionDiffusionModel, "partial_g", partial_span),
            (model.ReactionDiffusionModel, "partial_f", partial_span),
            (model.ReactionDiffusionModel, "factorize", self._span("hovd.model.factorize")),
            (model.FactorizedJacobian, "solve", solve_span),
            (model.FactorizedJacobian, "solve_t", solve_span),
            (oracle, "solve_state", self._span("hovd.oracle.solve_state", newton)),
            (oracle, "canonical_directions", self._span("hovd.lattice.canonical")),
            (oracle.DerivativeEngine, "__init__", self._engine_init),
            (oracle.DerivativeEngine, "output_free", engine_span),
            (oracle.DerivativeEngine, "mode_free", engine_span),
            (oracle.WhitenedMap, "apply", self._span("hovd.oracle.whiten")),
            (compress, "sigma1_estimate", self._sigma1),
            (taylor, "taylor_eval", self._span("hovd.taylor.eval")),
        ]

    def __enter__(self):
        try:
            for owner, attr, make in self.targets():
                self._patch(owner, attr, make)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- folding spans into metrics -------------------------------------------

    def span_table(self, pass_id):
        """Per span name: [count, total seconds, self seconds] for one pass."""
        n = len(self.start)
        child = [0.0] * n
        members = [i for i in range(n) if self.span_pass[i] == pass_id]
        for i in members:
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        table = {}
        for i in members:
            dur = self.end[i] - self.start[i]
            row = table.setdefault(self.names[self.span_name[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return table

    def count_under(self, pass_id, name, caller):
        """Number of spans called ``name`` whose parent span is called ``caller``."""
        nid, cid = self._name_ids.get(name), self._name_ids.get(caller)
        return sum(
            1
            for i in range(len(self.start))
            if self.span_pass[i] == pass_id
            and self.span_name[i] == nid
            and self.span_parent[i] >= 0
            and self.span_name[self.span_parent[i]] == cid
        )

    def engine_solves(self, pass_id):
        engines = self.engines.get(pass_id, [])
        return (
            sum(e.forward_solves for e in engines),
            sum(e.adjoint_solves for e in engines),
        )

    def layer_metrics(self, pass_id):
        """Per-layer metrics of one pass, bar the two the run adds.

        ``trace.overhead_s`` needs the untraced passes and
        ``hovd.compress.trials`` comes from compress_derivative's report.
        """
        table = self.span_table(pass_id)

        def row(name):
            return table.get(name, [0, 0.0, 0.0])

        def cnt(name):
            return self.counts.get((pass_id, name), 0)

        actions = [row(n) for n in ACTION_SPANS]
        forward, adjoint = self.engine_solves(pass_id)
        hovd_actions = row("hovd.action")[0]
        predicted = cnt("builder.predicted")
        return {
            "core.action.calls": sum(r[0] for r in actions),
            "core.action.self_s": sum(r[2] for r in actions),
            "core.tt_apply.calls": row("core.tt_apply")[0],
            "core.tt_apply.s": row("core.tt_apply")[1],
            "core.tt_round.calls": row("core.tt_round")[0],
            "core.tt_round.s": row("core.tt_round")[1],
            "rangefinder.range.calls": row("rangefinder.range")[0],
            "rangefinder.range.self_s": row("rangefinder.range")[2],
            "rangefinder.samples": cnt("rangefinder.samples"),
            "builder.build.calls": row("builder.build")[0],
            "builder.build.self_s": row("builder.build")[2],
            "builder.interp.s": row("builder.interp")[1],
            "builder.actions_over_predicted": (
                cnt("builder.actions") / predicted if predicted else 0.0
            ),
            "hilbert.action.s": row("hilbert.action")[2],
            "hovd.model.partial.calls": row("hovd.model.partial")[0],
            "hovd.model.partial.s": row("hovd.model.partial")[1],
            "hovd.model.lu_solve.calls": row("hovd.model.lu_solve")[0],
            "hovd.model.lu_solve.s": row("hovd.model.lu_solve")[1],
            "hovd.model.factorize.calls": row("hovd.model.factorize")[0],
            "hovd.model.factorize.s": row("hovd.model.factorize")[1],
            "hovd.oracle.solve_state.s": row("hovd.oracle.solve_state")[1],
            "hovd.oracle.newton_iters": cnt("hovd.oracle.newton_iters"),
            "hovd.lattice.canonical.s": row("hovd.lattice.canonical")[1],
            "hovd.oracle.engine.self_s": row("hovd.oracle.engine")[2],
            "hovd.oracle.forward_solves": forward,
            "hovd.oracle.adjoint_solves": adjoint,
            "hovd.oracle.solves_per_action": (
                (forward + adjoint) / hovd_actions if hovd_actions else 0.0
            ),
            "hovd.oracle.whiten.s": row("hovd.oracle.whiten")[1],
            "hovd.sigma1.calls": row("hovd.sigma1")[0],
            "hovd.sigma1.iters": cnt("hovd.sigma1.iters"),
            "hovd.sigma1.unconverged": cnt("hovd.sigma1.unconverged"),
            "hovd.sigma1.self_s": row("hovd.sigma1")[2],
            "hovd.compress.builds": self.count_under(
                pass_id, "builder.build", OP_PREFIX + "compress_derivative"
            ),
            "hovd.taylor.eval.calls": row("hovd.taylor.eval")[0],
            "hovd.taylor.eval.s": row("hovd.taylor.eval")[1],
        }
