"""Derivative tensors of an implicitly defined map, exposed as actions.

Given a model with state equation G(m, u) = 0 and observation F(m, u), the
order-k derivative of the parameter-to-observation map at a base point is a
(k+1)-mode tensor: k derivative slots of size n_m and one output slot of size
n_q.  Saturating every derivative slot propagates direction sensitivities
forward through a lattice of linear solves with the state Jacobian; leaving a
derivative slot free instead contracts the output slot with a weight vector
and runs a second lattice of transposed solves, the high-order analogue of
the adjoint gradient.  Both lattices share one LU factorization of the state
Jacobian at the base point m0 = 0.  That base point (state, Newton iterations
and LU) is solved once per model and shared by every :class:`WhitenedMap` and
:class:`DerivativeEngine` on it.  A state solve refines each Newton step on
the LU in hand and factorizes only when that stalls.  This module is the one
home of LU work on the state Jacobian.

Lattice nodes are cached by the float64 bytes of the direction vectors, so
repeating directions within or across actions never repeats a solve, and a
fully symmetric direction tuple collapses the 2^k lattice to a chain.  For a
whitened tensor the engine also smooths: each distinct raw direction once per
cache, keyed by the same bytes, and each free-slot output on the way out.
"""

from __future__ import annotations

import weakref
from collections import Counter

import numpy as np
import scipy.sparse.linalg

from ..core import ActionOracle
from ..errors import NewtonError, ShapeError
from .lattice import (
    block_signature,
    canonical_directions,
    expansion,
    sub_multisets,
)


def _line_search(model, m, u, rnorm, step):
    """Backtracking Armijo search; (state, residual, norm) or None."""
    t = 1.0
    while t >= 2.0**-30:
        trial = u + t * step
        trial_res = model.residual(m, trial)
        trial_norm = float(np.linalg.norm(trial_res))
        if np.isfinite(trial_norm) and trial_norm <= (1.0 - 1e-4 * t) * rnorm:
            return trial, trial_res, trial_norm
        t *= 0.5
    return None


def _kept_lu_step(model, m, u, res, rnorm, lu, goal):
    """Newton step J s = -G solved by refinement sweeps on the LU in hand.

    Each sweep adds ``lu.solve(r)`` to the step, where r = -G - J s is the
    linear residual, with J = dG/du at the iterate applied through
    ``partial_g``.  Returns the step once ||r|| <= ``goal``, or None as soon
    as a sweep fails to halve ||r|| (the LU is too far from J to converge).
    """
    step, lin, lnorm = 0.0, -res, rnorm
    while lnorm > goal:
        trial = step + lu.solve(lin)
        trial_lin = -res - model.partial_g(m, u, [], [trial])
        trial_norm = float(np.linalg.norm(trial_lin))
        if not trial_norm <= 0.5 * lnorm:
            return None
        step, lin, lnorm = trial, trial_lin, trial_norm
    return step


def solve_state(model, m, u0=None, lu=None, max_iter=50):
    """Solve G(m, u) = 0 by Newton's method with a backtracking line search.

    Starts from ``u0``, or from the cube root of the source.  Each step
    solves dG/du s = -G at the iterate by refinement sweeps on the LU in
    hand, the caller's ``lu`` (such as the base point's) or the last one this
    solve factorized, to a linear residual of ``||G|| * min(0.5, ||G|| /
    scale)``: a forcing term of the size of ``||G||`` keeps Newton's
    quadratic convergence (Dembo, Eisenstat & Steihaug 1982).  With no LU
    yet, a sweep that fails to halve the linear residual, or a step the line
    search rejects, the solve factorizes dG/du at the iterate, takes that
    exact Newton step and keeps the new LU.  Iterates until ``||G|| < 1e-10 *
    scale`` with ``scale = max(1, ||rho||)``, the model's source norm.
    Returns (state, Newton steps taken); raises
    :class:`~ttaction.errors.NewtonError` after ``max_iter`` steps or when
    the line search rejects an exact Newton step.
    """
    m = np.asarray(m, dtype=float).ravel()
    # dG/du = L(m) + 3 diag(u^2), L of zero row sums and non-positive off-diagonals
    # on a connected grid, is irreducibly diagonally dominant, so nonsingular, unless
    # u = 0; the root of the reaction alone starts away from that one singular point
    u = np.cbrt(model.rho) if u0 is None else np.asarray(u0, dtype=float).ravel()
    scale = max(1.0, float(np.linalg.norm(model.rho)))
    target = 1e-10 * scale
    res = model.residual(m, u)
    rnorm = float(np.linalg.norm(res))
    iters = 0
    while rnorm >= target:
        if iters >= max_iter:
            raise NewtonError(
                f"no convergence in {max_iter} iterations (residual {rnorm:.3e})"
            )
        accepted = None
        if lu is not None:
            goal = rnorm * min(0.5, rnorm / scale)
            step = _kept_lu_step(model, m, u, res, rnorm, lu, goal)
            if step is not None:
                accepted = _line_search(model, m, u, rnorm, step)
        if accepted is None:
            lu = model.factorize(m, u)
            accepted = _line_search(model, m, u, rnorm, lu.solve(-res))
            if accepted is None:
                raise NewtonError(f"line search stalled (residual {rnorm:.3e})")
        u, res, rnorm = accepted
        iters += 1
    return u, iters


# model -> its base point; weak, so a dropped model takes its entry with it
_BASE_POINTS = weakref.WeakKeyDictionary()


def _base_point(model):
    """(read-only state, Newton iterations, state LU) at m = 0, solved once.

    A model is not changed after construction, so its base point holds for
    as long as the model lives.
    """
    if model not in _BASE_POINTS:
        m0 = np.zeros(model.n_m)
        u0, iters = solve_state(model, m0)
        u0.flags.writeable = False
        _BASE_POINTS[model] = (u0, iters, model.factorize(m0, u0))
    return _BASE_POINTS[model]


class DerivativeEngine:
    """Forward and adjoint derivative lattices at the base point m0 = 0.

    The base state ``u0``, its ``newton_iterations`` and the LU ``factor``
    are the model's shared base point.  The observation is taken as the
    model states it: linear in u and independent of m.  So an output-free
    action is ``model.qoi`` of one state sensitivity, the adjoint seed is the
    observation's only partial (``partial_f`` once per distinct weight q),
    and the adjoint sums run over ``partial_g`` alone.  Directions are keyed
    by their float64 bytes and lattice nodes by those keys, so the solve
    counters see each node once; a solve that raises caches nothing.  With a ``whitener`` the
    directions are raw-space vectors: each distinct one is smoothed on its
    first use and kept, read-only, in the same cache, and :meth:`mode_free`
    smooths its output.  Serves one caller at a time, as a numpy
    ``Generator`` does: the cache and counters have no synchronisation.
    """

    def __init__(self, model, order, whitener=None):
        if order < 1:
            raise ShapeError(f"derivative order must be >= 1, got {order}")
        self.model = model
        self.order = order
        self.whitener = whitener
        self.m0 = np.zeros(model.n_m)
        self.u0, self.newton_iterations, self.factor = _base_point(model)
        self.forward_solves = 0
        self.adjoint_solves = 0
        self._cache = {}

    def clear_cache(self):
        """Drop cached lattice nodes and smoothed directions; the state stays."""
        self._cache.clear()

    def _canonical(self, directions, count):
        """Check ``count`` directions of length n_m once, group and smooth them.

        This is the engine boundary: every direction a partial sees later is
        a flat float vector of the right length, smoothed if whitened.
        """
        if len(directions) != count:
            raise ShapeError(f"need {count} directions, got {len(directions)}")
        unique, counts, keys = canonical_directions(directions)
        for i, v in enumerate(unique):
            if v.shape != (self.model.n_m,):
                raise ShapeError(
                    f"direction has shape {v.shape}, expected ({self.model.n_m},)"
                )
            if self.whitener is not None:
                key = ("p", keys[i])
                if key not in self._cache:
                    self._cache[key] = self.whitener.apply(v)
                    self._cache[key].flags.writeable = False
                unique[i] = self._cache[key]
        return unique, counts, keys

    # -- forward lattice ----------------------------------------------------

    def _forward_sum(self, unique, beta, values):
        """Chain-rule sum of ``partial_g`` over the expansion of ``beta``.

        Leaves out the term that is u^beta alone (the solve's unknown).
        """
        out = np.zeros(self.model.n_u)
        for (j_counts, blocks), coef in expansion(beta):
            if not any(j_counts) and blocks == (beta,):
                continue  # the unknown itself
            vs = [v for v, c in zip(unique, j_counts) for _ in range(c)]
            ws = [values[b] for b in blocks]
            out += coef * self.model.partial_g(self.m0, self.u0, vs, ws)
        return out

    def _forward_values(self, unique, counts, keys):
        """Ensure and return the state sensitivities u^beta for beta <= counts."""
        values = {}
        for beta in sub_multisets(counts):
            key = ("u", block_signature(keys, beta))
            if key not in self._cache:
                rhs = self._forward_sum(unique, beta, values)
                self.forward_solves += 1
                self._cache[key] = self.factor.solve(-rhs)
            values[beta] = self._cache[key]
        return values

    def output_free(self, directions):
        """T(p_1, ..., p_k, .): all derivative slots saturated, output free."""
        unique, counts, keys = self._canonical(directions, self.order)
        values = self._forward_values(unique, counts, keys)
        return self.model.qoi(self.m0, values[counts])

    # -- adjoint lattice ----------------------------------------------------

    def _adjoint_sum(self, free, unique, beta, values, lams, unknown=None):
        """Adjoint chain-rule sum over the expansion of ``beta``.

        ``free="u"`` gives the right-hand side of an adjoint solve, ``"m"`` a
        mode-free action.  Leaves out the term carrying lambda^unknown alone.
        """
        model, m0, u0 = self.model, self.m0, self.u0
        out = np.zeros(model.n_u if free == "u" else model.n_m)
        base_lam = lams[(0,) * len(beta)]
        for (j_counts, blocks), coef in expansion(beta):
            vs = [v for v, c in zip(unique, j_counts) for _ in range(c)]
            ws = [values[b] for b in blocks]
            out += coef * model.partial_g(m0, u0, vs, ws, weight=base_lam, free=free)
            if not any(j_counts) and blocks == (unknown,):
                continue  # the unknown itself
            for block, mult in Counter(blocks).items():
                rest = list(blocks)
                rest.remove(block)
                ws = [values[b] for b in rest]
                g = model.partial_g(m0, u0, vs, ws, weight=lams[block], free=free)
                out += coef * mult * g
        return out

    def _adjoint_values(self, unique, counts, keys, q, values):
        """Adjoint sensitivities lambda^beta for beta <= counts, q fixed."""
        q = np.ascontiguousarray(q, dtype=float)
        qsig = q.tobytes()
        key = ("l", qsig, ())
        if key not in self._cache:
            rhs = self.model.partial_f(self.m0, self.u0, q)
            self.adjoint_solves += 1
            self._cache[key] = self.factor.solve_t(-rhs)
        lams = {(0,) * len(counts): self._cache[key]}
        for beta in sub_multisets(counts):
            key = ("l", qsig, block_signature(keys, beta))
            if key not in self._cache:
                rhs = self._adjoint_sum("u", unique, beta, values, lams, unknown=beta)
                self.adjoint_solves += 1
                self._cache[key] = self.factor.solve_t(-rhs)
            lams[beta] = self._cache[key]
        return lams

    def mode_free(self, directions, q):
        """S(., p_2, ..., p_k, q): one derivative slot free, output contracted.

        ``directions`` are the k-1 saturated derivative slots; ``q`` weights
        the output slot.  Returns a vector in parameter space, smoothed if
        whitened (the smoother is its own transpose).
        """
        q = np.asarray(q, dtype=float).ravel()
        if q.shape != (self.model.n_q,):
            raise ShapeError(f"q has shape {q.shape}, expected ({self.model.n_q},)")
        unique, counts, keys = self._canonical(directions, self.order - 1)
        values = self._forward_values(unique, counts, keys)
        lams = self._adjoint_values(unique, counts, keys, q, values)
        g = self._adjoint_sum("m", unique, counts, values, lams)
        return g if self.whitener is None else self.whitener.apply(g)


class WhitenedMap:
    """Parameter smoothing and the whitened forward map.

    Draws in raw space are mapped through the inverse of the symmetric
    operator (-Laplace + I) before entering the model, which damps rough
    components the way a squared-inverse-elliptic covariance would.  The
    smoother is its own transpose.

    Every evaluation warm-starts its Newton solve at the model's shared base
    state at m = 0, solved on first use, with the base point's LU in hand:
    :func:`solve_state` refines on that LU and replaces it by a factorization
    at the iterate only where refinement stalls.  The state equation has one
    solution for each m (e^m > 0 and u^3 is monotone), so the start and the
    linear solver change only the work spent, not the root.
    """

    def __init__(self, model):
        self.model = model
        self._lu = scipy.sparse.linalg.splu(model.whitening_matrix())

    def apply(self, x):
        """The smoothing half-power: solve (-Laplace + I) p = x."""
        x = np.asarray(x, dtype=float).ravel()
        if x.shape != (self.model.n_m,):
            raise ShapeError(f"x has shape {x.shape}, expected ({self.model.n_m},)")
        return self._lu.solve(x)

    def evaluate(self, x):
        """Observed output at the smoothed parameter, via a full state solve."""
        m = self.apply(x)
        u0, _, lu = _base_point(self.model)
        u, _ = solve_state(self.model, m, u0=u0, lu=lu)
        return self.model.qoi(m, u)

    def base_value(self):
        """Output at x = 0, read from the base state."""
        return self.model.qoi(np.zeros(self.model.n_m), _base_point(self.model)[0])


class DerivativeOracle(ActionOracle):
    """An action oracle served by a :class:`DerivativeEngine`.

    ``engine`` holds the solve counters and the one cache, of lattice nodes
    and smoothed directions, that :meth:`clear_cache` empties.  Built by
    :func:`make_derivative_oracle`.
    """

    def __init__(self, dims, apply_fn, engine):
        super().__init__(dims, apply_fn)
        self.engine = engine

    def clear_cache(self):
        """Empty the engine's cache; its state and LU stay."""
        self.engine.clear_cache()


def make_derivative_oracle(model, order, whitener=None):
    """Wrap an order-k derivative tensor as an :class:`~ttaction.core.ActionOracle`.

    The oracle has k derivative modes of size n_m followed by one output mode
    of size n_q.  Freeing the output mode gives the forward (output-free)
    action; freeing any derivative mode uses the symmetry of the derivative
    slots and runs the adjoint path, so every mode of the tensor is available
    to a tensor-train builder.  With a ``whitener`` the derivative slots take
    raw-space vectors, which the engine smooths on the way in and on the way
    back out of a free derivative slot.

    The returned :class:`DerivativeOracle` carries the underlying engine as
    ``oracle.engine`` (solve counters), and its ``clear_cache`` empties the
    engine's cache, the only one the oracle holds.
    """
    engine = DerivativeEngine(model, order, whitener)
    dims = (model.n_m,) * order + (model.n_q,)

    def apply_fn(free_mode, vectors):
        if free_mode == order + 1:
            return engine.output_free(vectors)
        return engine.mode_free(vectors[:-1], vectors[-1])

    return DerivativeOracle(dims, apply_fn, engine)
