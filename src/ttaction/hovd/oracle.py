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
:class:`DerivativeEngine` on it.

Lattice nodes are cached by the byte identity of the direction vectors, so
repeating directions within or across actions never repeats a solve, and a
fully symmetric direction tuple collapses the 2^k lattice to a chain.
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


def solve_state(model, m, u0=None, max_iter=50):
    """Solve G(m, u) = 0 by Newton's method with a backtracking line search.

    Starts from ``u0``, or from zero when ``u0`` is not given.  The pure
    Newton direction is tried first; when it is unusable (the Jacobian is
    singular exactly at u = 0, where the cubic reaction vanishes and the
    Neumann operator keeps constants in its nullspace) the step is
    recomputed with an escalating diagonal shift until the line search
    accepts it.  Iterates until
    ``||G|| < 1e-10 * max(1, ||rho||)`` with the model's source norm as scale.
    Returns (state, iteration count); raises
    :class:`~ttaction.errors.NewtonError` after ``max_iter`` iterations or
    when no damped step succeeds.
    """
    m = np.asarray(m, dtype=float).ravel()
    u = np.zeros(model.n_u) if u0 is None else np.asarray(u0, dtype=float).ravel()
    target = 1e-10 * max(1.0, float(np.linalg.norm(model.rho)))
    res = model.residual(m, u)
    rnorm = float(np.linalg.norm(res))
    iters = 0
    while rnorm >= target:
        if iters >= max_iter:
            raise NewtonError(
                f"no convergence in {max_iter} iterations (residual {rnorm:.3e})"
            )
        accepted = None
        try:
            step = model.factorize(m, u).solve(-res)
            # a singular Jacobian shows up as a step of absurd length; skip
            # the doomed line search and go straight to damping
            if float(np.linalg.norm(step)) <= 1e12 * max(1.0, float(np.linalg.norm(u))):
                accepted = _line_search(model, m, u, rnorm, step)
        except RuntimeError:
            accepted = None
        if accepted is None:
            for shift in (1e-6, 1e-4, 1e-2, 1.0, 1e2):
                damped = model.factorize(m, u, shift=shift * rnorm).solve(-res)
                accepted = _line_search(model, m, u, rnorm, damped)
                if accepted is not None:
                    break
            else:
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
    are the model's shared base point.  Lattice nodes are cached by direction
    identity, so the solve counters see each node once; a solve that raises
    caches nothing.  Serves one caller at a time, as a numpy ``Generator``
    does: the cache and counters have no synchronisation.
    """

    def __init__(self, model, order):
        if order < 1:
            raise ShapeError(f"derivative order must be >= 1, got {order}")
        self.model = model
        self.order = order
        self.m0 = np.zeros(model.n_m)
        self.u0, self.newton_iterations, self.factor = _base_point(model)
        self.forward_solves = 0
        self.adjoint_solves = 0
        self._cache = {}

    def clear_cache(self):
        """Drop cached lattice nodes; the state and its LU stay."""
        self._cache.clear()

    def _canonical(self, directions, count):
        """Check ``count`` directions of length n_m once, then group them.

        This is the engine boundary: every direction a partial sees later is
        a flat float vector of the right length.
        """
        if len(directions) != count:
            raise ShapeError(f"need {count} directions, got {len(directions)}")
        unique, counts, digests = canonical_directions(directions)
        for v in unique:
            if v.shape != (self.model.n_m,):
                raise ShapeError(
                    f"direction has shape {v.shape}, expected ({self.model.n_m},)"
                )
        return unique, counts, digests

    # -- forward lattice ----------------------------------------------------

    def _m_pairs(self, unique, j_counts):
        return [("m", unique[i]) for i, c in enumerate(j_counts) for _ in range(c)]

    def _forward_sum(self, partial, size, unique, beta, values, unknown=None):
        """Chain-rule sum of ``partial`` over the expansion of ``beta``.

        Leaves out the term that is u^unknown alone (a solve's unknown).
        """
        out = np.zeros(size)
        for (j_counts, blocks), coef in expansion(beta):
            if not any(j_counts) and blocks == (unknown,):
                continue  # the unknown itself
            pairs = self._m_pairs(unique, j_counts)
            pairs += [("u", values[b]) for b in blocks]
            out += coef * partial(self.m0, self.u0, pairs)
        return out

    def _forward_values(self, unique, counts, digests):
        """Ensure and return the state sensitivities u^beta for beta <= counts."""
        values = {}
        for beta in sub_multisets(counts):
            key = ("u", block_signature(digests, beta))
            if key not in self._cache:
                rhs = self._forward_sum(
                    self.model.partial_g, self.model.n_u, unique, beta, values,
                    unknown=beta,
                )
                self.forward_solves += 1
                self._cache[key] = self.factor.solve(-rhs)
            values[beta] = self._cache[key]
        return values

    def output_free(self, directions):
        """T(p_1, ..., p_k, .): all derivative slots saturated, output free."""
        unique, counts, digests = self._canonical(directions, self.order)
        values = self._forward_values(unique, counts, digests)
        return self._forward_sum(
            self.model.partial_f, self.model.n_q, unique, counts, values
        )

    # -- adjoint lattice ----------------------------------------------------

    def _adjoint_sum(self, free, unique, beta, values, q, lams, unknown=None):
        """Adjoint chain-rule sum over the expansion of ``beta``.

        ``free="u"`` gives the right-hand side of an adjoint solve, ``"m"`` a
        mode-free action.  Leaves out the term carrying lambda^unknown alone.
        """
        model, m0, u0 = self.model, self.m0, self.u0
        out = np.zeros(model.n_u if free == "u" else model.n_m)
        base_lam = lams[(0,) * len(beta)]
        for (j_counts, blocks), coef in expansion(beta):
            m_pairs = self._m_pairs(unique, j_counts)
            pairs_all = m_pairs + [("u", values[b]) for b in blocks]
            out += coef * model.partial_g(m0, u0, pairs_all, weight=base_lam, free=free)
            out += coef * model.partial_f(m0, u0, pairs_all, weight=q, free=free)
            if not any(j_counts) and blocks == (unknown,):
                continue  # the unknown itself
            for block, mult in Counter(blocks).items():
                rest = list(blocks)
                rest.remove(block)
                pairs = m_pairs + [("u", values[b]) for b in rest]
                g = model.partial_g(m0, u0, pairs, weight=lams[block], free=free)
                out += coef * mult * g
        return out

    def _adjoint_values(self, unique, counts, digests, q, values):
        """Adjoint sensitivities lambda^beta for beta <= counts, q fixed."""
        q = np.ascontiguousarray(q, dtype=float)
        qsig = q.tobytes()
        key = ("l", qsig, ())
        if key not in self._cache:
            rhs = self.model.partial_f(self.m0, self.u0, [], weight=q, free="u")
            self.adjoint_solves += 1
            self._cache[key] = self.factor.solve_t(-rhs)
        lams = {(0,) * len(counts): self._cache[key]}
        for beta in sub_multisets(counts):
            key = ("l", qsig, block_signature(digests, beta))
            if key not in self._cache:
                rhs = self._adjoint_sum("u", unique, beta, values, q, lams, unknown=beta)
                self.adjoint_solves += 1
                self._cache[key] = self.factor.solve_t(-rhs)
            lams[beta] = self._cache[key]
        return lams

    def mode_free(self, directions, q):
        """S(., p_2, ..., p_k, q): one derivative slot free, output contracted.

        ``directions`` are the k-1 saturated derivative slots; ``q`` weights
        the output slot.  Returns a vector in parameter space.
        """
        q = np.asarray(q, dtype=float).ravel()
        if q.shape != (self.model.n_q,):
            raise ShapeError(f"q has shape {q.shape}, expected ({self.model.n_q},)")
        unique, counts, digests = self._canonical(directions, self.order - 1)
        values = self._forward_values(unique, counts, digests)
        lams = self._adjoint_values(unique, counts, digests, q, values)
        return self._adjoint_sum("m", unique, counts, values, q, lams)


class WhitenedMap:
    """Parameter smoothing and the whitened forward map.

    Draws in raw space are mapped through the inverse of the symmetric
    operator (-Laplace + I) before entering the model, which damps rough
    components the way a squared-inverse-elliptic covariance would.  The
    smoother is its own transpose.

    Every evaluation warm-starts its Newton solve at the model's shared base
    state at m = 0, solved on first use.  The state equation has one
    solution for each m (e^m > 0 and u^3 is monotone), so the start changes
    only the iterations spent, not the root.
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
        u, _ = solve_state(self.model, m, u0=_base_point(self.model)[0])
        return self.model.qoi(m, u)

    def base_value(self):
        """Output at x = 0, read from the base state."""
        return self.model.qoi(np.zeros(self.model.n_m), _base_point(self.model)[0])


class DerivativeOracle(ActionOracle):
    """An action oracle served by a :class:`DerivativeEngine`.

    ``engine`` holds the solve counters and the lattice cache that
    :meth:`clear_cache` empties.  Built by :func:`make_derivative_oracle`.
    """

    def __init__(self, dims, apply_fn, engine):
        super().__init__(dims, apply_fn)
        self.engine = engine

    def clear_cache(self):
        """Drop the engine's cached lattice nodes; its state and LU stay."""
        self.engine.clear_cache()


def make_derivative_oracle(model, order, whitener=None):
    """Wrap an order-k derivative tensor as an :class:`~ttaction.core.ActionOracle`.

    The oracle has k derivative modes of size n_m followed by one output mode
    of size n_q.  Freeing the output mode gives the forward (output-free)
    action; freeing any derivative mode uses the symmetry of the derivative
    slots and runs the adjoint path, so every mode of the tensor is available
    to a tensor-train builder.  With a ``whitener`` the derivative slots take
    raw-space vectors, which are smoothed on the way in, and free-slot
    outputs are smoothed on the way back out.

    The returned :class:`DerivativeOracle` carries the underlying engine as
    ``oracle.engine`` (solve counters), and its ``clear_cache`` empties the
    engine's lattice cache.
    """
    engine = DerivativeEngine(model, order)
    d = order + 1
    dims = (model.n_m,) * order + (model.n_q,)

    def smooth_all(vectors):
        seen = {}
        out = []
        for v in vectors:
            key = np.ascontiguousarray(v, dtype=float).tobytes()
            if key not in seen:
                seen[key] = whitener.apply(v)
            out.append(seen[key])
        return out

    def apply_fn(free_mode, vectors):
        if free_mode == d:
            ps = smooth_all(vectors) if whitener else vectors
            return engine.output_free(ps)
        ps, q = vectors[:-1], vectors[-1]
        if whitener:
            ps = smooth_all(ps)
        g = engine.mode_free(ps, q)
        return whitener.apply(g) if whitener else g

    return DerivativeOracle(dims, apply_fn, engine)
