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
the LU in hand and factorizes only when that stalls; it runs a column block
of parameters as one lockstep Newton loop, each column with the steps and
bits of its solve alone.  This module is the one home of LU work on the
state Jacobian.

Lattice nodes are cached by the float64 bytes of the direction vectors, so
repeating directions within or across actions never repeats a solve, and a
fully symmetric direction tuple collapses the 2^k lattice to a chain.  For a
whitened tensor the engine also smooths: each distinct raw direction once per
cache, keyed by the same bytes, and each free-slot output on the way out.
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections import Counter
from functools import lru_cache

import numpy as np
import scipy.sparse.linalg

from ..core import ActionOracle, _check_vectors
from ..errors import NewtonError, ShapeError
from .lattice import (
    block_signature,
    canonical_directions,
    expansion,
    sub_multisets,
)


def _column_norms(x):
    """numpy's 1-D norm, ``sqrt(r @ r)``, of each column ``r`` of ``x``.

    Each column is summed as a contiguous row, in the order the norm of the
    vector alone sums it, so every column keeps that norm's bits.
    """
    return np.array([math.sqrt(r @ r) for r in np.ascontiguousarray(x.T)])


def _refuse_non_finite(name, v):
    """NewtonError naming the first column of a block ``v`` holding a NaN or an inf."""
    if np.isfinite(v).all():
        return
    for j, col in enumerate(v.T if v.ndim == 2 else [v.ravel()]):
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            where = f" in column {j}" if v.ndim == 2 else ""
            raise NewtonError(
                f"non-finite {name}{where}: {bad.size} of {col.size} entries, the "
                f"first {col[bad[0]]} at index {bad[0]}"
            )


def _columns(mask, *blocks):
    """The columns ``mask`` keeps of each block, along its last axis."""
    return [b[..., mask] for b in blocks]


def _solve(lus, cols, rhs):
    """``lus[j].solve`` of the column of ``rhs`` for each column j of ``cols``.

    Columns on one LU, such as the caller's, share one multi-RHS solve.
    """
    groups = {}
    for i, j in enumerate(cols):
        groups.setdefault(id(lus[j]), []).append(i)
    if len(groups) == 1:
        return lus[cols[0]].solve(rhs)
    out = np.empty_like(rhs)
    for idx in groups.values():
        out[:, idx] = lus[cols[idx[0]]].solve(rhs[:, idx])
    return out


def _line_search(model, m, u, res, rnorm, cols, step):
    """Backtracking Armijo searches of columns ``cols`` along ``step``, in lockstep.

    ``step`` holds one column per column of ``cols``.  Each column halves
    its own step length from 1 until its residual norm is finite and falls
    by the Armijo factor, or the length drops below 2^-30.  Writes each
    accepted column's state, residual and norm into ``u``, ``res`` and
    ``rnorm``; returns the mask of accepted columns.
    """
    accepted = np.zeros(u.shape[1], dtype=bool)
    t = np.ones(cols.size)
    m, start, rnorm0 = m[:, cols], u[:, cols], rnorm[cols]
    while cols.size:
        trial = start + t * step
        trial_res = model.residual(m, trial)
        trial_norm = _column_norms(trial_res)
        ok = np.isfinite(trial_norm) & (trial_norm <= (1.0 - 1e-4 * t) * rnorm0)
        done = cols[ok]
        u[:, done], res[:, done] = trial[:, ok], trial_res[:, ok]
        rnorm[done] = trial_norm[ok]
        accepted[done] = True
        t = 0.5 * t
        more = ~ok & (t >= 2.0**-30)
        if not more.all():
            cols, t, m, start, rnorm0, step = _columns(
                more, cols, t, m, start, rnorm0, step
            )
    return accepted


def _kept_lu_steps(model, c, u, res, rnorm, lus, cols, goal):
    """Newton steps J s = -G of columns ``cols`` by refinement sweeps on their LUs.

    Each sweep adds ``lus[j].solve(r)`` to column j's step, where r = -G -
    J s is its linear residual, with J = dG/du at the iterate applied by the
    model's ``partial_edges`` on the solve's edge factors ``c``.  A column
    stops once ||r|| <= its ``goal``, or drops out as soon as a sweep fails
    to halve ||r|| (its LU is too far from J to converge).  Returns the
    columns that reached their goal and their steps, one column each.
    """
    res, u, c, goal = res[:, cols], u[:, cols], c[:, :, cols], goal[cols]
    step, lin, lnorm = np.zeros_like(res), -res, rnorm[cols]
    reached, steps = [cols[:0]], [step[:, :0]]
    while True:
        more = lnorm > goal
        if not more.all():
            reached.append(cols[~more])
            steps.append(step[:, ~more])
            cols, res, u, c, goal, step, lin, lnorm = _columns(
                more, cols, res, u, c, goal, step, lin, lnorm
            )
        if not cols.size:
            return np.concatenate(reached), np.concatenate(steps, axis=1)
        trial = step + _solve(lus, cols, lin)
        dtrial = model.edge_differences(trial)
        lin = -res - model.partial_edges(u, None, c, 0, [trial], [dtrial])
        trial_norm = _column_norms(lin)
        halved = trial_norm <= 0.5 * lnorm
        step, lnorm = trial, trial_norm
        if not halved.all():
            cols, res, u, c, goal, step, lin, lnorm = _columns(
                halved, cols, res, u, c, goal, step, lin, lnorm
            )


def solve_state(model, m, u0=None, lu=None, max_iter=50):
    """Solve G(m, u) = 0 by Newton's method with a backtracking line search.

    ``m`` is a flat vector or an (n_m, b) block of b parameter columns, and
    ``u0`` a flat start for every column or a block of ``m``'s shape; the
    model checks both.  Starts from ``u0``, or from the cube root of the
    source.  All columns run one Newton loop in lockstep, and each keeps
    its own iterate, forcing term, sweeps, line search and stopping test,
    so a column's state and steps are those of its solve alone wherever a
    multi-RHS LU solve matches single ones.  Each step solves dG/du s = -G
    at the iterate by refinement sweeps on the column's LU in hand, the
    caller's ``lu`` (such as the base point's) or the last one the column
    factorized, to a linear residual of ``||G|| * min(0.5, ||G|| /
    scale)``: a forcing term of the size of ``||G||`` keeps Newton's
    quadratic convergence (Dembo, Eisenstat & Steihaug 1982).  Columns on
    the caller's LU share one multi-RHS solve per sweep.  The sweeps apply
    dG/du through the model's edge kernel on the edge factors of ``m``,
    formed once per solve.  Where a column has no LU yet, a sweep fails to
    halve its linear residual, or the line search rejects its step, it
    factorizes dG/du at its iterate, takes that exact Newton step and keeps
    the new LU.  A column stops once ``||G|| < 1e-10 * scale`` with ``scale
    = max(1, ||rho||)``, the model's source norm; norms are numpy's 1-D
    norm of each column.
    Returns (states, Newton steps summed over the columns), the states of
    ``m``'s shape.  Raises :class:`~ttaction.errors.NewtonError` naming
    the input, and the column of a block, when ``m`` or ``u0`` holds a NaN
    or an infinity, before any residual is formed, when a column's residual
    at the start overflows, after ``max_iter`` steps, or when the line
    search rejects a column's exact Newton step.
    """
    # dG/du = L(m) + 3 diag(u^2), L of zero row sums and non-positive off-diagonals
    # on a connected grid, is irreducibly diagonally dominant, so nonsingular, unless
    # u = 0; the root of the reaction alone starts away from that one singular point
    m = np.asarray(m, dtype=float)
    u = np.cbrt(model.rho) if u0 is None else np.asarray(u0, dtype=float)
    _refuse_non_finite("m", m)
    _refuse_non_finite("u0", u)
    vector = m.ndim == 1
    if vector:
        m = m[:, None]
    # the loop writes each column's iterate into u, so u is always a copy; a
    # flat start is every column's
    if u.ndim == 1 and m.ndim == 2:
        u = np.repeat(u[:, None], m.shape[1], axis=1)
    else:
        u = u.copy()

    def where(j):
        return "" if vector else f" in column {j}"

    scale = max(1.0, float(np.linalg.norm(model.rho)))
    target = 1e-10 * scale
    # finite inputs can still overflow; that is refused below in one message
    with np.errstate(over="ignore", invalid="ignore"):
        res = model.residual(m, u)
        rnorm = _column_norms(res)
    # the line search accepts finite residuals only, so only the start can fail this
    bad = np.flatnonzero(~np.isfinite(rnorm))
    if bad.size:
        j = bad[0]
        raise NewtonError(
            f"non-finite residual at the start{where(j)} (residual {rnorm[j]:.3e})"
        )
    c = model.edge_factors(m)
    lus = [lu] * m.shape[1]
    iters = steps = 0
    active = np.flatnonzero(rnorm >= target)
    while active.size:
        if iters >= max_iter:
            j = active[0]
            raise NewtonError(
                f"no convergence in {max_iter} iterations{where(j)} "
                f"(residual {rnorm[j]:.3e})"
            )
        accepted = np.zeros(m.shape[1], dtype=bool)
        kept = active[[lus[j] is not None for j in active]]
        if kept.size:
            goal = rnorm * np.minimum(0.5, rnorm / scale)
            swept, step = _kept_lu_steps(model, c, u, res, rnorm, lus, kept, goal)
            accepted = _line_search(model, m, u, res, rnorm, swept, step)
        fresh = active[~accepted[active]]
        if fresh.size:
            for j in fresh:
                lus[j] = model.factorize(m[:, j], u[:, j])
            step = np.column_stack([lus[j].solve(-res[:, j]) for j in fresh])
            accepted = _line_search(model, m, u, res, rnorm, fresh, step)
            if not accepted[fresh].all():
                j = fresh[~accepted[fresh]][0]
                raise NewtonError(
                    f"line search stalled{where(j)} (residual {rnorm[j]:.3e})"
                )
        steps += active.size
        iters += 1
        active = active[rnorm[active] >= target]
    return (u[:, 0] if vector else u), steps


# model -> its base point; weak, so a dropped model takes its entry with it
_BASE_POINTS = weakref.WeakKeyDictionary()


def _base_point(model):
    """(read-only state, Newton iterations, state LU) at m = 0, solved once.

    No model method writes to the model, so its base point holds for as
    long as the model lives.
    """
    if model not in _BASE_POINTS:
        m0 = np.zeros(model.n_m)
        u0, iters = solve_state(model, m0)
        u0.flags.writeable = False
        _BASE_POINTS[model] = (u0, iters, model.factorize(m0, u0))
    return _BASE_POINTS[model]


def _indices(j_counts):
    """Direction index of every explicit m slot of a term, in slot order."""
    return tuple(i for i, c in enumerate(j_counts) for _ in range(c))


def _accumulate(total, coef, x):
    """``total + coef * x``, with None for an empty total or a zero ``x``.

    Allocates a new array, so ``x`` (a lattice node's edge differences, say)
    is never written to.
    """
    if x is None:
        return total
    x = x if coef == 1 else coef * x
    return x if total is None else total + x


@lru_cache(maxsize=None)
def _program(beta, unknown, free, vanishes):
    """The chain-rule sum of ``beta`` compiled once per (``unknown``, ``free``).

    One (indices, parts) entry per term of ``expansion(beta)``, in its
    order.  Each part (blocks, coefficient, lambda block) is one partial.
    With ``free=None`` (a forward sum) a term is one part against no
    adjoint (lambda block None), and the term that is u^``unknown`` alone,
    the solve's unknown, is left out.  With ``free="u"`` or ``"m"`` (an
    adjoint sum) a term is first itself against the base adjoint
    sensitivity (the zero block), then one split per distinct block, which
    moves one copy of it onto its adjoint sensitivity at the coefficient
    times its multiplicity, the rest keeping their order; the term that is
    lambda^``unknown`` alone has no split.  Parts that ``vanishes(j, s,
    free)``, the model's zero pattern for j m- and s u-directions, drops
    are left out, and so are terms left with none.
    """
    zero = None if free is None else (0,) * len(beta)
    program = []
    for (j_counts, blocks), coef in expansion(beta):
        j, s = sum(j_counts), len(blocks)
        alone = not j and blocks == (unknown,)
        parts = []
        if not (free is None and alone) and not vanishes(j, s, free):
            parts.append((blocks, coef, zero))
        if free is not None and not alone and not vanishes(j, s - 1, free):
            for block, mult in Counter(blocks).items():
                rest = list(blocks)
                rest.remove(block)
                parts.append((tuple(rest), coef * mult, block))
        if parts:
            program.append((_indices(j_counts), tuple(parts)))
    return tuple(program)


class DerivativeEngine:
    """Forward and adjoint derivative lattices at the base point m0 = 0.

    The base state ``u0``, its ``newton_iterations`` and the LU ``factor``
    are the model's shared base point.  The observation is taken as the
    model states it: linear in u and independent of m.  So an output-free
    action is ``model.qoi`` of one state sensitivity, the adjoint seed is the
    observation's only partial (``partial_f`` once per distinct weight q),
    and the adjoint sums run over the residual's partials alone.  Forward
    and adjoint chain-rule sums are one sum, :meth:`_sum`, over one program
    compiled once per (node, unknown, free slot) from ``expansion``, without
    the terms the model's ``partial_vanishes`` drops: the direction indices
    of every term and, for the adjoint, each term's split of one block onto
    its adjoint sensitivity, in the expansion's order; the lattice levels
    come cached from ``sub_multisets``.  A sum adds its terms in edge space
    and applies the model's ``finish_edges`` once, with no ``partial_edges``
    call.  Its edge arrays the engine forms itself: the base point's edge
    factors and state differences once per engine, each direction's edge
    mean and each lattice node's edge differences once per action.  Directions are keyed
    by their float64 bytes and lattice nodes by those keys, so the solve
    counters see each node once; a solve that raises caches nothing.  With
    a ``whitener`` the directions are raw-space vectors: each distinct one
    is smoothed on its first use and kept, read-only, in the same cache, and
    :meth:`mode_free` smooths its output.  Serves one caller at a time, as a
    numpy ``Generator`` does: the cache and counters have no
    synchronisation.
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
        # the base point is fixed, so its edge arrays are formed once
        self._c0 = model.edge_factors(self.m0)
        self._du0 = model.edge_differences(self.u0)

    def clear_cache(self):
        """Drop cached lattice nodes and smoothed directions; the state stays."""
        self._cache.clear()

    def _canonical(self, directions, count):
        """Check ``count`` directions of length n_m once, group and smooth them.

        This is the engine boundary: every direction a partial sees later is
        a flat float vector of the right length, smoothed if whitened.
        Returns the unique directions' counts, keys and edge means.
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
        return counts, keys, [self.model.edge_means(v) for v in unique]

    def _edge_product(self, means, idx):
        """Base edge factors times each ``idx`` direction's edge mean, in order."""
        c = self._c0
        for i in idx:
            c = c * means[i]
        return c

    def _sum(self, means, beta, values, diffs, unknown, free=None, lams=None):
        """Chain-rule sum of the residual's partials over the expansion of ``beta``.

        ``free=None`` gives the right-hand side of a forward solve, ``"u"``
        that of an adjoint solve and ``"m"`` a mode-free action; the adjoint
        sums contract each part against its sensitivity in ``lams``.  Leaves
        out the term that is the solve's ``unknown`` alone.  The flux
        partials are linear in their edge operands, so each program entry
        adds its parts' coefficient-weighted ``edge_operand``s, multiplies
        that total once by the entry's edge product, and the sum applies the
        model's ``finish_edges`` once; the reaction parts, of the entries
        with no m-direction, add in node space.  Every sum has a flux part:
        the term whose directions all take the explicit m slot.
        """
        model, u0, du0 = self.model, self.u0, self._du0
        edges = react = None
        for idx, parts in _program(beta, unknown, free, model.partial_vanishes):
            total = None
            for blocks, coef, lam in parts:
                weight = None if lam is None else lams[lam]
                dws = [diffs[b] for b in blocks]
                e = model.edge_operand(du0, dws, weight, free)
                total = _accumulate(total, coef, e)
                if not idx:
                    ws = [values[b] for b in blocks]
                    r = model.reaction_part(u0, ws, weight, free)
                    react = _accumulate(react, coef, r)
            if total is not None:
                edges = _accumulate(edges, 1, self._edge_product(means, idx) * total)
        out = model.finish_edges(edges, free)
        return out if react is None else out + react

    # -- forward lattice ----------------------------------------------------

    def _forward_values(self, counts, keys, means):
        """Ensure the state sensitivities u^beta for beta <= counts.

        Returns them and the edge differences of all but the top node
        ``counts``, which no forward sum reads, both keyed by beta.
        """
        values, diffs = {}, {}
        for beta in sub_multisets(counts):
            key = ("u", block_signature(keys, beta))
            if key not in self._cache:
                rhs = self._sum(means, beta, values, diffs, beta)
                self.forward_solves += 1
                self._cache[key] = self.factor.solve(-rhs)
            values[beta] = self._cache[key]
            if beta != counts:
                diffs[beta] = self.model.edge_differences(values[beta])
        return values, diffs

    def output_free(self, directions):
        """T(p_1, ..., p_k, .): all derivative slots saturated, output free."""
        counts, keys, means = self._canonical(directions, self.order)
        values, _ = self._forward_values(counts, keys, means)
        return self.model.qoi(values[counts])

    # -- adjoint lattice ----------------------------------------------------

    def _adjoint_values(self, counts, keys, means, q, values, diffs):
        """Adjoint sensitivities lambda^beta for beta <= counts, q fixed."""
        q = np.ascontiguousarray(q, dtype=float)
        qsig = q.tobytes()
        key = ("l", qsig, ())
        if key not in self._cache:
            rhs = self.model.partial_f(q)
            self.adjoint_solves += 1
            self._cache[key] = self.factor.solve_t(-rhs)
        lams = {(0,) * len(counts): self._cache[key]}
        for beta in sub_multisets(counts):
            key = ("l", qsig, block_signature(keys, beta))
            if key not in self._cache:
                rhs = self._sum(means, beta, values, diffs, beta, "u", lams)
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
        q = np.asarray(q, dtype=float)
        if q.shape != (self.model.n_q,):
            raise ShapeError(f"q has shape {q.shape}, expected ({self.model.n_q},)")
        counts, keys, means = self._canonical(directions, self.order - 1)
        values, diffs = self._forward_values(counts, keys, means)
        if any(counts):  # the top node's differences; order 1 has no node
            diffs[counts] = self.model.edge_differences(values[counts])
        lams = self._adjoint_values(counts, keys, means, q, values, diffs)
        g = self._sum(means, counts, values, diffs, None, "m", lams)
        return g if self.whitener is None else self.whitener.apply(g)


class WhitenedMap:
    """Parameter smoothing and the whitened forward map.

    Draws in raw space are mapped through the inverse of the symmetric
    operator (-Laplace + I) before entering the model, which damps rough
    components the way a squared-inverse-elliptic covariance would.  The
    smoother is its own transpose.  Both maps take a flat draw or an
    (n_m, b) block of b draws, one per column.

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
        """The smoothing half-power: solve (-Laplace + I) p = x, one solve per block."""
        x = np.asarray(x, dtype=float)
        n_m = self.model.n_m
        if x.shape[:1] != (n_m,) or x.ndim > 2:
            raise ShapeError(f"x has shape {x.shape}, expected ({n_m},) or ({n_m}, b)")
        return self._lu.solve(x)

    def evaluate(self, x):
        """Observed output at the smoothed parameter, via a full state solve.

        A block of b draws gives an (n_q, b) block of outputs from one
        whitening solve and one lockstep :func:`solve_state`.
        """
        m = self.apply(x)
        u0, _, lu = _base_point(self.model)
        u, _ = solve_state(self.model, m, u0=u0, lu=lu)
        return self.model.qoi(u)

    def base_value(self):
        """Output at x = 0, read from the base state."""
        return self.model.qoi(_base_point(self.model)[0])


class DerivativeOracle(ActionOracle):
    """An action oracle served by a :class:`DerivativeEngine`.

    ``engine`` holds the solve counters and the one cache, of lattice nodes
    and smoothed directions, that :meth:`clear_cache` empties.  Built by
    :func:`make_derivative_oracle`.
    """

    def __init__(self, dims, apply_fn, engine):
        super().__init__(dims, apply_fn)
        self.engine = engine

    def action(self, free_mode, vectors):
        """Serve broadcast entries one counted single action per batch index.

        The entries are checked whole.  Each action then copies its own
        vectors into contiguous arrays and walks the engine's lattice as a
        single action would, so its solves, counts and bits are those of the
        single action; its fiber goes straight into the (N_free, *B)
        result, and no (N_k, prod B) copy of an entry is made.  Plain
        vectors return one fiber.
        """
        blocks, batch = _check_vectors(self.dims, free_mode, vectors)
        shape = batch or (1,)
        axes = (*range(1, len(shape) + 1), 0)
        # each entry as a (*B, N_k) view of its vectors, broadcast without a copy
        rows = [
            (v if v.shape[1:] == shape else np.broadcast_to(v, v.shape[:1] + shape))
            for v in blocks
        ]
        rows = [v.transpose(axes) for v in rows]
        out = np.empty((self.dims[free_mode - 1], *shape))
        fibers = out.transpose(axes)
        for index in itertools.product(*map(range, shape)):
            vs = [np.ascontiguousarray(v[index]) for v in rows]
            fibers[index] = ActionOracle.action(self, free_mode, vs)
        return out if batch else out[:, 0]

    def clear_cache(self):
        """Empty the engine's cache; its state and LU stay."""
        self.engine.clear_cache()


def derivative_dims(model, order):
    """Mode sizes of the order-k derivative tensor: k slots of n_m, then n_q."""
    return (model.n_m,) * order + (model.n_q,)


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
    dims = derivative_dims(model, order)

    def apply_fn(free_mode, blocks):
        # DerivativeOracle.action hands over one column at a time
        vs = [v[:, 0] for v in blocks]
        if free_mode == order + 1:
            return engine.output_free(vs)[:, None]
        return engine.mode_free(vs[:-1], vs[-1])[:, None]

    return DerivativeOracle(dims, apply_fn, engine)
