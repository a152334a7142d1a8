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
state Jacobian, the one matrix it factorizes.

Each chain-rule sum is compiled once, from the lattice expansion and the
model's ``partial_pattern``, into a plan that the engine runs with the
model's ``finish_edges`` and ``reaction_factor``; the state solve applies
dG/du through the same two pieces.  Neither calls ``partial_g``.

Lattice nodes are cached by the float64 bytes of the direction vectors, so
repeating directions within or across actions never repeats a solve, and a
fully symmetric direction tuple collapses the 2^k lattice to a chain.  Each
distinct direction is checked, smoothed for a whitened tensor, and reduced to
its edge means once per cache, keyed by the same bytes; a whitened engine
also smooths each free-slot output on the way out.
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections import Counter
from functools import lru_cache

import numpy as np

from ..core import ActionOracle, _check_vectors
from ..errors import NewtonError, NonFiniteActionError, ShapeError
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


def _refuse_non_finite(name, v, error=NewtonError):
    """``error`` naming the first column of a block ``v`` holding a NaN or an inf."""
    if np.isfinite(v).all():
        return
    for j, col in enumerate(v.T if v.ndim == 2 else [v.ravel()]):
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            where = f" in column {j}" if v.ndim == 2 else ""
            raise error(
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
    J s is its linear residual, with J = dG/du at the iterate: J s is the
    model's ``finish_edges`` of the solve's edge factors ``c`` times the
    step's edge differences, plus ``reaction_factor(u, 1)`` times the step.
    A column stops once ||r|| <= its ``goal``, or drops out as soon as a
    sweep fails to halve ||r|| (its LU is too far from J to converge).
    Returns the columns that reached their goal and their steps, one column
    each.
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
        lin = -res - (
            model.finish_edges(c * dtrial) + model.reaction_factor(u, 1) * trial
        )
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
    dG/du through the model's ``finish_edges`` and ``reaction_factor`` on
    the edge factors of ``m``, formed once per solve.  Where a column has
    no LU yet, a sweep fails to halve its linear residual, or the line
    search rejects its step, it factorizes dG/du at its iterate, takes that
    exact Newton step and keeps the new LU.  A column stops once ``||G|| <
    1e-10 * scale`` with ``scale = max(1, ||rho||)``, the model's source
    norm; norms are numpy's 1-D norm of each column.
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


@lru_cache(maxsize=None)
def _plan(beta, unknown, free, pattern):
    """The chain-rule sum of ``beta``, compiled once per (``unknown``, ``free``).

    Walks the terms of ``expansion(beta)`` in order; each part of a term is
    one partial.  With ``free=None`` (a forward sum) a term is one part
    against no adjoint, and the term that is u^``unknown`` alone, the
    solve's unknown, is left out.  With ``free="u"`` or ``"m"`` (an adjoint
    sum) a term is first itself against the base adjoint sensitivity (the
    zero block), then one split per distinct block, which moves one copy of
    it onto its adjoint sensitivity at the coefficient times its
    multiplicity, the rest keeping their order; the term that is
    lambda^``unknown`` alone has no split.  The model's ``pattern``
    (``partial_pattern``) resolves each part, for its j m- and s
    u-directions, to its flux operand and reaction piece; a part it names
    neither of is zero and left out.  Returns (flux, reaction).  ``flux``
    holds one (indices, parts) entry per term with a flux operand, in
    order: the direction index of every explicit m slot, and each part as
    (coefficient, scale, weight block, difference block), its operand
    ``scale`` times the adjoint sensitivity of the weight block (no weight
    where ``scale`` is None), times the edge differences of the difference
    block's sensitivity (none where it is None; the zero block's is the
    state).  ``reaction`` holds each reaction piece, (coefficient,
    u-derivative order, blocks, weight block or None), in order.
    """
    zero = (0,) * len(beta)
    flux, reaction = [], []
    for (j_counts, blocks), coef in expansion(beta):
        idx = _indices(j_counts)
        alone = not idx and blocks == (unknown,)
        parts = []
        if not (free is None and alone):
            parts.append((blocks, coef, None if free is None else zero))
        if free is not None and not alone:
            for block, mult in Counter(blocks).items():
                rest = list(blocks)
                rest.remove(block)
                parts.append((tuple(rest), coef * mult, block))
        compiled = []
        for blocks, coef, lam in parts:
            operand, react = pattern(len(idx), len(blocks), free)
            if operand is not None:
                scale, differenced = operand
                diff = (blocks[0] if blocks else zero) if differenced else None
                compiled.append((coef, scale, lam, diff))
            if react is not None:
                k, weighted = react
                reaction.append((coef, k, blocks, lam if weighted else None))
        if compiled:
            flux.append((idx, tuple(compiled)))
    return tuple(flux), tuple(reaction)


class _EdgeProducts(dict):
    """Base edge factors times the edge means of an index tuple's directions.

    Keyed by direction-index tuples, ``()`` holding the base factors; each
    product is formed on first use from its prefix's, in index order, so an
    action forms each once.
    """

    def __init__(self, c0, means):
        super().__init__({(): c0})
        self.means = means

    def __missing__(self, idx):
        c = self[idx] = self[idx[:-1]] * self.means[idx[-1]]
        return c


class DerivativeEngine:
    """Forward and adjoint derivative lattices at the base point m0 = 0.

    The base state ``u0``, its ``newton_iterations`` and the LU ``factor``
    are the model's shared base point.  The observation is taken as the
    model states it: linear in u and independent of m.  So an output-free
    action is ``model.qoi`` of one state sensitivity, the adjoint seed is the
    observation's only partial (``partial_f`` once per distinct weight q),
    and the adjoint sums run over the residual's partials alone.  Forward
    and adjoint chain-rule sums are one sum, :meth:`_sum`, over one plan
    compiled once per (node, unknown, free slot) by :func:`_plan`: the
    direction indices of every term and, for the adjoint, each term's split
    of one block onto its adjoint sensitivity, in the expansion's order,
    each part resolved by the model's ``partial_pattern`` to its flux
    operand and reaction piece, and left out where it names neither.  The
    lattice levels come cached from ``sub_multisets``.  A sum adds its terms
    in edge space and applies the model's ``finish_edges`` once, with no
    ``partial_g`` call.  Its arrays the engine forms itself: the base
    point's edge factors, state differences and reaction factors
    (``reaction_factor`` of every u-derivative order a part can take) once
    per engine; each distinct direction's edge means once per cache; each
    term's edge product and each lattice node's edge differences once per
    action.  Directions are keyed by their float64 bytes and lattice nodes
    by those keys, so the solve counters see each node once; a solve that
    raises caches nothing.  With a ``whitener`` the directions are raw-space
    vectors: each distinct one is smoothed on its first use before its edge
    means are taken, and :meth:`mode_free` smooths its output.  A direction
    or output weight met for the first time is refused if it holds a NaN or
    an infinity, before any smoothing or solve.  Serves one caller at a
    time, as a numpy ``Generator`` does: the cache and counters have no
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
        # the base point is fixed, so its edge arrays and reaction factors are
        # formed once; a part takes at most ``order`` u-derivatives
        self._c0 = model.edge_factors(self.m0)
        self._du0 = model.edge_differences(self.u0)
        self._r0 = [model.reaction_factor(self.u0, k) for k in range(order + 1)]

    def clear_cache(self):
        """Drop cached lattice nodes and direction edge means; the state stays."""
        self._cache.clear()

    def _canonical(self, directions, count):
        """Check ``count`` directions of length n_m, group them and take edge means.

        This is the engine boundary: every direction's shape is checked on
        every call.  A direction not yet cached is refused with
        :class:`~ttaction.errors.NonFiniteActionError`, naming its place
        among the ``count`` (from 1) and its first bad index, when it holds
        a NaN or an infinity; only once every direction passes is
        each new one smoothed, if whitened, and its edge means cached,
        read-only, under ``("p", key)``.  Returns the unique directions'
        counts, keys and an :class:`_EdgeProducts` on their edge means.
        """
        if len(directions) != count:
            raise ShapeError(f"need {count} directions, got {len(directions)}")
        unique, counts, keys = canonical_directions(directions)
        for v in unique:
            if v.shape != (self.model.n_m,):
                raise ShapeError(
                    f"direction has shape {v.shape}, expected ({self.model.n_m},)"
                )
        new = [i for i, key in enumerate(keys) if ("p", key) not in self._cache]
        if not all(np.isfinite(unique[i]).all() for i in new):
            # a non-finite direction is never cached, so the first bad one is new
            for i, v in enumerate(directions, 1):
                v = np.asarray(v, dtype=float)
                _refuse_non_finite(f"direction {i} of {count}", v, NonFiniteActionError)
        for i in new:
            v = unique[i] if self.whitener is None else self.whitener.apply(unique[i])
            means = self.model.edge_means(v)
            means.flags.writeable = False
            self._cache[("p", keys[i])] = means
        means = [self._cache[("p", key)] for key in keys]
        return counts, keys, _EdgeProducts(self._c0, means)

    def _sum(self, products, beta, values, diffs, unknown, free=None, lams=None):
        """Chain-rule sum of the residual's partials over the expansion of ``beta``.

        ``free=None`` gives the right-hand side of a forward solve, ``"u"``
        that of an adjoint solve and ``"m"`` a mode-free action; the adjoint
        sums contract each part against its sensitivity in ``lams``.  Leaves
        out the term that is the solve's ``unknown`` alone.  Runs the plan
        of :func:`_plan`: the flux partials are linear in their operands,
        so each entry adds its parts' coefficient-weighted operands,
        multiplies that total once by its edge product from ``products``,
        and the sum applies the model's ``finish_edges`` once; the reaction
        pieces, of the entries with no m-direction, are the base reaction
        factors times their blocks' sensitivities (and the weight, for an
        adjoint sum) and add in node space.  ``values`` and ``diffs`` hold
        the state as the zero block's sensitivity.  Every sum has a flux
        part: the term whose directions all take the explicit m slot.
        """
        model = self.model
        flux, reaction = _plan(beta, unknown, free, model.partial_pattern)
        edges = None
        for idx, parts in flux:
            total = None
            for coef, scale, lam, diff in parts:
                x = None if diff is None else diffs[diff]
                if scale is not None:
                    w = lams[lam] if scale == 1.0 else scale * lams[lam]
                    x = w if x is None else w * x
                x = x if coef == 1 else coef * x
                total = x if total is None else total + x
            t = products[idx] * total
            edges = t if edges is None else edges + t
        out = model.finish_edges(edges, free)
        react = None
        for coef, k, blocks, lam in reaction:
            r = self._r0[k]
            for b in blocks:
                r = r * values[b]
            if lam is not None:
                r = r * lams[lam]
            x = r if coef == 1 else coef * r
            react = x if react is None else react + x
        return out if react is None else out + react

    # -- forward lattice ----------------------------------------------------

    def _forward_values(self, counts, keys, products):
        """Ensure the state sensitivities u^beta for beta <= counts.

        Returns them and the edge differences of all but the top node
        ``counts``, which no forward sum reads, both keyed by beta, with the
        base state and its differences as the zero block's.
        """
        zero = (0,) * len(counts)
        values, diffs = {zero: self.u0}, {zero: self._du0}
        for beta in sub_multisets(counts):
            key = ("u", block_signature(keys, beta))
            if key not in self._cache:
                rhs = self._sum(products, beta, values, diffs, beta)
                self.forward_solves += 1
                self._cache[key] = self.factor.solve(-rhs)
            values[beta] = self._cache[key]
            if beta != counts:
                diffs[beta] = self.model.edge_differences(values[beta])
        return values, diffs

    def output_free(self, directions):
        """T(p_1, ..., p_k, .): all derivative slots saturated, output free."""
        counts, keys, products = self._canonical(directions, self.order)
        values, _ = self._forward_values(counts, keys, products)
        return self.model.qoi(values[counts])

    # -- adjoint lattice ----------------------------------------------------

    def _adjoint_values(self, counts, keys, products, q, qsig, values, diffs):
        """Adjoint sensitivities lambda^beta for beta <= counts, q (bytes ``qsig``) fixed."""
        key = ("l", qsig, ())
        if key not in self._cache:
            rhs = self.model.partial_f(q)
            self.adjoint_solves += 1
            self._cache[key] = self.factor.solve_t(-rhs)
        lams = {(0,) * len(counts): self._cache[key]}
        for beta in sub_multisets(counts):
            key = ("l", qsig, block_signature(keys, beta))
            if key not in self._cache:
                rhs = self._sum(products, beta, values, diffs, beta, "u", lams)
                self.adjoint_solves += 1
                self._cache[key] = self.factor.solve_t(-rhs)
            lams[beta] = self._cache[key]
        return lams

    def mode_free(self, directions, q):
        """S(., p_2, ..., p_k, q): one derivative slot free, output contracted.

        ``directions`` are the k-1 saturated derivative slots; ``q`` weights
        the output slot.  A ``q`` met for the first time is refused with
        :class:`~ttaction.errors.NonFiniteActionError` if it holds a NaN or
        an infinity, before any direction is cached.  Returns a vector in
        parameter space, smoothed if whitened (the smoother is its own
        transpose).
        """
        q = np.ascontiguousarray(q, dtype=float)
        if q.shape != (self.model.n_q,):
            raise ShapeError(f"q has shape {q.shape}, expected ({self.model.n_q},)")
        qsig = q.tobytes()
        if ("l", qsig, ()) not in self._cache:
            _refuse_non_finite("output weight q", q, NonFiniteActionError)
        counts, keys, products = self._canonical(directions, self.order - 1)
        values, diffs = self._forward_values(counts, keys, products)
        if any(counts):  # the top node's differences; order 1 has no node
            diffs[counts] = self.model.edge_differences(values[counts])
        lams = self._adjoint_values(counts, keys, products, q, qsig, values, diffs)
        g = self._sum(products, counts, values, diffs, None, "m", lams)
        return g if self.whitener is None else self.whitener.apply(g)


class WhitenedMap:
    """Parameter smoothing and the whitened forward map.

    Draws in raw space are mapped through the inverse of (-Laplace + I), which
    damps rough components the way a squared-inverse-elliptic covariance
    would.  On the n x n grid the operator is I plus the Kronecker sum of two
    Neumann path Laplacians over h^2; the orthonormal DCT-II matrix C
    diagonalizes the path Laplacian, with eigenvalues lam_k = 4 sin^2(pi k/2n).
    So the smoother is a closed form with no factorization, its own transpose.
    Both maps take a flat draw or an (n_m, b) block of b draws, one per column.

    Each evaluation warm-starts :func:`solve_state` at the model's shared base
    state and LU at m = 0.  The state equation has one root per m (e^m > 0, u^3
    is monotone), so the start changes only the work spent, not the root.
    """

    def __init__(self, model):
        self.model = model
        n, k = model.n, np.arange(model.n)
        self._c = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(k, 2 * k + 1) / (2 * n))
        self._c[0] = np.sqrt(1.0 / n)
        lam = 4.0 * np.sin(np.pi * k / (2 * n)) ** 2
        self._inv = 1.0 / (1.0 + (lam[:, None] + lam[None, :]) / model.h**2)

    def apply(self, x):
        """p = C^T ((C X C^T) / Lam) C on each grid X; Lam_ij = 1 + (lam_i + lam_j) / h^2.

        A block column runs its draw's four (n, n) products alone: it has that draw's bits.
        """
        x = np.asarray(x, dtype=float)
        n_m, n = self.model.n_m, self.model.n
        if x.shape[:1] != (n_m,) or x.ndim > 2:
            raise ShapeError(f"x has shape {x.shape}, expected ({n_m},) or ({n_m}, b)")
        grids = np.ascontiguousarray(x.T).reshape(*x.shape[1:], n, n)
        spectra = self._c @ grids @ self._c.T
        p = self._c.T @ (spectra * self._inv) @ self._c
        return p.reshape(x.shape[::-1]).T

    def evaluate(self, x):
        """Observed output at the smoothed parameter, via a full state solve.

        A block of b draws gives an (n_q, b) block of outputs from one
        :meth:`apply` and one lockstep :func:`solve_state`.  A non-finite draw
        smooths silently to a non-finite m, which :func:`solve_state` refuses.
        """
        with np.errstate(invalid="ignore", over="ignore"):
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
    and direction edge means, that :meth:`clear_cache` empties.  Built by
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
