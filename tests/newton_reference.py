"""The per-vector Newton loop the tests check the block state solve against.

``hovd.oracle.solve_state`` runs one lockstep Newton loop over a column
block.  This reference is the loop it replaced, verbatim: one vector, its
own refinement sweeps on the LU in hand, its own Armijo line search and its
own factorizations.  A block column must match it bit for bit, state and
step count, wherever multi-RHS LU solves match single ones.
"""

import numpy as np

from ttaction.errors import NewtonError


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


def _kept_lu_step(model, c, u, res, rnorm, lu, goal):
    """Newton step J s = -G solved by refinement sweeps on the LU in hand.

    Each sweep adds ``lu.solve(r)`` to the step, where r = -G - J s is the
    linear residual, with J = dG/du at the iterate: J s is the model's
    ``finish_edges`` of the solve's edge factors ``c`` times the step's edge
    differences, plus ``reaction_factor(u, 1)`` times the step.  Returns the
    step once ||r|| <= ``goal``, or None as soon as a sweep fails to halve
    ||r|| (the LU is too far from J to converge).
    """
    step, lin, lnorm = 0.0, -res, rnorm
    while lnorm > goal:
        trial = step + lu.solve(lin)
        dtrial = model.edge_differences(trial)
        trial_lin = -res - (
            model.finish_edges(c * dtrial) + model.reaction_factor(u, 1) * trial
        )
        trial_norm = float(np.linalg.norm(trial_lin))
        if not trial_norm <= 0.5 * lnorm:
            return None
        step, lin, lnorm = trial, trial_lin, trial_norm
    return step


def solve_state(model, m, u0=None, lu=None, max_iter=50):
    """Solve G(m, u) = 0 by Newton's method with a backtracking line search.

    ``m`` and ``u0`` are flat vectors, which the model checks.  Starts from
    ``u0``, or from the cube root of the source.  Each step
    solves dG/du s = -G at the iterate by refinement sweeps on the LU in
    hand, the caller's ``lu`` (such as the base point's) or the last one this
    solve factorized, to a linear residual of ``||G|| * min(0.5, ||G|| /
    scale)``: a forcing term of the size of ``||G||`` keeps Newton's
    quadratic convergence (Dembo, Eisenstat & Steihaug 1982).  The sweeps
    apply dG/du through the model's ``finish_edges`` and ``reaction_factor``
    on the edge factors of ``m``, formed once per solve.  With no LU yet, a
    sweep that fails to halve the linear residual, or a step the line search
    rejects, the solve factorizes dG/du at the iterate, takes that exact
    Newton step and keeps the new LU.  Iterates until ``||G|| < 1e-10 *
    scale`` with ``scale = max(1, ||rho||)``, the model's source norm.
    Returns (state, Newton steps taken); raises
    :class:`~ttaction.errors.NewtonError` naming the input when ``m`` or
    ``u0`` holds a NaN or an infinity, before any residual is formed, when
    the residual at the start overflows, after ``max_iter`` steps, or when
    the line search rejects an exact Newton step.
    """
    # dG/du = L(m) + 3 diag(u^2), L of zero row sums and non-positive off-diagonals
    # on a connected grid, is irreducibly diagonally dominant, so nonsingular, unless
    # u = 0; the root of the reaction alone starts away from that one singular point
    m = np.asarray(m, dtype=float)
    u = np.cbrt(model.rho) if u0 is None else np.asarray(u0, dtype=float)
    for name, v in (("m", m), ("u0", u)):
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise NewtonError(
                f"non-finite {name}: {bad.size} of {v.size} entries, the first "
                f"{v.flat[bad[0]]} at index {bad[0]}"
            )
    scale = max(1.0, float(np.linalg.norm(model.rho)))
    target = 1e-10 * scale
    # finite inputs can still overflow; that is refused below in one message
    with np.errstate(over="ignore", invalid="ignore"):
        res = model.residual(m, u)
        rnorm = float(np.linalg.norm(res))
    # the line search accepts finite residuals only, so only the start can fail this
    if not np.isfinite(rnorm):
        raise NewtonError(f"non-finite residual at the start (residual {rnorm:.3e})")
    c = model.edge_factors(m)
    iters = 0
    while rnorm >= target:
        if iters >= max_iter:
            raise NewtonError(
                f"no convergence in {max_iter} iterations (residual {rnorm:.3e})"
            )
        accepted = None
        if lu is not None:
            goal = rnorm * min(0.5, rnorm / scale)
            step = _kept_lu_step(model, c, u, res, rnorm, lu, goal)
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
