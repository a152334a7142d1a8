"""The chain-rule sums the tests check the engine's compiled sum against.

``DerivativeEngine._sum`` runs a plan compiled once per sum: each distinct
flux operand formed once, each term's edge product taken from a per-action
memo and the base point's reaction factors from the engine.  Two references
evaluate the same program without that plan:

- ``summed_sum``, the engine's sum before it was compiled: per part, one
  ``edge_operand`` and (with no m-direction) one ``reaction_part`` call,
  added with ``_accumulate``, each term's operand total multiplied by its
  edge product and the sum finished once.  It does the same float64
  operations in the same order, so the compiled sum must equal it bit for
  bit.
- ``per_part_sum``, one full ``partial_edges`` call per part added into a
  zero vector, the form before sums were added in edge space; it agrees to
  roundoff.

Both take the unique directions' edge ``means`` where the engine's sum takes
their edge-product memo (its ``means`` attribute).
"""

import numpy as np

from ttaction.hovd.oracle import _program


def edge_product(engine, means, idx):
    """Base edge factors times each ``idx`` direction's edge mean, in order."""
    c = engine._c0
    for i in idx:
        c = c * means[i]
    return c


def _accumulate(total, coef, x):
    """``total + coef * x``, with None for an empty total or a zero ``x``.

    Allocates a new array, so ``x`` (a lattice node's edge differences, say)
    is never written to.
    """
    if x is None:
        return total
    x = x if coef == 1 else coef * x
    return x if total is None else total + x


def summed_sum(engine, means, beta, values, diffs, unknown, free=None, lams=None):
    """``engine._sum(...)`` with one ``edge_operand`` (and ``reaction_part``) call per part."""
    model, u0, du0 = engine.model, engine.u0, engine._du0
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
            edges = _accumulate(edges, 1, edge_product(engine, means, idx) * total)
    out = model.finish_edges(edges, free)
    return out if react is None else out + react


def per_part_sum(engine, means, beta, values, diffs, unknown, free=None, lams=None):
    """``engine._sum(...)`` with one ``partial_edges`` call per program part."""
    model, u0, du0 = engine.model, engine.u0, engine._du0
    out = np.zeros(model.n_m if free == "m" else model.n_u)
    for idx, parts in _program(beta, unknown, free, model.partial_vanishes):
        c = edge_product(engine, means, idx)
        for blocks, coef, lam in parts:
            ws = [values[b] for b in blocks]
            dws = [diffs[b] for b in blocks]
            weight = None if lam is None else lams[lam]
            part = model.partial_edges(u0, du0, c, len(idx), ws, dws, weight, free)
            out += coef * part
    return out
