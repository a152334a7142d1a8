"""The chain-rule sums the tests check the engine's compiled sum against.

``DerivativeEngine._sum`` runs a plan compiled once per sum by
``hovd.oracle._plan``: each part resolved once through the model's
``partial_pattern``, the zero parts left out, each distinct flux operand
formed once, each term's edge product taken from a per-action memo and the
base point's reaction factors from the engine.  Here the sum is spelled out
without that plan:

- ``program``, the chain-rule sum of a lattice node written out from
  ``lattice.expansion``: every term and every adjoint split, zero parts
  included.
- ``summed_sum``, the engine's sum before it was compiled: per part, the
  pieces ``partial_pattern`` names (``part_pieces``), added with
  ``_accumulate``, each term's operand total multiplied by its edge product
  and the sum finished once.  It does the same float64 operations in the
  same order, so the compiled sum must equal it bit for bit.
- ``per_part_sum``, one public ``partial_g`` call per part added into a zero
  vector, the form before sums were added in edge space; it agrees to
  roundoff.

``summed_sum`` takes the unique directions' edge ``means`` where the
engine's sum takes their edge-product memo (its ``means`` attribute);
``per_part_sum`` takes the unique directions themselves (``dirs``), smoothed
where the engine whitens.
"""

import numpy as np

from ttaction.hovd.lattice import expansion


def program(beta, unknown, free):
    """(direction counts, parts) per term of ``expansion(beta)``, in its order.

    Each part (blocks, coefficient, lambda block) is one partial.  A forward
    sum (``free=None``) has one part per term, against no adjoint, and leaves
    out the term that is u^``unknown`` alone.  An adjoint sum has the term
    itself against the base adjoint sensitivity (the zero block), then one
    split per distinct block: one copy of it moved onto its adjoint
    sensitivity at the coefficient times its multiplicity, the rest in
    order; the term that is lambda^``unknown`` alone has no split.
    """
    zero = (0,) * len(beta)
    alone = ((0,) * len(beta), (unknown,))
    out = []
    for (j, blocks), coef in expansion(beta):
        parts = []
        if free is None:
            if (j, blocks) != alone:
                parts.append((blocks, coef, None))
        else:
            parts.append((blocks, coef, zero))
            if (j, blocks) != alone:
                for block in dict.fromkeys(blocks):
                    rest = list(blocks)
                    rest.remove(block)
                    parts.append((tuple(rest), coef * blocks.count(block), block))
        if parts:
            out.append((j, tuple(parts)))
    return out


def indices(j):
    """Direction index of every explicit m slot of a term, in slot order."""
    return tuple(i for i, c in enumerate(j) for _ in range(c))


def edge_product(c0, means, idx):
    """Base edge factors times each ``idx`` direction's edge mean, in order."""
    c = c0
    for i in idx:
        c = c * means[i]
    return c


def part_pieces(model, factors, du, ws, dws, j, weight, free):
    """(edge operand, reaction) of one partial, each None where absent.

    The pieces ``model.partial_pattern(j, len(ws), free)`` names, formed as
    ``partial_g`` forms them: the operand is ``scale * weight`` times the
    edge differences ``du`` of the state (no u-direction) or ``dws[0]``;
    the reaction is ``factors[k]``, the reaction's k-th u-derivative at the
    state, times ``ws`` and, where weighted, the weight last.
    """
    operand, reaction = model.partial_pattern(j, len(ws), free)
    e = r = None
    if operand is not None:
        scale, differenced = operand
        e = (dws[0] if dws else du) if differenced else None
        if scale is not None:
            w = weight if scale == 1.0 else scale * weight
            e = w if e is None else w * e
    if reaction is not None:
        k, weighted = reaction
        r = factors[k]
        for w in [*ws, weight] if weighted else ws:
            r = r * w
    return e, r


def finish_part(model, c, e, r, free):
    """A partial from its pieces: ``finish_edges(c * e)`` plus ``r``, or zeros."""
    out = None if e is None else model.finish_edges(c * e, free)
    if r is not None:
        out = r if out is None else out + r
    return np.zeros(model.n_u) if out is None else out


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
    """``engine._sum(...)`` with the pieces of each part formed as it is met."""
    model, factors, du0 = engine.model, engine._r0, engine._du0
    edges = react = None
    for j, parts in program(beta, unknown, free):
        idx = indices(j)
        total = None
        for blocks, coef, lam in parts:
            weight = None if lam is None else lams[lam]
            ws = [values[b] for b in blocks]
            dws = [diffs[b] for b in blocks]
            e, r = part_pieces(model, factors, du0, ws, dws, len(idx), weight, free)
            total = _accumulate(total, coef, e)
            react = _accumulate(react, coef, r)
        if total is not None:
            edges = _accumulate(edges, 1, edge_product(engine._c0, means, idx) * total)
    out = model.finish_edges(edges, free)
    return out if react is None else out + react


def per_part_sum(engine, dirs, beta, values, unknown, free=None, lams=None):
    """``engine._sum(...)`` with one ``partial_g`` call per program part."""
    model = engine.model
    out = np.zeros(model.n_m if free == "m" else model.n_u)
    for j, parts in program(beta, unknown, free):
        vs = [dirs[i] for i in indices(j)]
        for blocks, coef, lam in parts:
            ws = [values[b] for b in blocks]
            weight = None if lam is None else lams[lam]
            part = model.partial_g(engine.m0, engine.u0, vs, ws, weight, free)
            out += coef * part
    return out
