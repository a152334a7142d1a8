"""The per-part chain-rule sum the tests check the engine's summed form against.

``DerivativeEngine._sum`` adds each program entry's edge operands and
finishes the sum once.  This reference evaluates the same program one part
at a time, one full ``partial_edges`` call per part added into a zero
vector, the form the engine used before it summed in edge space; the two
agree to roundoff.
"""

import numpy as np

from ttaction.hovd.oracle import _program


def per_part_sum(engine, means, beta, values, diffs, unknown, free=None, lams=None):
    """``engine._sum(...)`` with one ``partial_edges`` call per program part."""
    model, u0, du0 = engine.model, engine.u0, engine._du0
    out = np.zeros(model.n_m if free == "m" else model.n_u)
    for idx, parts in _program(beta, unknown, free, model.partial_vanishes):
        c = engine._edge_product(means, idx)
        for blocks, coef, lam in parts:
            ws = [values[b] for b in blocks]
            dws = [diffs[b] for b in blocks]
            weight = None if lam is None else lams[lam]
            part = model.partial_edges(u0, du0, c, len(idx), ws, dws, weight, free)
            out += coef * part
    return out
