"""Multiset calculus for total derivatives through an implicit state.

Differentiating a map X(m, u(m)) repeatedly in directions p_1, ..., p_k
produces, by the chain rule, a sum of partial derivatives of X contracted
with the directions and with state sensitivities u^B, one per block B of
directions routed through the state.  Directions are canonicalized into a
multiset (distinct vectors, keyed by their float64 bytes, with
multiplicities), so a derivative node is a sub-multiset and the dependency
lattice of an order-k derivative has one node per sub-multiset: k + 1 nodes
when all directions coincide, 2^k when all differ.

``expansion`` builds the symbolic term list for the full total derivative of
a generic X once per multiset signature; evaluators then substitute concrete
partials.  Terms are keyed by the explicit-derivative multiset J and the
unordered collection of state blocks, with integer coefficients, and the
single term whose one block is the whole multiset carries the highest-order
unknown.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache

import numpy as np


def canonical_directions(vectors):
    """Group identical direction vectors.

    Returns (unique vectors, multiplicities, keys): the distinct vectors in
    first-appearance order, how often each occurs, and each one's float64
    bytes as its cache key.  Identity is exact bitwise equality of the
    float64 representation.
    """
    groups = {}
    for v in vectors:
        v = np.ascontiguousarray(v, dtype=float)
        groups.setdefault(v.tobytes(), [v, 0])[1] += 1
    unique = [v for v, _ in groups.values()]
    return unique, tuple(c for _, c in groups.values()), tuple(groups)


@lru_cache(maxsize=None)
def sub_multisets(counts):
    """All nonzero sub-multisets of the tuple ``counts``, smallest total order first.

    These are the lattice nodes below ``counts`` in solve order, computed
    once per count tuple and returned as one shared tuple.
    """
    axes = [range(c + 1) for c in counts]
    subs = [s for s in itertools.product(*axes) if any(s)]
    subs.sort(key=lambda s: (sum(s), s))
    return tuple(subs)


@lru_cache(maxsize=None)
def expansion(counts):
    """Symbolic total derivative of X(m, u(m)) for a direction multiset.

    Returns a tuple of ((J, blocks), coefficient) entries where J is a
    count vector of directions hitting the explicit m slot and ``blocks`` is
    a sorted tuple of count vectors, each a block of directions routed
    through a state sensitivity.  The zeroth expansion is X itself.
    ``counts`` is a tuple, the key of the cache.
    """
    if not any(counts):
        zero = (0,) * len(counts)
        return (((zero, ()), 1),)
    # differentiate the expansion of the multiset minus one copy of the
    # highest-index remaining direction
    label = max(i for i, c in enumerate(counts) if c)
    parent = list(counts)
    parent[label] -= 1
    terms = Counter()
    unit = tuple(1 if i == label else 0 for i in range(len(counts)))
    for (j, blocks), coef in expansion(tuple(parent)):
        # route through the explicit m dependence
        j_up = tuple(a + b for a, b in zip(j, unit))
        terms[(j_up, blocks)] += coef
        # route through the evaluation state: a fresh singleton block
        terms[(j, tuple(sorted(blocks + (unit,))))] += coef
        # route through each existing block argument
        for pick in set(blocks):
            grown = tuple(a + b for a, b in zip(pick, unit))
            rest = list(blocks)
            rest.remove(pick)
            terms[(j, tuple(sorted(rest + [grown])))] += coef * blocks.count(pick)
    return tuple(terms.items())


def block_signature(keys, counts):
    """Stable cache key for the sub-multiset ``counts`` of directions."""
    return tuple(sorted((keys[i], c) for i, c in enumerate(counts) if c))
