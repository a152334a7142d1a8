"""Direction multisets and the symbolic total-derivative expansion."""

import itertools
import math
from collections import Counter

import numpy as np

from ttaction.hovd.lattice import (
    block_signature,
    canonical_directions,
    expansion,
    sub_multisets,
)


def test_canonical_directions_groups_bitwise_equal():
    v = np.array([1.0, 2.0, 3.0])
    w = np.array([1.0, 2.0, 4.0])
    unique, counts, keys = canonical_directions([v, w, v.copy(), 1.0 * v])
    assert len(unique) == 2
    assert counts == (3, 1)
    np.testing.assert_array_equal(unique[0], v)
    assert keys == (v.tobytes(), w.tobytes())
    # any bit flip separates
    nudged = v.copy()
    nudged[0] = np.nextafter(nudged[0], 2.0)
    _, counts2, _ = canonical_directions([v, nudged])
    assert counts2 == (1, 1)


def test_sub_multisets_counts_and_order():
    assert sub_multisets((3,)) == ((1,), (2,), (3,))
    assert len(sub_multisets((1, 1, 1))) == 2**3 - 1
    assert len(sub_multisets((1, 2))) == 2 * 3 - 1
    subs = sub_multisets((2, 1))
    assert subs[0] in [(1, 0), (0, 1)]
    orders = [sum(s) for s in subs]
    assert orders == sorted(orders)  # lowest total order first


def expansion_dict(counts):
    return {key: coef for key, coef in expansion(counts)}


def test_expansion_order_zero_and_one():
    assert expansion_dict((0,)) == {((0,), ()): 1}
    # d/dp X(m, u(m)) = X_m p + X_u u^(p)
    assert expansion_dict((1,)) == {
        ((1,), ()): 1,
        ((0,), (((1,),))): 1,
    }


def test_expansion_second_same_direction():
    # X_pp + 2 X_pu u' + X_uu (u', u') + X_u u''
    assert expansion_dict((2,)) == {
        ((2,), ()): 1,
        ((1,), ((1,),)): 2,
        ((0,), ((1,), (1,))): 1,
        ((0,), ((2,),)): 1,
    }


def test_expansion_third_same_direction_faa_di_bruno():
    expect = {
        ((3,), ()): 1,
        ((2,), ((1,),)): 3,
        ((1,), ((1,), (1,))): 3,
        ((1,), ((2,),)): 3,
        ((0,), ((1,), (1,), (1,))): 1,
        ((0,), ((1,), (2,))): 3,
        ((0,), ((3,),)): 1,
    }
    assert expansion_dict((3,)) == expect


def test_expansion_mixed_pair():
    assert expansion_dict((1, 1)) == {
        ((1, 1), ()): 1,
        ((1, 0), ((0, 1),)): 1,
        ((0, 1), ((1, 0),)): 1,
        ((0, 0), ((0, 1), (1, 0))): 1,
        ((0, 0), ((1, 1),)): 1,
    }


def test_expansion_distinct_directions_term_count():
    # subsets J of k distinct directions, remainder partitioned into blocks:
    # sum_j C(k, j) Bell(k - j) terms, every coefficient 1
    bell = [1, 1, 2, 5, 15]
    for k in (2, 3, 4):
        terms = expansion((1,) * k)
        expect = sum(math.comb(k, j) * bell[k - j] for j in range(k + 1))
        assert len(terms) == expect
        assert all(coef == 1 for _, coef in terms)


def test_expansion_has_single_top_block_term():
    for counts in [(2,), (3,), (1, 2), (1, 1, 1)]:
        top = [
            coef
            for (j, blocks), coef in expansion(counts)
            if blocks == (counts,)
        ]
        assert top == [1]  # the term carrying the highest-order sensitivity


def set_partitions(items):
    """Every partition of the list ``items`` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def brute_force_expansion(counts):
    """Faa di Bruno by enumeration: label each direction copy, then take
    every explicit subset J and every set partition of the rest into state
    blocks, and group the labelled terms by their count-vector key."""
    labels = [i for i, c in enumerate(counts) for _ in range(c)]

    def count_vector(slots):
        return tuple(sum(labels[s] == i for s in slots) for i in range(len(counts)))

    terms = Counter()
    slots = range(len(labels))
    for size in range(len(labels) + 1):
        for explicit in itertools.combinations(slots, size):
            rest = [s for s in slots if s not in explicit]
            for part in set_partitions(rest):
                blocks = tuple(sorted(count_vector(b) for b in part))
                terms[(count_vector(explicit), blocks)] += 1
    return dict(terms)


def test_expansion_matches_brute_force_faa_di_bruno():
    # every count vector of length 1-4 and total order 0-5, zero entries
    # included (the lattice expands sub-multisets such as (1, 0))
    checked = 0
    for length in range(1, 5):
        for counts in itertools.product(range(6), repeat=length):
            if sum(counts) <= 5:
                assert expansion_dict(counts) == brute_force_expansion(counts), counts
                checked += 1
    assert checked == sum(math.comb(5 + length, length) for length in range(1, 5))


def test_expansion_numerically_exact_scalar_composition():
    # scalar model with known closed forms: u(m) = sin(2m), X = exp(m) u^3
    m0 = 0.3

    def u_derivs(order):
        cycle = [np.sin, np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t)]
        return (2.0**order) * cycle[order % 4](2.0 * m0)

    def x_partial(j, s):
        # d^{j+s} X / dm^j du^s at (m0, u(m0)), X = e^m u^3
        u0 = u_derivs(0)
        powers = {0: u0**3, 1: 3 * u0**2, 2: 6 * u0, 3: 6.0}
        return np.exp(m0) * powers.get(s, 0.0)

    def total_by_expansion(k):
        out = 0.0
        for (j, blocks), coef in expansion((k,)):
            val = x_partial(j[0], len(blocks)) * coef
            for b in blocks:
                val *= u_derivs(b[0])
            out += val
        return out

    def composed(m):
        return np.exp(m) * np.sin(2.0 * m) ** 3

    h = 1e-3
    fd3 = (
        composed(m0 + 2 * h)
        - 2 * composed(m0 + h)
        + 2 * composed(m0 - h)
        - composed(m0 - 2 * h)
    ) / (2 * h**3)
    assert abs(total_by_expansion(3) - fd3) < 1e-3 * max(abs(fd3), 1.0)
    fd1 = (composed(m0 + h) - composed(m0 - h)) / (2 * h)
    assert abs(total_by_expansion(1) - fd1) < 1e-4


def test_block_signature_invariant_under_relabeling():
    _, _, keys = canonical_directions(
        [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    )
    swapped = (keys[1], keys[0])
    assert block_signature(keys, (1, 2)) == block_signature(swapped, (2, 1))
    # zero-count entries are dropped entirely
    assert block_signature(keys, (0, 2)) == block_signature((keys[1],), (2,))
