"""Dense actions, train algebra, compression, and serialization."""

import math
import struct
import zlib

import numpy as np
import pytest

import ttaction
from ttaction import (
    ActionOracle,
    TensorTrain,
    fix_signs,
    oracle_from_dense,
    oracle_from_tt,
    tt_apply,
    tt_load,
    tt_relative_error,
    tt_round,
    tt_save,
)
from ttaction.core import _truncated_svd, prefix_contract
from ttaction.errors import (
    FormatError,
    NonFiniteActionError,
    RankClampWarning,
    ShapeError,
    VersionError,
    ZeroNormError,
)
from ttaction.hilbert import hilbert_oracle
from ttaction.hovd import ReactionDiffusionModel, make_derivative_oracle
from ttaction.hovd.sigma1 import oracle_difference

from dense_reference import (
    entry_count,
    frobenius,
    left_orthogonality_defect,
    relative_error,
    tt_dense_error,
    tt_svd,
    tt_to_dense,
)


def random_tt(rng, dims, ranks):
    bounds = (1,) + tuple(ranks) + (1,)
    return TensorTrain(
        [
            rng.standard_normal((bounds[k], dims[k], bounds[k + 1]))
            for k in range(len(dims))
        ]
    )


# ---------------------------------------------------------------------------
# dense actions


def test_dense_action_matches_einsum():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 4, 5))
    x, y, z = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(5)
    oracle = oracle_from_dense(t)
    np.testing.assert_allclose(
        oracle.action(1, [y, z]), np.einsum("ijk,j,k->i", t, y, z), atol=1e-13
    )
    np.testing.assert_allclose(
        oracle.action(2, [x, z]), np.einsum("ijk,i,k->j", t, x, z), atol=1e-13
    )
    np.testing.assert_allclose(
        oracle.action(3, [x, y]), np.einsum("ijk,i,j->k", t, x, y), atol=1e-13
    )


def test_dense_action_multilinearity():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((4, 3, 6))
    a, b = rng.standard_normal(3), rng.standard_normal(3)
    z = rng.standard_normal(6)
    oracle = oracle_from_dense(t)
    lhs = oracle.action(1, [2.0 * a - b, z])
    rhs = 2.0 * oracle.action(1, [a, z]) - oracle.action(1, [b, z])
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_dense_action_identity_matrix_case():
    # matrix action with a basis vector picks out a column
    t = np.arange(12.0).reshape(3, 4)
    np.testing.assert_allclose(
        oracle_from_dense(t).action(1, [np.eye(4)[1]]), t[:, 1]
    )


@pytest.mark.parametrize("free_mode", [0, 4, -1])
def test_dense_action_free_mode_out_of_range(free_mode):
    t = np.zeros((2, 2, 2))
    with pytest.raises(ShapeError):
        oracle_from_dense(t).action(free_mode, [np.zeros(2), np.zeros(2)])


def test_dense_action_wrong_vector_count_and_length():
    t = np.zeros((2, 3, 4))
    with pytest.raises(ShapeError):
        oracle_from_dense(t).action(1, [np.zeros(3)])
    with pytest.raises(ShapeError):
        oracle_from_dense(t).action(1, [np.zeros(4), np.zeros(3)])


# ---------------------------------------------------------------------------
# oracle wrapper


def test_oracle_counts_every_action():
    # the count only grows; callers take a run's share as a difference
    t = np.random.default_rng(2).standard_normal((5, 6))
    oracle = oracle_from_dense(t)
    assert oracle.action_count == 0
    vec = np.ones(6)
    for _ in range(200):
        oracle.action(1, [vec])
    assert oracle.action_count == 200
    oracle.action(2, [np.ones(5)])
    assert oracle.action_count == 201


def test_oracle_validates_result_shape():
    oracle = ActionOracle((3, 4), lambda k, vs: np.zeros(2))
    with pytest.raises(ShapeError):
        oracle.action(1, [np.zeros(4)])


def test_oracle_rejects_degenerate_dims():
    with pytest.raises(ShapeError):
        ActionOracle((5,), lambda k, vs: np.zeros(5))
    with pytest.raises(ShapeError):
        ActionOracle((5, 0), lambda k, vs: np.zeros(5))


# ---------------------------------------------------------------------------
# block actions


def _block_oracles(rng, dims, ranks):
    tt = random_tt(rng, dims, ranks)
    return {"train": oracle_from_tt(tt), "dense": oracle_from_dense(tt_to_dense(tt))}


@pytest.mark.parametrize("kind", ["train", "dense"])
@pytest.mark.parametrize(
    "dims,ranks",
    [((5, 7), (3,)), ((4, 1, 5, 3), (2, 2, 3)), ((3, 4, 2, 5, 3), (2, 3, 2, 2))],
    ids=lambda v: "x".join(map(str, v)),
)
def test_block_equals_single_actions(kind, dims, ranks):
    rng = np.random.default_rng(40)
    oracle = _block_oracles(rng, dims, ranks)[kind]
    width = 6
    for mode in range(1, len(dims) + 1):
        blocks = [rng.standard_normal((n, width)) for k, n in enumerate(dims, 1) if k != mode]
        before = oracle.action_count
        got = oracle.action(mode, blocks)
        assert got.shape == (dims[mode - 1], width)
        assert oracle.action_count == before + width
        for j in range(width):
            want = oracle.action(mode, [v[:, j].copy() for v in blocks])
            assert np.linalg.norm(got[:, j] - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("kind", ["train", "dense"])
def test_block_columns_are_bitwise_single_actions(kind):
    # power iterations in lockstep rely on a block column having the bits of
    # the single action
    rng = np.random.default_rng(41)
    dims = (6, 6, 6, 5)
    oracle = _block_oracles(rng, dims, (3, 4, 2))[kind]
    for mode in range(1, len(dims) + 1):
        blocks = [rng.standard_normal((n, 5)) for k, n in enumerate(dims, 1) if k != mode]
        got = oracle.action(mode, blocks)
        for j in range(5):
            want = oracle.action(mode, [v[:, j].copy() for v in blocks])
            np.testing.assert_array_equal(got[:, j], want)


def test_block_of_one_is_bitwise_a_single_train_action():
    rng = np.random.default_rng(41)
    tt = random_tt(rng, (6, 5, 7, 4), (3, 4, 2))
    for mode in range(1, 5):
        vs = [rng.standard_normal(n) for k, n in enumerate(tt.dims, 1) if k != mode]
        single = tt_apply(tt, mode, vs)
        block = tt_apply(tt, mode, [v[:, None] for v in vs])
        assert block.shape == (tt.dims[mode - 1], 1)
        np.testing.assert_array_equal(block[:, 0], single)


#: Entries of a (3, 4, 5) tensor's free-mode-1 action that no oracle accepts.
MALFORMED = {
    # a block beside a 3-D entry whose batch shape (2, 3) does not take (2,)
    "mixed": [np.ones((4, 2)), np.ones((5, 2, 3))],
    "unequal-columns": [np.ones((4, 2)), np.ones((5, 3))],
    "wrong-rows": [np.ones((4, 2)), np.ones((6, 2))],
    "empty": [np.ones((4, 0)), np.ones((5, 0))],
    # 3-D entries whose batch shapes (2, 3) and (3, 2) do not broadcast
    "three-dims": [np.ones((4, 2, 3)), np.ones((5, 3, 2))],
    # batch shapes that broadcast to one with a zero axis
    "zero-axis": [np.ones((4, 2, 1)), np.ones((5, 1, 0))],
    "wrong-vector": [np.ones(4), np.ones(6)],
    "scalar": [np.ones(4), np.float64(1.0)],
}


@pytest.mark.parametrize("blocks", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_block_is_refused_before_the_counter_moves(blocks):
    tt = random_tt(np.random.default_rng(42), (3, 4, 5), (2, 2))
    oracle = oracle_from_tt(tt)
    with pytest.raises(ShapeError):
        oracle.action(1, blocks)
    assert oracle.action_count == 0
    with pytest.raises(ShapeError):
        tt_apply(tt, 1, blocks)


def test_block_with_one_nan_column_is_refused():
    tt = random_tt(np.random.default_rng(43), (3, 4, 5), (2, 2))
    oracle = oracle_from_tt(tt)
    blocks = [np.ones((3, 4)), np.ones((5, 4))]
    blocks[1][2, 3] = np.nan
    with pytest.raises(NonFiniteActionError):
        oracle.action(2, blocks)


def test_apply_fn_result_of_wrong_block_shape_is_refused():
    oracle = ActionOracle((3, 4), lambda k, vs: np.zeros((3, 1)))
    with pytest.raises(ShapeError):
        oracle.action(1, [np.zeros((4, 2))])


def test_broadcast_samples_sweep_bitwise_as_materialized_copies():
    # the builder's block shape: full lead blocks, then one sample vector
    # broadcast over every column (a stride-0 view) in each later mode
    rng = np.random.default_rng(44)
    tt = random_tt(rng, (4, 5, 6, 5, 4), (2, 3, 3, 2))
    width = 6
    for mode in range(1, tt.order + 1):
        lead = [rng.standard_normal((n, width)) for n in tt.dims[: mode - 1]]
        samples = [
            np.broadcast_to(rng.standard_normal(n)[:, None], (n, width))
            for n in tt.dims[mode:]
        ]
        got = oracle_from_tt(tt).action(mode, lead + samples)
        want = oracle_from_tt(tt).action(mode, lead + [v.copy() for v in samples])
        assert got.shape == (tt.dims[mode - 1], width)
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# broadcast entries: the contract every oracle serves

#: Mode sizes per oracle kind; the derivative tensor is order 2 at n = 4.
BROADCAST_DIMS = {
    "dense": (3, 4, 5, 4),
    "train": (4, 5, 6, 5),
    "hilbert": (4, 5, 6, 5),
    "derivative": (16, 16, 12),
}


def _broadcast_oracle(kind):
    """A fresh oracle of ``kind``, the same tensor on every call."""
    dims = BROADCAST_DIMS[kind]
    if kind == "hilbert":
        return hilbert_oracle(dims)
    if kind == "derivative":
        return make_derivative_oracle(ReactionDiffusionModel(4), 2)
    tt = random_tt(np.random.default_rng(45), dims, (2,) * (len(dims) - 1))
    return oracle_from_tt(tt) if kind == "train" else oracle_from_dense(tt_to_dense(tt))


def _broadcast_entries(rng, dims, mode):
    """A build stage's entries: (N, 3, 1) leads, then (N, 1, 2) samples.

    Of two or more samples the last is a plain vector, which broadcasts too.
    """
    entries = [rng.standard_normal((n, 3, 1)) for n in dims[: mode - 1]]
    entries += [rng.standard_normal((n, 1, 2)) for n in dims[mode:]]
    if len(dims) - mode >= 2:
        entries[-1] = rng.standard_normal(dims[-1])
    return entries


@pytest.mark.parametrize("kind", list(BROADCAST_DIMS))
def test_broadcast_entries_act_bitwise_as_materialized_copies_and_single_actions(kind):
    rng = np.random.default_rng(46)
    dims = BROADCAST_DIMS[kind]
    for mode in range(1, len(dims) + 1):
        entries = _broadcast_entries(rng, dims, mode)
        oracle, copied, single = (_broadcast_oracle(kind) for _ in range(3))
        got = oracle.action(mode, entries)
        batch = np.broadcast_shapes(*(np.shape(v)[1:] for v in entries))
        assert got.shape == (dims[mode - 1], *batch)
        assert oracle.action_count == math.prod(batch)
        full = [
            np.broadcast_to(v.reshape(len(v), *(1,) * (3 - v.ndim), *v.shape[1:]),
                            (len(v), *batch)).copy()
            for v in entries
        ]
        np.testing.assert_array_equal(copied.action(mode, full), got)
        for index in np.ndindex(*batch):
            at = (slice(None), *index)
            want = single.action(mode, [v[at].copy() for v in full])
            if kind == "hilbert":
                # one Hankel product serves a block's columns, as it always has
                assert np.linalg.norm(got[at] - want) <= 1e-12 * np.linalg.norm(want)
            else:
                np.testing.assert_array_equal(got[at], want)


@pytest.mark.parametrize("kind", list(BROADCAST_DIMS))
@pytest.mark.parametrize("case", ["mixed", "three-dims", "zero-axis", "empty", "wrong-rows"])
def test_every_oracle_refuses_malformed_entries_before_the_counter_moves(kind, case):
    oracle = _broadcast_oracle(kind)
    # the (3, 4, 5) cases, with row counts mapped onto the first two
    # saturated modes of this oracle and any later mode saturated by a vector
    rows = oracle.dims[1:]
    blocks = [
        np.ones((rows[k] + (case == "wrong-rows") * k, *v.shape[1:]))
        for k, v in enumerate(MALFORMED[case])
    ]
    blocks += [np.ones(n) for n in rows[2:]]
    with pytest.raises(ShapeError):
        oracle.action(1, blocks)
    assert oracle.action_count == 0


@pytest.mark.parametrize("kind", ["train", "hilbert"])
def test_an_in_place_edit_between_actions_is_seen(kind):
    # no work on an action's entries is kept for the next action
    oracle, fresh = _broadcast_oracle(kind), _broadcast_oracle(kind)
    rng = np.random.default_rng(47)
    blocks = [rng.standard_normal((n, 3)) for n in (4, 5, 6)]
    first = oracle.action(4, blocks)
    np.testing.assert_array_equal(oracle.action(4, blocks), first)
    blocks[1][2, 0] += 1.0  # an edit of a lead block between two actions
    edited = oracle.action(4, blocks)
    assert not np.array_equal(edited[:, 0], first[:, 0])
    np.testing.assert_array_equal(edited[:, 1:], first[:, 1:])
    np.testing.assert_array_equal(edited, fresh.action(4, [v.copy() for v in blocks]))


@pytest.mark.parametrize("kind", list(BROADCAST_DIMS))
def test_clear_cache_keeps_every_bit(kind):
    oracle = _broadcast_oracle(kind)
    rng = np.random.default_rng(48)
    entries = _broadcast_entries(rng, oracle.dims, 2)
    first = oracle.action(2, entries)
    oracle.clear_cache()
    np.testing.assert_array_equal(oracle.action(2, entries), first)


def test_a_difference_clears_both_operands():
    model = ReactionDiffusionModel(4)
    derivative = make_derivative_oracle(model, 2)
    train = oracle_from_tt(random_tt(np.random.default_rng(49), derivative.dims, (2, 2)))
    difference = oracle_difference(derivative, train)
    difference.action(3, [np.ones(model.n_m)] * 2)
    assert derivative.engine._cache
    difference.clear_cache()
    assert not derivative.engine._cache


# ---------------------------------------------------------------------------
# tensor train container and contractions


def test_train_shape_validation():
    rng = np.random.default_rng(3)
    with pytest.raises(ShapeError):  # boundary rank not 1
        TensorTrain([rng.standard_normal((2, 3, 1))])
    with pytest.raises(ShapeError):  # bond mismatch
        TensorTrain(
            [rng.standard_normal((1, 3, 2)), rng.standard_normal((3, 4, 1))]
        )


#: Core chains of consistent shapes that hold no entry.
EMPTY_CHAINS = {
    "empty-mode": [np.zeros((1, 0, 1)), np.ones((1, 3, 1))],
    "zero-rank": [np.zeros((1, 2, 0)), np.zeros((0, 3, 1))],
}


def raw_train_file(cores):
    """The binary file of ``cores``, written by hand.

    Follows the version-2 layout ``tt_save`` documents, so it can write core
    chains that ``TensorTrain`` refuses.
    """
    dims = [c.shape[1] for c in cores]
    ranks = [1] + [c.shape[2] for c in cores]
    blob = struct.pack("<4sII", b"TTAC", 2, len(cores))
    blob += struct.pack(f"<{len(dims)}Q", *dims) + struct.pack(f"<{len(ranks)}Q", *ranks)
    blob += b"".join(np.ascontiguousarray(c, dtype="<f8").tobytes() for c in cores)
    return blob + struct.pack("<I", zlib.crc32(blob))


@pytest.mark.parametrize("cores", EMPTY_CHAINS.values(), ids=list(EMPTY_CHAINS))
def test_train_without_entries_is_refused(cores):
    # neither chain holds an entry, so no contraction of it is defined
    with pytest.raises(ShapeError):
        TensorTrain(cores)


def test_hand_written_files_match_the_savers(tmp_path):
    tt = random_tt(np.random.default_rng(29), (3, 4, 2), (2, 3))
    tt_save(tt, tmp_path / "train.bin")
    assert raw_train_file(tt.cores) == (tmp_path / "train.bin").read_bytes()


@pytest.mark.parametrize("cores", EMPTY_CHAINS.values(), ids=list(EMPTY_CHAINS))
def test_loaders_refuse_a_train_without_entries(tmp_path, cores):
    # the file is size-consistent and its checksum holds; only the refused
    # core chain is wrong
    (tmp_path / "train.bin").write_bytes(raw_train_file(cores))
    with pytest.raises(FormatError):
        tt_load(tmp_path / "train.bin")


def test_train_entry_is_product_of_slices():
    rng = np.random.default_rng(4)
    tt = random_tt(rng, (3, 4, 5), (2, 3))
    dense = tt_to_dense(tt)
    entry = tt.cores[0][:, 1, :] @ tt.cores[1][:, 2, :] @ tt.cores[2][:, 3, :]
    assert abs(dense[1, 2, 3] - entry[0, 0]) < 1e-12


@pytest.mark.parametrize(
    "dims,ranks",
    [
        ((5, 7), (3,)),  # the matrix case
        ((1, 5, 4), (1, 3)),  # a mode of size 1 at the boundary
        ((4, 5, 3, 6), (3, 4, 2)),
        ((3, 4, 2, 5, 3), (1, 1, 1, 1)),  # all bonds of rank 1
        ((2, 3, 1, 4, 2, 3), (2, 1, 3, 2, 2)),  # a size-1 mode inside
    ],
    ids=lambda v: "x".join(map(str, v)),
)
def test_tt_apply_matches_dense_action_all_modes(dims, ranks):
    # wrong reshapes fail quietly on size-1 modes and rank-1 bonds
    rng = np.random.default_rng(5)
    tt = random_tt(rng, dims, ranks)
    dense = tt_to_dense(tt)
    vectors = [rng.standard_normal(n) for n in dims]
    for mode in range(1, len(dims) + 1):
        rest = [v for j, v in enumerate(vectors) if j != mode - 1]
        np.testing.assert_allclose(
            tt_apply(tt, mode, rest),
            oracle_from_dense(dense).action(mode, rest),
            atol=1e-11,
        )


def test_prefix_contract_partial_contraction():
    rng = np.random.default_rng(6)
    dims, ranks = (3, 4, 5), (2, 3)
    tt = random_tt(rng, dims, ranks)
    x, y = rng.standard_normal((3, 2)), rng.standard_normal((4, 2))
    out = prefix_contract(tt.cores[:2], [x, y])
    assert out.shape == (2, 1, 3)
    for j in range(2):
        expect = np.einsum(
            "anb,n,bmc,m->c", tt.cores[0], x[:, j], tt.cores[1], y[:, j], optimize=True
        )
        np.testing.assert_allclose(out[j, 0], expect, atol=1e-12)
    np.testing.assert_array_equal(prefix_contract([], []), np.ones((1, 1, 1)))


def test_oracle_from_tt_agrees_with_dense():
    rng = np.random.default_rng(7)
    tt = random_tt(rng, (4, 4, 4), (2, 2))
    dense = tt_to_dense(tt)
    o_tt, o_dense = oracle_from_tt(tt), oracle_from_dense(dense)
    vs = [rng.standard_normal(4) for _ in range(2)]
    np.testing.assert_allclose(o_tt.action(2, vs), o_dense.action(2, vs), atol=1e-11)


def test_entry_count():
    tt = random_tt(np.random.default_rng(8), (50, 60, 70), (2, 2))
    # stored core entries, not the dense size
    assert entry_count(tt) == 1 * 50 * 2 + 2 * 60 * 2 + 2 * 70 * 1


# ---------------------------------------------------------------------------
# compression


def test_tt_svd_exact_reconstruction():
    rng = np.random.default_rng(9)
    dense = tt_to_dense(random_tt(rng, (5, 6, 4, 3), (2, 3, 2)))
    tt = tt_svd(dense)
    assert relative_error(dense, tt_to_dense(tt)) < 1e-12
    assert left_orthogonality_defect(tt) < 1e-12


def test_tt_svd_rank_truncation_monotone():
    rng = np.random.default_rng(10)
    dense = rng.standard_normal((6, 6, 6))
    errors = [
        relative_error(dense, tt_to_dense(tt_svd(dense, ranks=r)))
        for r in (1, 2, 4, 6)
    ]
    assert all(a >= b - 1e-14 for a, b in zip(errors, errors[1:]))


def test_tt_svd_rank_clamp_warns():
    dense = np.random.default_rng(12).standard_normal((3, 4, 5))
    with pytest.warns(RankClampWarning):
        tt = tt_svd(dense, ranks=[10, 10])
    assert relative_error(dense, tt_to_dense(tt)) < 1e-12


def test_truncated_svd_wide_branch():
    # a wide matrix keeps a thin right factor
    mat = np.random.default_rng(21).standard_normal((3, 70000))
    u, s, vt = _truncated_svd(mat, rank=2)
    np.testing.assert_allclose(s, np.linalg.svd(mat, compute_uv=False)[:2], rtol=1e-12)
    assert vt.shape == (2, 70000) and vt.flags.c_contiguous
    np.testing.assert_allclose(vt @ vt.T, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(u.T @ u, np.eye(2), atol=1e-12)
    # a train whose first unfolding is 2 x 192000
    dense = np.random.default_rng(22).standard_normal((2, 3, 40, 40, 40))
    assert relative_error(dense, tt_to_dense(tt_svd(dense))) < 1e-12


def test_tt_round_identity_and_truncation_match_tt_svd():
    rng = np.random.default_rng(13)
    tt = random_tt(rng, (6, 7, 5), (4, 3))
    dense = tt_to_dense(tt)
    again = tt_round(tt)
    assert relative_error(dense, tt_to_dense(again)) < 1e-12
    assert left_orthogonality_defect(again) < 1e-12
    rounded = tt_round(tt, ranks=[2, 2])
    direct = tt_svd(dense, ranks=[2, 2])
    np.testing.assert_allclose(
        tt_to_dense(rounded), tt_to_dense(direct), atol=1e-10
    )


@pytest.mark.parametrize("ranks", [0, [2, 0], [-1, 2]])
def test_tt_round_refuses_a_rank_below_one(ranks):
    tt = random_tt(np.random.default_rng(14), (6, 7, 5), (4, 3))
    with pytest.raises(ShapeError, match="ranks must be >= 1"):
        tt_round(tt, ranks)


def test_tt_dense_error_matches_direct():
    rng = np.random.default_rng(15)
    tt = random_tt(rng, (5, 6, 7), (2, 3))
    dense = tt_to_dense(tt) + 1e-3 * rng.standard_normal((5, 6, 7))
    direct = relative_error(dense, tt_to_dense(tt))
    assert abs(tt_dense_error(dense, tt) - direct) < 1e-12
    with pytest.raises(ShapeError):
        tt_dense_error(dense[:, :, :4], tt)


@pytest.mark.parametrize("dims", [(5, 6), (5, 6, 7), (4, 3, 5, 2)])
def test_tt_relative_error_matches_dense(dims):
    rng = np.random.default_rng(len(dims))
    ranks = [2] * (len(dims) - 1)
    reference = random_tt(rng, dims, ranks)
    tt = random_tt(rng, dims, [3] * (len(dims) - 1))
    dense = tt_to_dense(reference)
    for other in (tt, TensorTrain([c * 1e-3 for c in tt.cores[:1]] + tt.cores[1:])):
        expected = relative_error(dense, tt_to_dense(other))
        assert tt_relative_error(reference, other) == pytest.approx(expected, rel=1e-12)
    assert tt_relative_error(reference, reference) < 1e-14
    with pytest.raises(ShapeError):
        tt_relative_error(reference, random_tt(rng, dims[:-1] + (3,), ranks))
    zero = TensorTrain([np.zeros_like(c) for c in reference.cores])
    with pytest.raises(ZeroNormError):
        tt_relative_error(zero, tt)


def test_tt_relative_error_takes_the_reference_norm():
    rng = np.random.default_rng(61)
    reference = random_tt(rng, (4, 5, 6), (3, 4))
    other = random_tt(rng, (4, 5, 6), (2, 2))
    norm = ttaction.core._tt_norm(reference)
    assert tt_relative_error(reference, other, norm) == tt_relative_error(reference, other)
    assert tt_relative_error(reference, other, 2 * norm) == tt_relative_error(reference, other) / 2
    with pytest.raises(ZeroNormError):
        tt_relative_error(reference, other, 0.0)


def test_tt_relative_error_takes_no_svd(monkeypatch):
    # a train's norm needs only the orthogonalizing QR sweep
    rng = np.random.default_rng(7)
    reference = random_tt(rng, (5, 6, 7), [2, 3])
    tt = random_tt(rng, (5, 6, 7), [3, 2])
    expected = relative_error(tt_to_dense(reference), tt_to_dense(tt))

    def refuse(*args, **kwargs):
        raise AssertionError("SVD taken for a norm")

    monkeypatch.setattr(ttaction.core, "_truncated_svd", refuse)
    assert tt_relative_error(reference, tt) == pytest.approx(expected, rel=1e-12)


def test_frobenius_and_relative_error():
    a = np.array([[3.0, 4.0]])
    assert abs(frobenius(a) - 5.0) < 1e-15
    assert relative_error(a, a) == 0.0


def test_fix_signs_deterministic_and_product_preserving():
    rng = np.random.default_rng(16)
    mat = rng.standard_normal((6, 4))
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    prod_before = u @ (s[:, None] * vt)
    fix_signs(u, vt)
    # each column's largest-magnitude entry is positive
    idx = np.abs(u).argmax(axis=0)
    assert (u[idx, np.arange(u.shape[1])] > 0).all()
    np.testing.assert_allclose(u @ (s[:, None] * vt), prod_before, atol=1e-12)


# ---------------------------------------------------------------------------
# serialization


def test_binary_roundtrip_bitexact(tmp_path):
    rng = np.random.default_rng(17)
    tt = random_tt(rng, (4, 6, 3, 5), (2, 4, 3))
    path = tmp_path / "train.bin"
    tt_save(tt, path)
    back = tt_load(path)
    assert back.dims == tt.dims and back.ranks == tt.ranks
    for a, b in zip(tt.cores, back.cores):
        assert np.array_equal(a, b)
    # identical content twice -> identical bytes
    path2 = tmp_path / "again.bin"
    tt_save(tt, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_bad_magic_and_version(tmp_path):
    rng = np.random.default_rng(19)
    tt = random_tt(rng, (3, 3), (2,))
    path = tmp_path / "train.bin"
    tt_save(tt, path)
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.bin"

    raw0 = raw.copy()
    raw0[:4] = b"NOPE"
    bad.write_bytes(bytes(raw0))
    with pytest.raises(FormatError) as err:
        tt_load(bad)
    assert err.value.offset == 0

    raw1 = raw.copy()
    raw1[4] = 99
    bad.write_bytes(bytes(raw1))
    with pytest.raises(VersionError):
        tt_load(bad)


def test_load_rejects_truncated_payload(tmp_path):
    rng = np.random.default_rng(20)
    tt = random_tt(rng, (3, 3), (2,))
    path = tmp_path / "train.bin"
    tt_save(tt, path)
    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError):
        tt_load(clipped)


def test_a_version_1_file_is_refused(tmp_path):
    # version 1 had the same layout without the checksum trailer
    tt = random_tt(np.random.default_rng(24), (3, 3), (2,))
    blob = bytearray(raw_train_file(tt.cores)[:-4])
    blob[4:8] = struct.pack("<I", 1)
    path = tmp_path / "old.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionError) as err:
        tt_load(path)
    assert err.value.offset == 4


def test_every_flipped_payload_bit_is_refused_at_the_checksum(tmp_path):
    tt = random_tt(np.random.default_rng(25), (3, 4, 3), (2, 2))
    path = tmp_path / "train.bin"
    tt_save(tt, path)
    blob = path.read_bytes()
    start = 12 + 8 * (2 * tt.order + 1)
    trailer = len(blob) - 4
    assert trailer - start == 8 * sum(c.size for c in tt.cores) == 224
    for at in range(start, trailer):
        changed = bytearray(blob)
        changed[at] ^= 1
        path.write_bytes(bytes(changed))
        with pytest.raises(FormatError) as err:
            tt_load(path)
        assert err.value.offset == trailer


def test_version_exported():
    assert ttaction.__version__
