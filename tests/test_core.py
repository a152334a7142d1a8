"""Dense actions, train algebra, compression, and serialization."""

import base64
import json

import numpy as np
import pytest

import ttaction
from ttaction import (
    ActionOracle,
    TensorTrain,
    dense_action,
    fix_signs,
    oracle_from_dense,
    oracle_from_tt,
    tt_apply,
    tt_load,
    tt_load_json,
    tt_relative_error,
    tt_round,
    tt_save,
    tt_save_json,
)
from ttaction.core import _truncated_svd, prefix_contract
from ttaction.errors import (
    FormatError,
    RankClampWarning,
    ShapeError,
    VersionError,
    ZeroNormError,
)

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
    np.testing.assert_allclose(
        dense_action(t, 1, [y, z]), np.einsum("ijk,j,k->i", t, y, z), atol=1e-13
    )
    np.testing.assert_allclose(
        dense_action(t, 2, [x, z]), np.einsum("ijk,i,k->j", t, x, z), atol=1e-13
    )
    np.testing.assert_allclose(
        dense_action(t, 3, [x, y]), np.einsum("ijk,i,j->k", t, x, y), atol=1e-13
    )


def test_dense_action_multilinearity():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((4, 3, 6))
    a, b = rng.standard_normal(3), rng.standard_normal(3)
    z = rng.standard_normal(6)
    lhs = dense_action(t, 1, [2.0 * a - b, z])
    rhs = 2.0 * dense_action(t, 1, [a, z]) - dense_action(t, 1, [b, z])
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_dense_action_identity_matrix_case():
    # matrix action with a basis vector picks out a column
    t = np.arange(12.0).reshape(3, 4)
    np.testing.assert_allclose(dense_action(t, 1, [np.eye(4)[1]]), t[:, 1])


@pytest.mark.parametrize("free_mode", [0, 4, -1])
def test_dense_action_free_mode_out_of_range(free_mode):
    t = np.zeros((2, 2, 2))
    with pytest.raises(ShapeError):
        dense_action(t, free_mode, [np.zeros(2), np.zeros(2)])


def test_dense_action_wrong_vector_count_and_length():
    t = np.zeros((2, 3, 4))
    with pytest.raises(ShapeError):
        dense_action(t, 1, [np.zeros(3)])
    with pytest.raises(ShapeError):
        dense_action(t, 1, [np.zeros(4), np.zeros(3)])


# ---------------------------------------------------------------------------
# oracle wrapper


def test_oracle_counts_and_resets():
    t = np.random.default_rng(2).standard_normal((5, 6))
    oracle = oracle_from_dense(t)
    vec = np.ones(6)
    for _ in range(200):
        oracle.action(1, [vec])
    assert oracle.action_count == 200
    oracle.reset_count()
    assert oracle.action_count == 0
    oracle.action(2, [np.ones(5)])
    assert oracle.action_count == 1


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
# tensor train container and contractions


def test_train_shape_validation():
    rng = np.random.default_rng(3)
    with pytest.raises(ShapeError):  # boundary rank not 1
        TensorTrain([rng.standard_normal((2, 3, 1))])
    with pytest.raises(ShapeError):  # bond mismatch
        TensorTrain(
            [rng.standard_normal((1, 3, 2)), rng.standard_normal((3, 4, 1))]
        )


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
            tt_apply(tt, mode, rest), dense_action(dense, mode, rest), atol=1e-11
        )


def test_prefix_contract_partial_contraction():
    rng = np.random.default_rng(6)
    dims, ranks = (3, 4, 5), (2, 3)
    tt = random_tt(rng, dims, ranks)
    x, y = rng.standard_normal(3), rng.standard_normal(4)
    out = prefix_contract(tt.cores[:2], [x, y])
    expect = np.einsum(
        "anb,n,bmc,m->c", tt.cores[0], x, tt.cores[1], y, optimize=True
    )
    np.testing.assert_allclose(out, expect, atol=1e-12)
    np.testing.assert_array_equal(prefix_contract([], []), np.ones(1))


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


def test_json_roundtrip(tmp_path):
    rng = np.random.default_rng(18)
    tt = random_tt(rng, (3, 4, 5), (2, 2))
    path = tmp_path / "train.json"
    tt_save_json(tt, path)
    back = tt_load_json(path)
    for a, b in zip(tt.cores, back.cores):
        assert np.array_equal(a, b)


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


def _edit(change):
    """Corruption that edits the parsed descriptor and writes it back."""

    def corrupt(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)

    return corrupt


def _set(field, value):
    return _edit(lambda doc: doc.update({field: value}))


def _short_then_long(doc):
    # the two payloads still add up to the right total length
    a, b = (base64.b64decode(c) for c in doc["cores"])
    doc["cores"] = [base64.b64encode(x).decode() for x in (a[:-8], a[-8:] + b)]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: text.replace('"cores": [\n    "', '"cores": [\n    "!'),
        lambda text: "[1, 2, 3]\n",
        lambda text: text.replace('"dims"', '"d\u00e9ms"'),
        lambda text: text[: len(text) // 2],
        _set("dims", "33"),
        _set("dims", [3.0, 3]),
        _set("dims", [3]),
        _set("ranks", [1, -2, 1]),
        _set("ranks", [2, 2, 1]),
        _set("order", "2"),
        _set("order", 1),
        _set("cores", [7, 7]),
        _set("cores", ["AAAA"]),
        _edit(_short_then_long),
    ],
    ids=[
        "bad-base64", "json-array", "non-ascii", "truncated-json",
        "string-dims", "float-dims", "short-dims", "negative-rank",
        "boundary-rank", "string-order", "order-1", "numeric-cores",
        "missing-core", "short-then-long-core",
    ],
)
def test_json_load_rejects_corruption(tmp_path, corrupt):
    tt = random_tt(np.random.default_rng(23), (3, 3), (2,))
    path = tmp_path / "train.json"
    tt_save_json(tt, path)
    bad = corrupt(path.read_text(encoding="ascii"))
    path.write_bytes(bad.encode("utf-8"))
    with pytest.raises(FormatError):
        tt_load_json(path)


def test_version_exported():
    assert ttaction.__version__
