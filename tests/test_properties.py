"""Property tests: rounding invariants and loaders refusing truncated files.

Examples are derandomized, so every run checks the same small trains.
"""

import numpy as np
import pytest

from ttaction import (
    TensorTrain,
    tt_load,
    tt_load_json,
    tt_relative_error,
    tt_round,
    tt_save,
    tt_save_json,
)
from ttaction.errors import FormatError

from dense_reference import left_orthogonality_defect, tt_svd, tt_to_dense

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=25, derandomize=True, deadline=None)

# requested ranks may exceed what an unfolding supports; tt_round clamps those
# with a warning
pytestmark = pytest.mark.filterwarnings("ignore::ttaction.errors.RankClampWarning")


@st.composite
def trains(draw, max_order=4, max_size=5, max_rank=4):
    """A train of Gaussian cores with random order, mode sizes and ranks."""
    order = draw(st.integers(2, max_order))
    dims = draw(st.lists(st.integers(1, max_size), min_size=order, max_size=order))
    ranks = draw(st.lists(st.integers(1, max_rank), min_size=order - 1, max_size=order - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bounds = [1, *ranks, 1]
    return TensorTrain(
        [rng.standard_normal((bounds[k], n, bounds[k + 1])) for k, n in enumerate(dims)]
    )


def requested_ranks(order):
    return st.lists(st.integers(1, 6), min_size=order - 1, max_size=order - 1)


@SETTINGS
@hypothesis.given(data=st.data(), tt=trains())
def test_round_is_left_orthonormal_within_requested_ranks(data, tt):
    ranks = data.draw(requested_ranks(tt.order))
    rounded = tt_round(tt, ranks)
    assert rounded.dims == tt.dims
    assert all(r <= want for r, want in zip(rounded.ranks, ranks))
    assert left_orthogonality_defect(rounded) < 1e-12


@SETTINGS
@hypothesis.given(tt=trains())
def test_unranked_round_reproduces_the_train(tt):
    rounded = tt_round(tt)
    assert tt_relative_error(tt, rounded) < 1e-12
    assert left_orthogonality_defect(rounded) < 1e-12


@SETTINGS
@hypothesis.given(data=st.data(), tt=trains())
def test_ranked_round_matches_dense_tt_svd(data, tt):
    ranks = data.draw(requested_ranks(tt.order))
    rounded = tt_round(tt, ranks)
    dense = tt_to_dense(tt)
    direct = tt_svd(dense, ranks=ranks)
    np.testing.assert_allclose(
        tt_to_dense(rounded), tt_to_dense(direct), atol=1e-9 * np.linalg.norm(dense)
    )


@hypothesis.settings(SETTINGS, max_examples=10)
@hypothesis.given(tt=trains(max_order=3, max_size=4, max_rank=3))
def test_every_strict_prefix_of_a_saved_file_is_refused(tt, tmp_path_factory):
    # the JSON writer ends its document with a newline; the document itself
    # is what must be whole
    where = tmp_path_factory.mktemp("prefix")
    binary, text, cut = where / "train.bin", where / "train.json", where / "cut"
    tt_save(tt, binary)
    tt_save_json(tt, text)
    for blob, load in (
        (binary.read_bytes(), tt_load),
        (text.read_bytes().rstrip(b"\n"), tt_load_json),
    ):
        for end in range(len(blob)):
            cut.write_bytes(blob[:end])
            with pytest.raises(FormatError):
                load(cut)
