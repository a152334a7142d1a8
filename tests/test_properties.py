"""Property tests: rounding invariants, the loader refusing truncated and
corrupted files, the action-count law of fixed-rank builds, and the exit
codes of small command lines.

Examples are derandomized, so every run checks the same small trains.
"""

import re

import numpy as np
import pytest

from ttaction import (
    ActionOracle,
    BuildConfig,
    TensorTrain,
    oracle_from_tt,
    predicted_action_count,
    tt_from_actions,
    tt_load,
    tt_relative_error,
    tt_round,
    tt_save,
)
from ttaction import builder, cli
from ttaction.cli import main
from ttaction.core import unfolding_caps
from ttaction.errors import FormatError, ShapeError
from ttaction.hovd import compress, taylor

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


def refused(path, blob):
    """Assert that ``tt_load`` refuses ``path``, holding ``blob``, at an offset inside it."""
    with pytest.raises(FormatError) as err:
        tt_load(path)
    assert 0 <= err.value.offset <= len(blob)


@hypothesis.settings(SETTINGS, max_examples=10)
@hypothesis.given(tt=trains(max_order=3, max_size=4, max_rank=3))
def test_every_strict_prefix_of_a_saved_file_is_refused(tt, tmp_path_factory):
    where = tmp_path_factory.mktemp("prefix")
    path, cut = where / "train.bin", where / "cut"
    tt_save(tt, path)
    blob = path.read_bytes()
    for end in range(len(blob)):
        cut.write_bytes(blob[:end])
        refused(cut, blob[:end])


@hypothesis.settings(SETTINGS, max_examples=10)
@hypothesis.given(data=st.data(), tt=trains(max_order=3, max_size=4, max_rank=3))
def test_every_changed_byte_of_a_saved_file_is_refused(data, tt, tmp_path_factory):
    # every byte (header, cores and checksum), each changed alone by a drawn
    # nonzero mask; a CRC-32 catches every error burst of up to 32 bits
    path = tmp_path_factory.mktemp("byte") / "train.bin"
    tt_save(tt, path)
    blob = path.read_bytes()
    masks = data.draw(st.lists(st.integers(1, 255), min_size=len(blob), max_size=len(blob)))
    for at, mask in enumerate(masks):
        changed = bytearray(blob)
        changed[at] ^= mask
        path.write_bytes(bytes(changed))
        refused(path, changed)


@st.composite
def build_cases(draw):
    """Small dims, fixed ranks within ``unfolding_caps``, and the build's slack.

    The truth has the caps as ranks, so every requested rank is a truncation
    of a generic tensor.  A rank beyond r_{k-1} N_k, the rows stage k
    samples, is cut by the build with a warning and counted cut by the law.
    """
    order = draw(st.integers(2, 5))
    dims = tuple(draw(st.lists(st.integers(2, 7), min_size=order, max_size=order)))
    caps = unfolding_caps(dims)
    ranks = [draw(st.integers(1, cap)) for cap in caps]
    slack = {
        "oversampling": draw(st.integers(0, 3)),
        "tau_extra": draw(st.integers(0, 2)),
    }
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bounds = [1, *caps, 1]
    truth = TensorTrain(
        [rng.standard_normal((bounds[k], n, bounds[k + 1])) for k, n in enumerate(dims)]
    )
    return truth, ranks, slack


@hypothesis.settings(SETTINGS, max_examples=60)
@hypothesis.given(case=build_cases())
def test_build_spends_the_count_law_or_both_refuse(case):
    truth, ranks, slack = case
    oracle = oracle_from_tt(truth)
    config = BuildConfig(ranks=ranks, seed=0, **slack)
    try:
        law = predicted_action_count(truth.dims, ranks, **slack)
    except ShapeError as refusal:
        with pytest.raises(ShapeError, match=re.escape(str(refusal))):
            tt_from_actions(oracle, config)
        assert oracle.action_count == 0
        return
    built, report = tt_from_actions(oracle, config)
    cut, rows = [], 1
    for n, r in zip(truth.dims, ranks):
        rows = min(r, rows * n)
        cut.append(rows)
    assert built.ranks == tuple(cut)
    assert oracle.action_count == report.total_actions == law


def joined(values):
    return ",".join(str(v) for v in values)


@st.composite
def command_lines(draw):
    """Small argument vectors for every command that writes data files.

    Values come from a drawn seed, so each can be made invalid at a set
    rate: a size, rank or slack reaches 0 or -1 one time in ten, so
    refusals of every kind are drawn beside runs that finish.  List flags
    use ``--flag=value``, so a value never reads as an option.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def pick(low, high, bad=None):
        return bad if bad is not None and rng.random() < 0.1 else int(rng.integers(low, high + 1))

    command = str(rng.choice(["synthetic", "hilbert", "derivative", "taylor"]))
    argv = [command, "--seed", str(pick(0, 3)), "--p", str(pick(0, 3, bad=-1))]
    if command != "taylor":
        argv += ["--tau-extra", str(pick(0, 3, bad=-1))]
    if command == "synthetic":
        d = pick(2, 4, bad=1)
        argv.append("--shape=" + joined(pick(1, 4, bad=0) for _ in range(d)))
        for flag in ("--true-ranks", "--build-ranks")[: pick(1, 2)]:
            count = d if rng.random() < 0.1 else max(d - 1, 1)
            argv.append(f"{flag}=" + joined(pick(1, 4, bad=0) for _ in range(count)))
    elif command == "hilbert":
        dims = joined(pick(2, 5, bad=1) for _ in range(pick(2, 4, bad=1)))
        argv += [f"--dims={dims}", "--max-rank", str(pick(2, 6, bad=1))]
    elif command == "derivative":
        argv += ["--n", str(pick(4, 4, bad=3)), "--k", str(pick(1, 3, bad=0))]
        pair = ["rank", "eps"] if rng.random() >= 0.1 else ["both", "neither"]
        target = rng.choice(pair)
        if target in ("rank", "both"):
            argv += ["--rank", str(pick(1, 5, bad=0))]
        if target in ("eps", "both"):
            argv += ["--eps", str(rng.choice([0.5, 0.1]) if rng.random() >= 0.1 else 0.0)]
        if rng.random() < 0.5:
            argv += ["--max-rank", str(pick(2, 6, bad=1))]
    else:
        argv += [
            "--n", str(pick(4, 4, bad=3)),
            "--max-order", str(pick(1, 3, bad=0)),
            "--rank", str(pick(1, 4, bad=0)),
            "--samples", str(pick(1, 4, bad=0)),
        ]
    return argv


@hypothesis.settings(SETTINGS, max_examples=250)
@hypothesis.given(argv=command_lines())
def test_a_command_line_exits_0_2_or_3_and_writes_only_on_success(argv, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    law, action = builder.predicted_action_count, ActionOracle.action
    refused, spent = [], []

    def watched_law(*args, **kwargs):
        try:
            return law(*args, **kwargs)
        except ShapeError:
            refused.append(args)
            raise

    def watched_action(self, free_mode, vectors):
        spent.append(free_mode)
        return action(self, free_mode, vectors)

    with pytest.MonkeyPatch.context() as patch:
        for home in (builder, cli, compress, taylor):
            patch.setattr(home, "predicted_action_count", watched_law)
        patch.setattr(ActionOracle, "action", watched_action)
        code = main(argv + ["--out-dir", str(out), "--no-timing"])
    written = sorted(p.name for p in out.iterdir())
    assert code in (0, 2, 3)
    if code == 0:
        assert f"{argv[0]}_manifest.json" in written
    else:
        assert written == []
    # a refusal of the arguments comes before any work
    assert code != 2 or not spent
    # nothing is written where the count law refuses a schedule
    assert not refused or code != 0
