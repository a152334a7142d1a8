"""Command line front end: outputs, manifests, exit codes, determinism."""

import argparse
import ast
import csv
import inspect
import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from ttaction import ActionOracle, tt_load
from ttaction.cli import build_parser, main
from ttaction import errors
from ttaction.errors import NonFiniteActionError


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_info_stdout_only(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["info"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "versions" in payload and "defaults" in payload
    assert payload["defaults"]["hilbert_dims"] == [41, 42, 43, 44, 45]
    assert list(tmp_path.iterdir()) == []  # info writes nothing


@pytest.mark.parametrize("flag", [["--seed", "7"], ["--p", "99"], ["--out-dir", "X"]])
def test_info_takes_no_flags(flag):
    with pytest.raises(SystemExit) as err:
        main(["info", *flag])
    assert err.value.code == 2


def test_info_and_every_manifest_keep_one_environment_record(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    assert main(["info"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["blas_threads"] == {
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": None,
        "MKL_NUM_THREADS": "3",
    }
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert info["blas"] == {"name": blas["name"], "version": blas["version"]}
    argv = ["hilbert", "--dims", "4,5,6", "--max-rank", "2"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    manifest = read_json(tmp_path / "hilbert_manifest.json")
    for key in ("platform", "versions", "blas", "blas_threads"):
        assert manifest[key] == info[key]


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == 2


def test_synthetic_small(tmp_path):
    code = main(
        [
            "synthetic",
            "--shape", "8,9,10,8",
            "--true-ranks", "3,4,3",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    payload = read_json(tmp_path / "synthetic.json")
    assert payload["pass"] is True
    assert payload["relative_error"] < 1e-6
    assert payload["actions_observed"] == payload["actions_predicted"]
    assert payload["ranks_built"] == [3, 4, 3]
    assert "seconds" not in payload
    manifest = read_json(tmp_path / "synthetic_manifest.json")
    assert manifest["command"] == "synthetic"
    assert manifest["timestamps"]["seconds"] > 0.0  # the run's one wall time
    assert manifest["outputs"] == ["synthetic.json"]
    assert manifest["config"]["shape"] == [8, 9, 10, 8]
    assert manifest["versions"]["numpy"] == np.__version__


def test_synthetic_huge_shape_exact_error(tmp_path):
    # 1e10 entries: the error is measured between the trains, never densely
    code = main(
        [
            "synthetic",
            "--shape", "100,100,100,100,100",
            "--true-ranks", "2,3,3,2",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    payload = read_json(tmp_path / "synthetic.json")
    assert payload["relative_error"] < 1e-10
    assert payload["pass"] is True


def test_synthetic_bad_ranks_exits_two(tmp_path):
    code = main(
        [
            "synthetic",
            "--shape", "8,9,10",
            "--true-ranks", "3,4,3",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 2
    assert not (tmp_path / "synthetic.json").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--build-ranks", "0,1,1,1"],
        ["--shape", "5,6,7", "--true-ranks", "2,2", "--build-ranks", "2,-1"],
        ["--shape", "5,6,7", "--true-ranks", "0,2"],
        ["--shape", "0,5", "--true-ranks", "1"],
    ],
    ids=["build-rank-0", "build-rank-negative", "true-rank-0", "shape-0"],
)
def test_synthetic_nonpositive_size_or_rank_exits_two(tmp_path, capsys, flags):
    assert main(["synthetic", *flags, "--out-dir", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "synthetic.json").exists()


def test_synthetic_rerun_byte_identical(tmp_path):
    for sub in ("a", "b"):
        assert main(
            [
                "synthetic",
                "--shape", "8,9,10",
                "--true-ranks", "3,4",
                "--out-dir", str(tmp_path / sub),
            ]
        ) == 0
    a = (tmp_path / "a" / "synthetic.json").read_bytes()
    b = (tmp_path / "b" / "synthetic.json").read_bytes()
    assert a == b


def test_hilbert_small(tmp_path):
    code = main(
        [
            "hilbert",
            "--dims", "8,9,10",
            "--max-rank", "4",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    rows = read_csv(tmp_path / "hilbert.csv")
    assert rows[0] == ["rank", "method", "rel_error", "actions"]
    body = rows[1:]
    assert len(body) == 3 * 2  # ranks 2..4, two methods each
    assert [r[:2] for r in body[:2]] == [["2", "rsvd"], ["2", "svd"]]
    for rank, method, rel_error, actions in body:
        assert float(rel_error) > 0.0
        assert (int(actions) > 0) == (method == "rsvd")
    manifest = read_json(tmp_path / "hilbert_manifest.json")
    assert manifest["config"]["dims"] == [8, 9, 10]
    assert manifest["outputs"] == ["hilbert.csv"]


def test_hilbert_takes_the_exact_norm_once(tmp_path, monkeypatch):
    # every error row divides by the exact train's norm, computed once per run
    import ttaction.cli
    import ttaction.core
    from ttaction.hilbert import hilbert_train

    exact_ranks = hilbert_train((4, 5, 6)).ranks
    norm, seen = ttaction.core._tt_norm, []

    def counted(tt):
        seen.append(tt.ranks)
        return norm(tt)

    for module in (ttaction.core, ttaction.cli):
        monkeypatch.setattr(module, "_tt_norm", counted)
    argv = ["hilbert", "--dims", "4,5,6", "--max-rank", "4"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    assert seen.count(exact_ranks) == 1
    assert len(seen) == 1 + 2 * 3  # and one per difference train


def test_hilbert_ranks_above_the_unfolding_caps(tmp_path):
    # caps (4, 6): ranks 6..8 are cut to them in the builds, and the svd
    # rows round at the ranks each build realized
    argv = ["hilbert", "--dims", "4,5,6", "--max-rank", "8"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    body = read_csv(tmp_path / "hilbert.csv")[1:]
    assert len(body) == 7 * 2
    for rank, method, rel_error, actions in body:
        assert float(rel_error) < (1e-12 if int(rank) >= 6 else 1e-2)


def test_hilbert_rejects_bad_rank(tmp_path):
    assert main(["hilbert", "--max-rank", "1", "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("dims", ["5", "5,0"])
def test_hilbert_refuses_a_shape_no_train_can_have(tmp_path, capsys, dims):
    # the count law's mode-size check, before any build
    argv = ["hilbert", "--dims", dims, "--max-rank", "3", "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert "need at least 2 modes of positive size" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_hilbert_takes_a_size_one_mode(tmp_path):
    # as the library does: the (1 | 5) unfolding caps every rank at 1
    argv = ["hilbert", "--dims", "1,5", "--max-rank", "3"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    body = read_csv(tmp_path / "hilbert.csv")[1:]
    assert [(row[0], row[1]) for row in body] == [
        ("2", "rsvd"), ("2", "svd"), ("3", "rsvd"), ("3", "svd")
    ]
    assert all(float(row[2]) < 1e-12 for row in body)


def no_action(*args, **kwargs):
    raise AssertionError("ranks the count law refuses reached an action")


@pytest.mark.parametrize(
    "argv",
    [
        # rank 2 would build; at rank 3 stage 3 needs 3 sets from a rank-2 core
        ["hilbert", "--dims", "2,2,2,2,2", "--max-rank", "3"],
        ["synthetic", "--shape", "2,2,2,2", "--true-ranks", "2,2,2", "--tau-extra", "2"],
        ["derivative", "--n", "4", "--k", "2", "--rank", "3", "--tau-extra", "5"],
        # the Jacobian would build; order 2 needs 2 sets from a rank-1 core
        ["taylor", "--n", "4", "--max-order", "2", "--rank", "1", "--samples", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_ranks_the_count_law_refuses_exit_two_before_any_action(
    tmp_path, capsys, monkeypatch, argv
):
    monkeypatch.setattr(ActionOracle, "action", no_action)
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    assert "action-count law" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_taylor_refuses_negative_oversampling_with_one_message(tmp_path, capsys):
    # the Jacobian's read-off and the train builder refuse it in one wording
    messages = []
    for order in ("1", "2"):
        argv = ["taylor", "--n", "5", "--p", "-1", "--max-order", order]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        messages.append(capsys.readouterr().err)
    assert messages[0] == messages[1]
    assert "oversampling must be >= 0, got -1" in messages[0]
    assert list(tmp_path.iterdir()) == []


def test_derivative_fixed_rank(tmp_path):
    code = main(
        [
            "derivative",
            "--n", "5",
            "--k", "2",
            "--rank", "4",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    info = read_json(tmp_path / "derivative.json")
    assert info["rank"] == 4
    assert info["order"] == 2
    assert info["grid"] == 5
    assert 0.0 < info["sigma1_rel_error"] < 1.0
    assert "seconds" not in info
    train = tt_load(tmp_path / "derivative_tt.bin")
    assert train.dims == (25, 25, 16)
    assert list(train.ranks) == info["ranks_built"]
    manifest = read_json(tmp_path / "derivative_manifest.json")
    assert sorted(manifest["outputs"]) == ["derivative.json", "derivative_tt.bin"]


def test_derivative_requires_one_target(tmp_path):
    base = ["derivative", "--n", "5", "--out-dir", str(tmp_path)]
    assert main(base) == 2
    assert main(base + ["--rank", "3", "--eps", "0.1"]) == 2
    assert main(base + ["--eps", "0"]) == 2


def test_derivative_refuses_max_rank_with_rank(tmp_path, capsys):
    # a fixed rank is built as given, so a ceiling beside it would be ignored
    argv = ["derivative", "--n", "5", "--rank", "6", "--max-rank", "3"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    assert "max_rank bounds an eps search" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_derivative_refuses_rank_zero_through_the_count_law(tmp_path, capsys):
    argv = ["derivative", "--n", "5", "--rank", "0", "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert "ranks must be >= 1, got [0, 0]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_derivative_unreachable_eps_exits_three(tmp_path):
    code = main(
        [
            "derivative",
            "--n", "5",
            "--k", "2",
            "--eps", "1e-12",
            "--max-rank", "3",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 3


def test_nonfinite_action_exits_three(tmp_path, monkeypatch):
    def nan_compress(*args, **kwargs):
        raise NonFiniteActionError("action with free mode 3 returned non-finite entries")

    monkeypatch.setattr("ttaction.cli.compress_derivative", nan_compress)
    argv = ["derivative", "--n", "5", "--rank", "2", "--out-dir", str(tmp_path)]
    assert main(argv) == 3


def test_non_finite_truth_exits_three(tmp_path, monkeypatch, capsys):
    def nan_evaluate(self, x):
        return np.full((self.model.n_q, x.shape[1]), np.nan)

    monkeypatch.setattr("ttaction.hovd.oracle.WhitenedMap.evaluate", nan_evaluate)
    argv = ["taylor", "--n", "5", "--max-order", "1", "--rank", "2", "--samples", "3",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 3
    assert "truth of samples 0 to 2 is not finite" in capsys.readouterr().err


NUMERICAL_ERRORS = [
    errors.BuildStageError,
    errors.CapacityError,
    errors.DegenerateRangeError,
    errors.InterpolationError,
    errors.NewtonError,
    errors.NonFiniteActionError,
    errors.ZeroNormError,
]


def test_numerical_error_list_is_complete():
    found = {
        cls
        for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.NumericalError) and cls is not errors.NumericalError
    }
    assert found == set(NUMERICAL_ERRORS)
    assert issubclass(errors.ZeroNormError, ValueError)


@pytest.mark.parametrize(
    "cls,code",
    [(cls, 3) for cls in NUMERICAL_ERRORS] + [(errors.ShapeError, 2)],
    ids=lambda x: x.__name__ if isinstance(x, type) else str(x),
)
def test_library_error_exit_codes(tmp_path, monkeypatch, cls, code):
    def failing(*args, **kwargs):
        if cls is errors.BuildStageError:
            raise cls(1, RuntimeError("cause"))
        raise cls("planted failure")

    monkeypatch.setattr("ttaction.cli.compress_derivative", failing)
    argv = ["derivative", "--n", "5", "--rank", "2", "--out-dir", str(tmp_path)]
    assert main(argv) == code


def test_taylor_small(tmp_path):
    code = main(
        [
            "taylor",
            "--n", "5",
            "--max-order", "2",
            "--rank", "4",
            "--samples", "5",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    rows = read_csv(tmp_path / "taylor_stats.csv")
    assert rows[0] == ["order", "mean", "std", "n_samples"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-9)
    samples = read_csv(tmp_path / "taylor_samples.csv")
    assert samples[0] == ["order", "sample", "error"]
    assert len(samples) == 1 + 3 * 5
    manifest = read_json(tmp_path / "taylor_manifest.json")
    assert manifest["outputs"] == ["taylor_stats.csv", "taylor_samples.csv"]


def test_taylor_validation(tmp_path):
    assert main(["taylor", "--n", "5", "--max-order", "0", "--out-dir", str(tmp_path)]) == 2
    assert main(["taylor", "--n", "5", "--samples", "0", "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "command",
    [
        ["synthetic", "--shape", "6,7,8", "--true-ranks", "2,3"],
        ["hilbert", "--dims", "6,7,8", "--max-rank", "3"],
        ["derivative", "--n", "4", "--rank", "3"],
        ["taylor", "--n", "4", "--max-order", "2", "--rank", "3", "--samples", "2"],
    ],
    ids=lambda c: c[0],
)
def test_negative_slack_exits_two(tmp_path, command):
    assert main(command + ["--p", "-1", "--out-dir", str(tmp_path)]) == 2
    if command[0] != "taylor":  # taylor builds with the default tau_extra
        assert main(command + ["--tau-extra", "-2", "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", ["taylor", "info"])
def test_tau_extra_only_where_a_build_uses_it(command):
    with pytest.raises(SystemExit) as err:
        main([command, "--tau-extra", "2"])
    assert err.value.code == 2


def args_reads(func):
    """Names ``x`` that ``func`` reads as ``args.x``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args"
    }


def unread_flags(parser):
    """{command: sorted dests its ``func`` and ``main`` never read as ``args.<dest>``}."""
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {}
    for command, sub in subparsers.choices.items():
        read = args_reads(sub.get_default("func")) | args_reads(main)
        dests = {a.dest for a in sub._actions if a.option_strings and a.dest != "help"}
        if dests - read:
            found[command] = sorted(dests - read)
    return found


def test_scan_flags_an_unread_flag():
    def cmd_planted(args):
        return args.used

    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    planted = sub.add_parser("planted")
    planted.add_argument("--used")
    planted.add_argument("--ignored")
    planted.add_argument("--out-dir")  # main reads it
    planted.set_defaults(func=cmd_planted)
    assert unread_flags(parser) == {"planted": ["ignored"]}


def test_every_flag_is_read_by_its_command():
    assert unread_flags(build_parser()) == {}


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ttaction.cli", "info"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["versions"]
