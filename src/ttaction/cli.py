"""Command line front end for the compression experiments.

Subcommands
-----------
hilbert     error-vs-rank curves for the Hilbert tensor, action-built vs SVD
synthetic   exact-recovery harness on a random tensor train
derivative  compress a whitened derivative tensor of the PDE map
taylor      surrogate accuracy statistics over Gaussian samples
info        environment and defaults as JSON on stdout

Every file-writing command drops a ``<command>_manifest.json`` next to its
outputs recording the configuration, the environment ``info`` prints, and
timestamps, whose ``seconds`` is the run's one wall time.  Data files hold
no wall time, so for a fixed seed and a fixed BLAS thread count reruns
compare byte for byte.  ``info`` takes no flags.
Exit codes: 0 success, 2 bad configuration (including ranks that the
action-count law refuses, found before any action), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .builder import BuildConfig, predicted_action_count, tt_from_actions
from .core import (
    TensorTrain,
    _check_dims,
    _tt_norm,
    oracle_from_tt,
    rank_list,
    subseed,
    tt_relative_error,
    tt_round,
    tt_save,
)
from .errors import FormatError, NumericalError, ShapeError
from .hilbert import DEFAULT_DIMS, hilbert_oracle, hilbert_train
from .hovd import (
    ReactionDiffusionModel,
    WhitenedMap,
    build_taylor_surrogate,
    compress_derivative,
    taylor_error_stats,
)
from .rangefinder import DEFAULT_OVERSAMPLING

#: Default grid points per side of the PDE model (``--n``).
MODEL_GRID = 12


def _int_tuple(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints: {text!r}") from exc


def _fmt(value):
    # repr keeps full float round-trip precision with a '.' decimal point
    return repr(value) if isinstance(value, float) else str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _environment():
    """The platform, library versions, BLAS and BLAS thread variables of a run.

    ``info`` prints it and every manifest records it: the last digits of
    some data files depend on the BLAS thread count.  An unset variable
    reads None, and so does the BLAS where numpy does not name it.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas["name"], "version": blas["version"]}
    except (KeyError, TypeError, ValueError):
        blas = {"name": None, "version": None}
    return {
        "platform": platform.platform(),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "ttaction": __version__,
        },
        "blas": blas,
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _finish(args, outputs, started, t0):
    config = {key: val for key, val in sorted(vars(args).items()) if key != "func"}
    manifest = {
        "command": args.command,
        "config": config,
        "seed": args.seed,
        **_environment(),
        "timestamps": {
            "start": started,
            "end": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "seconds": time.perf_counter() - t0,
        },
        "outputs": [Path(p).name for p in outputs],
    }
    _write_json(Path(args.out_dir) / f"{args.command}_manifest.json", manifest)


def cmd_hilbert(args):
    if args.max_rank < 2:
        raise ShapeError(f"--max-rank must be >= 2, got {args.max_rank}")
    dims = args.dims
    ranks = range(2, args.max_rank + 1)
    # the count law reads only the arguments, so a rank it refuses is
    # refused before the first build
    for rank in ranks:
        predicted_action_count(dims, rank, args.p, args.tau_extra)
    exact = hilbert_train(dims)
    exact_norm = _tt_norm(exact)
    oracle = hilbert_oracle(dims)
    rows = []
    for rank in ranks:
        train, report = tt_from_actions(
            oracle,
            BuildConfig(
                ranks=rank,
                oversampling=args.p,
                tau_extra=args.tau_extra,
                seed=args.seed,
            ),
        )
        error = tt_relative_error(exact, train, exact_norm)
        rows.append((rank, "rsvd", error, report.total_actions))
        error = tt_relative_error(exact, tt_round(exact, ranks=train.ranks), exact_norm)
        rows.append((rank, "svd", error, 0))
    path = Path(args.out_dir) / "hilbert.csv"
    _write_csv(path, ("rank", "method", "rel_error", "actions"), rows)
    return [path]


def cmd_synthetic(args):
    d = len(_check_dims(args.shape))
    build_ranks = args.build_ranks or args.true_ranks
    for flag, ranks in ("--true-ranks", args.true_ranks), ("--build-ranks", build_ranks):
        try:
            rank_list(ranks, d)
        except ShapeError as exc:
            raise ShapeError(f"{flag}: {exc}") from exc
    predicted = predicted_action_count(args.shape, build_ranks, args.p, args.tau_extra)
    out_dir = Path(args.out_dir)
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 7001)))
    bounds = (1,) + tuple(args.true_ranks) + (1,)
    cores = [
        rng.standard_normal((bounds[k], args.shape[k], bounds[k + 1]))
        for k in range(d)
    ]
    # Gaussian cores of positive sizes and ranks have a nonzero norm
    cores[0] = cores[0] / _tt_norm(TensorTrain(cores))
    true_tt = TensorTrain(cores)

    oracle = oracle_from_tt(true_tt)
    train, report = tt_from_actions(
        oracle,
        BuildConfig(
            ranks=list(build_ranks),
            oversampling=args.p,
            tau_extra=args.tau_extra,
            seed=args.seed,
        ),
    )
    error = tt_relative_error(true_tt, train)
    payload = {
        "shape": list(args.shape),
        "true_ranks": list(args.true_ranks),
        "build_ranks": list(build_ranks),
        "ranks_built": list(train.ranks),
        "relative_error": error,
        "pass": bool(error < 1e-6),
        "actions_observed": report.total_actions,
        "actions_predicted": predicted,
        "oversampling": args.p,
        "tau_extra": args.tau_extra,
        "seed": args.seed,
    }
    path = out_dir / "synthetic.json"
    _write_json(path, payload)
    return [path]


def cmd_derivative(args):
    out_dir = Path(args.out_dir)
    model = ReactionDiffusionModel(args.n)
    train, info = compress_derivative(
        model,
        args.k,
        rank=args.rank,
        eps=args.eps,
        seed=args.seed,
        oversampling=args.p,
        tau_extra=args.tau_extra,
        max_rank=args.max_rank,
    )
    info["ranks_built"] = list(train.ranks)
    tt_path = out_dir / "derivative_tt.bin"
    tt_save(train, tt_path)
    path = out_dir / "derivative.json"
    _write_json(path, info)
    return [path, tt_path]


def cmd_taylor(args):
    if args.samples < 1:
        raise ShapeError(f"--samples must be >= 1, got {args.samples}")
    out_dir = Path(args.out_dir)
    model = ReactionDiffusionModel(args.n)
    whitener = WhitenedMap(model)
    surrogate, _reports = build_taylor_surrogate(
        model,
        args.max_order,
        args.rank,
        seed=args.seed,
        oversampling=args.p,
        whitener=whitener,
    )
    stats = taylor_error_stats(
        surrogate,
        whitener.evaluate,
        args.samples,
        seed=subseed(args.seed, 9),
    )
    stats_rows = [
        (order, stats["means"][i], stats["stds"][i], args.samples)
        for i, order in enumerate(stats["orders"])
    ]
    stats_path = out_dir / "taylor_stats.csv"
    _write_csv(stats_path, ("order", "mean", "std", "n_samples"), stats_rows)
    sample_rows = [
        (order, j, float(stats["errors"][i, j]))
        for i, order in enumerate(stats["orders"])
        for j in range(args.samples)
    ]
    samples_path = out_dir / "taylor_samples.csv"
    _write_csv(samples_path, ("order", "sample", "error"), sample_rows)
    return [stats_path, samples_path]


def cmd_info(args):
    payload = {
        "defaults": {
            "hilbert_dims": list(DEFAULT_DIMS),
            "oversampling": DEFAULT_OVERSAMPLING,
            "tau_extra": BuildConfig.tau_extra,
            "model_grid": MODEL_GRID,
        },
        **_environment(),
    }
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return []


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base random seed")
    common.add_argument("--out-dir", default=".", help="directory for outputs")
    common.add_argument(
        "--p", type=int, default=DEFAULT_OVERSAMPLING,
        help="range-finder oversampling",
    )

    # only the commands that pass it on to their builds take --tau-extra
    slices = argparse.ArgumentParser(add_help=False)
    slices.add_argument(
        "--tau-extra", type=int, default=BuildConfig.tau_extra,
        help="extra interpolation slices beyond ceil(rank / mode size)",
    )

    parser = argparse.ArgumentParser(
        prog="ttaction",
        description="Tensor-train compression from actions: experiment front end.",
    )
    sub = parser.add_subparsers(dest="command")

    p_h = sub.add_parser(
        "hilbert", parents=[common, slices],
        help="error-vs-rank curves on the Hilbert tensor",
    )
    p_h.add_argument("--dims", type=_int_tuple, default=DEFAULT_DIMS)
    p_h.add_argument("--max-rank", type=int, default=10)
    p_h.set_defaults(func=cmd_hilbert)

    p_s = sub.add_parser(
        "synthetic", parents=[common, slices], help="exact-recovery harness"
    )
    p_s.add_argument("--shape", type=_int_tuple, default=(20, 20, 20, 20, 20))
    p_s.add_argument("--true-ranks", type=_int_tuple, default=(4, 5, 6, 4))
    p_s.add_argument("--build-ranks", type=_int_tuple, default=None)
    p_s.set_defaults(func=cmd_synthetic)

    p_d = sub.add_parser(
        "derivative", parents=[common, slices],
        help="compress a whitened derivative tensor of the PDE map",
    )
    p_d.add_argument("--n", type=int, default=MODEL_GRID, help="grid points per side")
    p_d.add_argument("--k", type=int, default=2, help="derivative order")
    p_d.add_argument("--rank", type=int, default=None)
    p_d.add_argument("--eps", type=float, default=None,
                     help="relative spectral-error target for the adaptive rank")
    p_d.add_argument("--max-rank", type=int, default=None,
                     help="rank ceiling of the --eps search (not with --rank)")
    p_d.set_defaults(func=cmd_derivative)

    p_t = sub.add_parser(
        "taylor", parents=[common],
        help="surrogate error statistics over Gaussian samples",
    )
    p_t.add_argument("--n", type=int, default=MODEL_GRID, help="grid points per side")
    p_t.add_argument("--max-order", type=int, default=3)
    p_t.add_argument("--rank", type=int, default=10)
    p_t.add_argument("--samples", type=int, default=200)
    p_t.set_defaults(func=cmd_taylor)

    p_i = sub.add_parser("info", help="environment report")
    p_i.set_defaults(func=cmd_info)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 2
    # every command but info writes its outputs plus a manifest to --out-dir
    writes = args.command != "info"
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.perf_counter()
    try:
        if writes:
            Path(args.out_dir).mkdir(parents=True, exist_ok=True)
        outputs = args.func(args)
        if writes:
            _finish(args, outputs, started, t0)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ShapeError, FormatError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
