"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/`` next to
this directory; without it the run fails before printing a result.  With
``--trace 0`` passes run untraced and the last line carries the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and the last
line carries the per-layer metrics, including the tracing overhead.  Every
pass repeats the same seed's inputs; figures are medians over passes, except
``actions_per_ref``, which divides all untraced actions by all untraced solve
time counted in units of a reference kernel sampled during those passes (see
``calibrate.py``).
Earlier lines give every metric by name and unit, the machine, the source
revision, library warnings (counted, not shown) and any failed check.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Both BLAS pools are capped so figures do not depend on a neighbour's load.
BLAS_THREADS = "1"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


def configure():
    """Pin BLAS threads and put the checkout's sources first on the path."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (SRC / "ttaction" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ttaction sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]


def measure_setup(workload, seed):
    """Median over fresh processes of import plus input construction."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def machine_info():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "machine": platform.machine(),
    }


def revision():
    """Git commit when the checkout is a repository, and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ttaction").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git": commit, "source_sha256": digest.hexdigest()}


def run_pass(workload, seed, tracer=None, sampler=None):
    """One pass on fresh inputs: traced when a tracer is given, else sampled."""
    from workloads import Pass

    inputs = workload.make_inputs(seed)
    gc.collect()
    if tracer is None:
        with sampler:
            p = Pass(clock=sampler.clock)
            workload.run(inputs, p)
        return p
    p = Pass(tracer)
    tracer.hilbert_ids = {id(o) for o in inputs.get("hilbert", ())}
    with tracer:
        workload.run(inputs, p)
    return p


def trace_checks(tracer, pass_id, p):
    """Span counts against the program's own counters; returns problems."""
    problems = []
    forward, adjoint = tracer.engine_solves(pass_id)
    spanned = tracer.count_under(pass_id, "hovd.model.lu_solve", "hovd.oracle.engine")
    if forward + adjoint != spanned:
        problems.append(f"engine counted {forward + adjoint} solves, spans saw {spanned}")
    table = tracer.span_table(pass_id)
    hovd_actions = table.get("hovd.action", [0])[0]
    if hovd_actions != p.hovd_actions:
        problems.append(
            f"derivative oracles counted {p.hovd_actions} actions, spans saw {hovd_actions}"
        )
    spent = tracer.counts.get((pass_id, "builder.actions"), 0)
    law = tracer.counts.get((pass_id, "builder.predicted"), 0)
    if spent != law:
        problems.append(f"builds spent {spent} actions, closed form {law}")
    return problems


def measure(workload, seed, seconds, trace):
    """Alternate (untraced[, traced]) passes until ``seconds`` have passed.

    The reference kernel is sampled during the untraced passes only.
    """
    from calibrate import Sampler
    from tracer import Tracer

    tracer = Tracer() if trace else None
    sampler = Sampler()
    plain, traced, layers = [], [], []
    t0 = time.perf_counter()
    while not plain or time.perf_counter() - t0 < seconds:
        plain.append(run_pass(workload, seed, sampler=sampler))
        if tracer is not None:
            tracer.pass_id = len(traced)
            p = run_pass(workload, seed, tracer)
            p.attempted += 1
            problems = trace_checks(tracer, tracer.pass_id, p)
            if problems:
                p.fail("trace", "; ".join(problems))
            layer = {"hovd.compress.trials": 0, **tracer.layer_metrics(tracer.pass_id)}
            layer.update(p.layer)
            traced.append(p)
            layers.append(layer)
    return plain, sampler, traced, layers, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    configure()
    import metrics
    import ttaction
    from workloads import WORKLOADS

    if Path(ttaction.__file__).resolve().parent != SRC / "ttaction":
        raise SystemExit(f"perfbench: imported ttaction from {ttaction.__file__}, not {SRC}")
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    import calibrate

    setup_s = measure_setup(args.workload, args.seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        workload.warm_up()
        calibrate.unit()
        del caught[:]
        plain, sampler, traced, layers, tracer = measure(
            workload, args.seed, args.seconds, args.trace
        )
    warned = {}
    for w in caught:
        warned[w.category.__name__] = warned.get(w.category.__name__, 0) + 1

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    attempted += 1
    if len({p.actions for p in passes}) != 1:
        failed += 1
        counts = [p.actions for p in passes]
        errors.append(f"repeat: action counts differ between passes {counts}")

    solve_s = statistics.median(p.solve_s for p in plain)
    rates = [p.actions / p.solve_s if p.solve_s > 0 else 0.0 for p in plain]
    ref_unit_s = sampler.spent / sampler.units
    plain_solve_s = sum(p.solve_s for p in plain)
    values = {
        "actions_per_ref": sum(p.actions for p in plain) * ref_unit_s / plain_solve_s
        if plain_solve_s > 0 else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "actions_per_s": statistics.median(rates),
        "ref_unit_s": ref_unit_s,
        "solve_s": solve_s,
        "actions": plain[0].actions,
        "failed_ratio": failed / attempted,
    }
    if args.trace:
        values.update({m["name"]: statistics.median(layer[m["name"]] for layer in layers)
                       for m in metrics.PER_LAYER if m["name"] != "trace.overhead_s"})
        values["trace.overhead_s"] = statistics.median(p.solve_s for p in traced) - solve_s

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(plain)} traced_passes={len(traced)}")
    print("machine " + json.dumps(machine_info()))
    print("revision " + json.dumps(revision()))
    print("warnings " + json.dumps(warned))
    print("pass_solve_s " + json.dumps({"untraced": [p.solve_s for p in plain],
                                        "traced": [p.solve_s for p in traced]}))
    print("reference " + json.dumps({"units": sampler.units, "sampled_s": sampler.spent}))
    shown = metrics.END_TO_END + metrics.REPORTED_ONLY
    if args.trace:
        shown = shown + metrics.PER_LAYER
        for name, (count, total, self_s) in sorted(tracer.span_table(0).items()):
            print(f"span {name} calls={count} total_s={total:.6f} self_s={self_s:.6f}")
    for m in shown:
        where = ""
        if "layer" in m:
            where = f" layer={m['layer']} moves={m['moves']} on={','.join(m['workloads'])}"
        print(f"metric {m['name']} {values[m['name']]!r} {m['unit']}{where}")
    for e in errors:
        print("error " + e)
    chosen = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
