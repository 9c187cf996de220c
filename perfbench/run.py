"""Benchmark for pointderiv: one workload per run, one closed-loop caller.

    python3 perfbench/run.py --workload {decompose,cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.  The run
sets up the workload, then runs whole rounds of operations one at a time
until S seconds have been spent in rounds (and at least 40 operations are
done), checks every result against closed forms, and prints one JSON object
as its last line of output.  With --trace 0 that object holds the
end-to-end metrics; with --trace 1 the per-layer metrics of a separate
traced run (see README.md).
"""
from __future__ import annotations

import time

T_START = time.perf_counter()  # before `import pointderiv`: set-up starts here

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_OPS = 40
SETUP_PROBES = 4  # extra set-ups in fresh interpreters; setup_s is the median of 5


def _import_workloads():
    if not (SRC / "pointderiv" / "__init__.py").is_file():
        sys.exit(f"benchmark: no package source at {SRC / 'pointderiv'}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import pointderiv

    if Path(pointderiv.__file__).resolve().parent != SRC / "pointderiv":
        sys.exit(f"benchmark: imported pointderiv from {pointderiv.__file__}, not {SRC}")
    import workloads

    return workloads


def _setup(name: str, seed: int, workdir: Path):
    """Import, build the workload's inputs and run one round of it.

    The round (on `cli`, one pass over every command) pays first-call costs
    such as the lazy `scipy.spatial` import.  Its outputs are checked after
    the set-up clock stops; an operation that fails there fails again, and
    is counted, in the measured rounds.
    """
    workloads = _import_workloads()
    wl = workloads.WORKLOADS[name](seed, workdir)
    results = []
    for op in wl.round():
        try:
            results.append(op())
        except Exception:
            traceback.print_exc(file=sys.stderr)
            results.append(None)
    setup_s = time.perf_counter() - T_START
    return wl, setup_s, wl.check(results)


def _probe_setup(name: str, seed: int) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"set-up probe exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["decompose", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    workdir = HERE / "out" / str(os.getpid())
    try:
        wl, setup_s, problems = _setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return _measure(args, wl, setup_s, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def _measure(args, wl, setup_s, problems) -> int:
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    clock = time.perf_counter
    lat = []
    attempted = failed = 0
    phase = 0.0
    try:
        while phase < args.seconds or attempted < MIN_OPS:
            ops = wl.round()
            results = []
            t_round = clock()
            for op in ops:
                t0 = clock()
                try:
                    r = op()
                except Exception:
                    r = None
                    failed += 1
                    traceback.print_exc(file=sys.stderr)
                lat.append(clock() - t0)
                results.append(r)
            phase += clock() - t_round
            attempted += len(ops)
            problems += wl.check(results)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)

    completed = attempted - failed
    ops_per_s = completed / phase
    if tracer is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_s] + [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "latency_p95_ms": (1e3 * _percentile(lat, 95), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = _layer_metrics(tracer, completed, ops_per_s)
        tracer.dump(HERE / "traces" / f"{args.workload}-seed{args.seed}.csv")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _layer_metrics(tr, ops: int, ops_per_s: float) -> dict:
    """Per-operation counts and times from the traced run."""
    ops = max(ops, 1)

    def ms(name, table=tr.total):
        return 1e3 * table.get(name, 0.0) / ops

    def per_op(value):
        return value / ops

    m = {
        "contour.integrate_contour.calls": (per_op(tr.calls["contour.integrate_contour"]), "count/op"),
        "contour.integrate_contour.self_ms": (ms("contour.integrate_contour", tr.self_time), "ms/op"),
        "contour.evals_per_op": (per_op(tr.counts["evaluations"]), "count/op"),
        "contour.err_to_tol_max": (tr.err_to_tol_max, "ratio"),
        "contour.paths_built": (
            per_op(sum(tr.calls[f"contour.{b}"] for b in ("build_keyhole", "build_annular_piece", "full_circle"))),
            "count/op",
        ),
        "contour.build_ms": (
            sum(ms(f"contour.{b}") for b in ("build_keyhole", "build_annular_piece", "full_circle")),
            "ms/op",
        ),
        "contour.annular_decomposition.ms": (ms("contour.annular_decomposition"), "ms/op"),
        "contour.lemma_cauchy_bound_check.ms": (ms("contour.lemma_cauchy_bound_check"), "ms/op"),
        "lipschitz.gallery_points": (per_op(tr.counts["gallery_points"]), "count/op"),
        "lipschitz.seminorm_estimate.ms": (ms("lipschitz.seminorm_estimate"), "ms/op"),
        "geometry.domain_contains.calls": (per_op(tr.calls["geometry.domain_contains"]), "count/op"),
        "geometry.domain_contains.ms": (ms("geometry.domain_contains"), "ms/op"),
        "geometry.boundary_distance.calls": (per_op(tr.calls["geometry.boundary_distance"]), "count/op"),
        "geometry.validate_cone.ms": (ms("geometry.validate_cone"), "ms/op"),
        "geometry.verify_interior_cone.ms": (ms("geometry.verify_interior_cone"), "ms/op"),
        "geometry.piece_diameter.ms": (ms("geometry.piece_diameter"), "ms/op"),
        "content.greedy_cover_upper.ms": (ms("content.greedy_cover_upper"), "ms/op"),
        "content.greedy_cover_upper.pieces": (per_op(tr.counts["greedy_pieces"]), "count/op"),
        "criterion.lord_ofarrell_series.ms": (ms("criterion.lord_ofarrell_series"), "ms/op"),
        "experiments.nontangential_limit.ms": (ms("experiments.nontangential_limit"), "ms/op"),
        "experiments.functional_sweep.ms": (ms("experiments.functional_sweep"), "ms/op"),
        "cli.load_config.ms": (ms("cli.load_config"), "ms/op"),
        "cli.emit.ms": (ms("cli.emit"), "ms/op"),
        "cli.bytes_written": (per_op(tr.counts["bytes_written"]), "B/op"),
        "cli.cache_hits": (tr.counts["cache_hits"], "count"),
    }
    for layer, v in tr.layer_self_ms().items():
        m[f"{layer}.self_ms"] = (v / ops, "ms/op")
    m["trace.ops_per_s"] = (ops_per_s, "1/s")
    m["trace.spans"] = (per_op(len(tr.spans)), "count/op")
    return m


if __name__ == "__main__":
    raise SystemExit(main())
