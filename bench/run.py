"""Benchmark of blaschke-lab: end-to-end and per-layer figures per workload.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cloud-analyze --seed 1 --seconds 20 --trace 0

The workloads are described in ``bench/workloads.py``.  The program under
test is the checkout's own ``src/blaschke_lab``, run in this process with
BLASCHKE_LAB_THREADS=1.  Batches of the workload run back to back while
another one fits in ``--seconds`` (always at least one).

``--trace 0`` reports the end-to-end metrics:
  batch_s          median wall time of the batch (sum of its timed calls)
  setup_s          median over fresh processes of imports, input
                   generation and a warm-up call (oracles excluded)
  peak_rss_mb      peak resident memory of this process
  accuracy_digits  -log10 of the worst relative error against the
                   oracles, clipped to [0, 16]
  ok_frac          operations that succeeded and passed their checks,
                   over operations attempted (1 - failed_frac)
``--trace 1`` runs each batch once untraced and once traced (see
``bench/tracer.py``) and reports per-layer self times, call and work
counts (lower median over the traced batches), and trace_overhead_frac =
traced / untraced median batch time - 1.

Every operation's output is checked outside the timed region; a failed
check counts against that operation only.  Human-readable lines start
with ``#``; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
PINNED_ENV = {
    "BLASCHKE_LAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
END_TO_END_UNITS = {
    "batch_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "accuracy_digits": "digits", "ok_frac": "ratio",
}
# (metric, unit, kind, source); kinds: self = module self time, s = span
# inclusive time, calls = span call count, count = work counter
PER_LAYER = [
    ("blaschke.self_s", "s", "self", "blaschke"),
    ("blaschke.factor_evals", "count", "count", "blaschke.factor_evals"),
    ("blaschke.factor_evals_per_s", "1/s", "rate", None),
    ("blaschke.evaluate.calls", "count", "calls", "blaschke.evaluate"),
    ("blaschke.deleted_product.calls", "count", "calls", "blaschke.deleted_product"),
    ("blaschke.separation_report.s", "s", "s", "blaschke.separation_report"),
    ("blaschke.compose_min_on_compact.s", "s", "s", "blaschke.compose_min_on_compact"),
    ("blaschke.partition_separated.s", "s", "s", "blaschke.partition_separated"),
    ("bergman.self_s", "s", "self", "bergman"),
    ("bergman.quad_nodes", "count", "count", "bergman.quad_nodes"),
    ("bergman.area_integral.calls", "count", "calls", "bergman.area_integral"),
    ("bergman.mb_lower_probe.s", "s", "s", "bergman.mb_lower_probe"),
    ("bergman.universal_divisor_ratio.s", "s", "s", "bergman.universal_divisor_ratio"),
    ("bergman.hp_norm.s", "s", "s", "bergman.hp_norm"),
    ("geninterp.self_s", "s", "self", "geninterp"),
    ("geninterp.vgh_interpolate.s", "s", "s", "geninterp.vgh_interpolate"),
    ("geninterp.hinf_bound_estimate.s", "s", "s", "geninterp.hinf_bound_estimate"),
    ("geninterp.cluster_sequence.s", "s", "s", "geninterp.cluster_sequence"),
    ("hermite.self_s", "s", "self", "hermite"),
    ("hermite.hermite_interpolant.calls", "count", "calls", "hermite.hermite_interpolant"),
    ("carleson.self_s", "s", "self", "carleson"),
    ("carleson.arc_carleson_constant.s", "s", "s", "carleson.arc_carleson_constant"),
    ("carleson.uniform_blaschke_sup.s", "s", "s", "carleson.uniform_blaschke_sup"),
    ("carleson.uniform_blaschke_sup.centers", "count", "count",
     "carleson.uniform_blaschke_sup.centers"),
    ("carleson.carleson_norm.s", "s", "s", "carleson.carleson_norm"),
    ("analysis.self_s", "s", "self", "analysis"),
    ("analysis.union_separation.s", "s", "s", "analysis.union_separation"),
    ("generators.self_s", "s", "self", "generators"),
    ("disk.self_s", "s", "self", "disk"),
    ("disk.psh_distance.calls", "count", "calls", "disk.psh_distance"),
    ("disk.zs_builds", "count", "calls", "disk.FiniteSequence.zs"),
    ("io.self_s", "s", "self", "io"),
    ("io.bytes_written", "B", "count", "io.bytes_written"),
    ("cli.self_s", "s", "self", "cli"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR",
                    help="internal: set up once in DIR and exit (timed by the parent)")
    return ap.parse_args(argv)


def load_program():
    """Import the checkout's blaschke_lab and the workload definitions."""
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import blaschke_lab

    if not Path(blaschke_lab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"blaschke_lab imported from {blaschke_lab.__file__}, not {SRC}")
    import workloads

    return workloads


def setup_once(workloads, name, seed, work: Path):
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, work)
    try:
        wl.warmup()
    except Exception:  # the batch's own checks report a broken program
        traceback.print_exc()
    settle_allocator()
    return wl


def settle_allocator() -> None:
    """Allocate and free one 16 MiB array (left untouched, so not resident).

    glibc raises its mmap threshold to the size of the largest mmapped block
    freed so far.  Until a long run has freed a large array, every big numpy
    temporary is mmapped and page-faulted afresh, so the first batch took
    over twice the page faults of later ones and read about 10% slower.
    """
    import numpy

    numpy.empty(1 << 21)


def time_setups(args, work: Path) -> list:
    """Wall time of SETUP_REPEATS fresh processes that each set up once."""
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(work / f"setup{i}")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              env={**os.environ, **PINNED_ENV}, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr.decode()}")
    return times


def run_batch(ops) -> tuple:
    """(timed seconds, failed operation count) for one pass over the ops."""
    clock = time.perf_counter
    total = 0.0
    failed = 0
    for op in ops:
        for p in op.outputs:
            for f in (p.parent.glob(p.name) if "*" in p.name else [p]):
                f.unlink(missing_ok=True)
        undo = op.hook() if op.hook else None
        error = None
        t0 = clock()
        try:
            result = op.run()
        except Exception as exc:  # one failing call must not end the run
            error = exc
        total += clock() - t0
        if undo:
            undo()
        if error is not None:
            problems = ["".join(traceback.format_exception(error)).rstrip()]
        else:
            try:
                problems = op.check(result)
            except Exception as exc:  # an output the check cannot read is wrong
                problems = [f"check raised {exc!r}"]
        if problems:
            failed += 1
            print(f"FAILED {op.name}: " + "; ".join(problems), file=sys.stderr)
    return total, failed


def layer_metrics(tracer) -> dict:
    out = {}
    for name, _, kind, src in PER_LAYER:
        if kind == "self":
            out[name] = tracer.module_self(src)
        elif kind == "s":
            out[name] = tracer.total.get(src, 0.0)
        elif kind == "calls":
            out[name] = tracer.calls.get(src, 0)
        elif kind == "count":
            out[name] = tracer.counts.get(src, 0)
    busy = (tracer.self_time.get("blaschke.evaluate", 0.0)
            + tracer.self_time.get("blaschke.log_abs_evaluate", 0.0))
    out["blaschke.factor_evals_per_s"] = out["blaschke.factor_evals"] / busy if busy else 0.0
    return out


def environment(args, wl) -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "BLASCHKE_LAB_THREADS": os.environ.get("BLASCHKE_LAB_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": hashlib.sha256(b"".join(
            p.read_bytes() for p in sorted((SRC / "blaschke_lab").rglob("*.py")))).hexdigest(),
        "cases": wl.describe(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blaschke_lab" / "cli.py").is_file():
        print(f"bench: no program sources at {SRC}", file=sys.stderr)
        return 2
    workloads = load_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup_once(workloads, args.workload, args.seed, Path(args.setup_only))
        return 0

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        setup_times = time_setups(args, work) if args.trace == 0 else []
        wl = setup_once(workloads, args.workload, args.seed, work / "run")
        ctx = workloads.Context()
        ops = wl.ops(ctx)
        from tracer import Tracer

        plain, traced, layers = [], [], []
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            dt, bad = run_batch(ops)
            plain.append(dt)
            attempted += len(ops)
            failed += bad
            if args.trace:
                tracer = Tracer()
                undo = tracer.install()
                try:
                    dt, bad = run_batch(ops)
                finally:
                    undo()
                traced.append(dt)
                layers.append(layer_metrics(tracer))
                attempted += len(ops)
                failed += bad
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 1 / len(plain)) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    if args.trace:
        metrics = {name: (statistics.median_low(l[name] for l in layers), unit)
                   for name, unit, _, _ in PER_LAYER}
        metrics["trace_overhead_frac"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    else:
        worst = max(ctx.rel_errors, default=math.inf)
        digits = 16.0 if worst == 0 else min(16.0, max(0.0, -math.log10(worst)))
        values = {
            "batch_s": statistics.median(plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy_digits": digits,
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}

    print("# env " + json.dumps(environment(args, wl)))
    print(f"# batches {len(plain)}; batch times " + " ".join(f"{t:.4f}" for t in plain)
          + (" ; traced " + " ".join(f"{t:.4f}" for t in traced) if traced else ""))
    print(f"# failed_frac = {failed / attempted!r} ({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
