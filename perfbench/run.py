"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. One process, one caller, a closed loop: the workload's inputs are
made from the seed and set up five times (``setup_s`` is the import time
plus the median set-up), then timed passes run back to back until the next
one would end after ``--seconds`` (at least one pass); ``wall_s`` is their
mean. Every pass's outputs are checked. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` adds one traced pass and reports the per-layer
metrics, with the tracing overhead (traced pass minus the mean untraced
pass). Human-readable lines come first; the last line of standard output is
one JSON object. Scratch files live under ``.bench_out/`` and are removed on
exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """At most one BLAS thread per available core; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    threads = cores
    for var in BLAS_VARS:
        if os.environ.get(var, "").isdigit() and int(os.environ[var]) > 0:
            threads = min(threads, int(os.environ[var]))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def timed_pass(wl, inputs, out: Path):
    """One timed pass: (seconds, outputs, problems); a crash is a problem."""
    out.mkdir(parents=True)
    gc.collect()  # every pass starts from the same heap, not the last pass's garbage
    t0 = time.perf_counter()
    try:
        outputs = wl.run(inputs, out)
    except Exception as exc:  # the benchmark reports a crash as a failed pass
        return time.perf_counter() - t0, None, [f"pass crashed: {exc!r}"]
    seconds = time.perf_counter() - t0
    try:
        problems = wl.check(inputs, outputs)
    except Exception as exc:
        problems = [f"output check crashed: {exc!r}"]
    return seconds, outputs, problems


def run_trace(wl, inputs, seed: int, work: Path, untraced_s: float, untraced_out) -> tuple[dict, tuple]:
    """Trace one pass after the untraced ones; returns (metrics, traced pass).

    ``untraced_s`` is the mean untraced pass, so the tracing overhead is the
    traced pass minus that mean.
    """
    from perfbench import layers
    from perfbench.trace import Tracer

    tracer = Tracer()
    originals = layers.install(tracer)
    try:
        tracer.run = 0
        (work / "traced-setup").mkdir()
        wl.setup(seed, wl.records, work / "traced-setup")
        tracer.run = 1
        traced_s, traced_out, problems = timed_pass(wl, inputs, work / "traced")
    finally:
        tracer.restore()
    problems += [f"wrapper not restored: {name}" for name in layers.unrestored(originals)]
    if untraced_out is not None and traced_out is not None and wl.fingerprint(untraced_out) != wl.fingerprint(traced_out):
        problems.append("traced outputs differ from untraced outputs")
    manifest = (untraced_out or {}).get("manifest", {})
    traced_manifest = (traced_out or {}).get("manifest", {})
    values = layers.layer_metrics(tracer, manifest, traced_manifest, traced_s - untraced_s)
    if traced_manifest:
        problems += layers.coverage_problems(layers.stage_coverage(tracer, traced_manifest), traced_manifest)
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    metrics = {name: (values[name], units[name], 1) for name, _, _ in layers.PER_LAYER}
    return metrics, (traced_s, problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blas_threads = cap_blas_threads()
    t0 = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import numpy

        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    work = ROOT / ".bench_out" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times, inputs = [], None
        for i in range(SETUP_REPEATS):
            (work / f"setup{i}").mkdir(parents=True)
            inputs = None
            gc.collect()
            t = time.perf_counter()
            inputs = wl.setup(args.seed, wl.records, work / f"setup{i}")
            setup_times.append(time.perf_counter() - t)

        # keep the first pass's outputs and every pass's fingerprint, so
        # memory does not grow with the number of passes
        passes, first_out, fingerprints = [], None, set()
        deadline = time.perf_counter() + args.seconds
        while True:
            seconds, outputs, problems = timed_pass(wl, inputs, work / f"pass{len(passes)}")
            passes.append((seconds, problems))
            if outputs is not None:
                fingerprints.add(wl.fingerprint(outputs))
                first_out = outputs if first_out is None else first_out
            del outputs
            if time.perf_counter() + seconds > deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if len(fingerprints) > 1:
            passes[-1][1].append(f"{len(fingerprints)} different outputs from {len(passes)} passes of one seed")
        if wl.verify is not None and first_out is not None:
            passes[0][1].extend(wl.verify(inputs, first_out))
        wall = [p[0] for p in passes]

        if args.trace:
            metrics, traced = run_trace(wl, inputs, args.seed, work, statistics.fmean(wall), first_out)
            passes.append(traced)
        else:
            # the mean pass, i.e. measured time over passes: a shared host can
            # switch between speed states lasting seconds to minutes, and a
            # median of passes jumps with whichever state held the majority
            wall_s = statistics.fmean(wall)
            metrics = {
                "setup_s": (import_s + statistics.median(setup_times), "s", SETUP_REPEATS),
                "wall_s": (wall_s, "s", len(wall)),
                "records_per_s": (wl.records / wall_s, "1/s", len(wall)),
                "peak_rss_mb": (peak_rss_mb, "MB", 1),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if (ROOT / ".bench_out").is_dir() and not any((ROOT / ".bench_out").iterdir()):
            (ROOT / ".bench_out").rmdir()

    attempted, failed = len(passes), sum(1 for p in passes if p[1])
    print(
        f"env nproc={os.cpu_count()} blas_threads={blas_threads} python={platform.python_version()} "
        f"numpy={numpy.__version__} workload={wl.name} records={wl.records} seed={args.seed} trace={args.trace}"
    )
    for p in passes:
        for problem in p[1]:
            print(f"problem: {problem}")
    print(f"passes attempted={attempted} failed={failed} error_rate={failed / attempted:.4f}")
    if wl.accuracy is not None and first_out is not None:
        print(f"best_test_accuracy {wl.accuracy(first_out):.4f} ratio (n=1)")
    print(f"pass seconds median={statistics.median(wall):.3f} max={max(wall):.3f}: "
          + " ".join(f"{w:.3f}" for w in wall))
    for name, (value, unit, n) in metrics.items():
        print(f"{name} {value:.6g} {unit} (n={n})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
