"""Run one isolab benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep-cert --seed 1 --seconds 15 --trace 0

Inputs are generated from ``--seed``; the package is imported from ``src/``
of the checkout this file sits in and is driven through its public
functions only.  Passes of the workload repeat until ``--seconds`` have
elapsed; every case of every pass is checked against the paper's claims.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics named in ``BENCHMARK.json`` (``setup_s``, ``wall_s``,
``peak_rss_mb``).  The two times are scaled by the machine's speed while
they were measured, as a reference kernel gives it (``speed.py``); the
process and its set-up processes stay on one CPU.  With ``--trace 1`` traced and untraced passes alternate
and the object carries the per-layer metrics instead, including
``trace.overhead_frac``.  The line before it (``detail {...}``) holds the
sample counts, the measured and scaled times, ``fail_frac``, the
``check.*`` residual diagnostics, absent
trace targets and the environment.  A traced run also writes every span to
``.bench_spans/<workload>-<seed>.npz`` at exit.  The
process exits with code 2, printing no result, when the package cannot be
imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: fresh processes timed from start through set-up, half of them before the
#: measured passes and half after, so that a slow spell of a shared machine
#: does not hit them all; setup_s is their median
SETUP_REPS = 12
#: one BLAS thread: steadier than nproc threads on a shared machine, where
#: spinning BLAS threads that lose their core stall whole passes
BLAS_THREADS = "1"
#: reference kernel runs on each side of a set-up process
SPEED_RUNS = 5


def load_isolab():
    """Import the package from this checkout's ``src/``, never elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import isolab
    except ImportError as exc:
        print(f"bench: cannot import isolab from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if not Path(isolab.__file__).resolve().is_relative_to(src):
        print(f"bench: isolab resolved outside {src}: {isolab.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return isolab


def environment(seed: int) -> dict:
    """Interpreter, NumPy, BLAS and CPU of this run."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "cpus_used": len(os.sched_getaffinity(0)),
            "cpu": cpu, "seed": seed}


def setup_seconds(args, reference) -> tuple:
    """Set-up time of SETUP_REPS / 2 fresh processes doing import plus set-up.

    The clock starts here, just before each process is started, and stops in
    the child right after the workload's set-up; the child's clean-up and
    interpreter teardown are not counted.  Returns the measured times and
    the same times scaled by the mean speed of the reference kernel, which
    runs SPEED_RUNS times right before and right after each process.
    """
    times, scaled = [], []
    before = reference.speed(SPEED_RUNS)
    for _ in range(SETUP_REPS // 2):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", args.workload, "--seed", str(args.seed),
                               "--seconds", "0", "--trace", "0",
                               "--setup-only", repr(time.monotonic())],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up process exited with code "
                             f"{proc.returncode}:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
        after = reference.speed(SPEED_RUNS)
        scaled.append(times[-1] * statistics.fmean(before + after))
        before = after
    return times, scaled


def _median_metrics(samples: list) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def measure(args, setup, run_pass, tally, workdir, reference) -> dict:
    """Set up once, then time passes until the window has elapsed.

    The first pass also fills allocator arenas and caches and is often the
    slowest; the median over the three or more passes of a window drops it.
    Untraced, the reference kernel samples the machine's speed while the
    passes run (see speed.py), and each pass is also reported scaled by it;
    traced, no kernel runs, so that it adds nothing to the spans.
    """
    import layers
    import speed
    from tracer import Tracer

    tracer = Tracer() if args.trace else None

    def traced_segment(fn):
        """Run fn with tracing on; return the segment's per-layer metrics."""
        lo, counters, spaces = len(tracer.start), dict(tracer.counters), len(tracer.records)
        tracer.install("isolab", layers.TARGETS)
        try:
            result = fn()
        finally:
            tracer.uninstall()
        delta = {k: v - counters.get(k, 0.0) for k, v in tracer.counters.items()}
        return result, (lo, len(tracer.start), delta, tracer.records[spaces:])

    if tracer is not None:
        tally.on_case = lambda case: setattr(tracer, "case_id", case)
        state, setup_segment = traced_segment(lambda: setup(args.seed, workdir))
    else:
        state = setup(args.seed, workdir)

    walls = {False: [], True: []}
    scaled = []
    segments = []
    window = time.perf_counter()
    sampler = speed.Sampler(reference) if tracer is None else None
    with sampler or contextlib.nullcontext():
        while True:
            traced = tracer is not None and len(walls[False]) > len(walls[True])
            if sampler is not None:
                wall, wall_scaled = sampler.timed(lambda: run_pass(state, tally))
                scaled.append(wall_scaled)
            else:
                start = time.perf_counter()
                if traced:
                    _, segment = traced_segment(lambda: run_pass(state, tally))
                    segments.append(segment)
                else:
                    run_pass(state, tally)
                wall = time.perf_counter() - start
            walls[traced].append(wall)
            if time.perf_counter() - window >= args.seconds and (
                    tracer is None or walls[True]):
                break

    out = {"walls": walls[False], "scaled_walls": scaled, "traced_walls": walls[True],
           "speed_samples": len(sampler.speeds) if sampler else 0}
    if tracer is not None:
        spans = tracer.arrays()
        per_pass = [layers.layer_metrics(tracer.names, spans, *seg) for seg in segments]
        once = layers.layer_metrics(tracer.names, spans, *setup_segment)
        out["per_layer"] = layers.combine(once, _median_metrics(per_pass))
        out["per_layer"]["trace.overhead_frac"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0)
        out["absent"] = sorted(tracer.absent)
        spans_path = ROOT / ".bench_spans" / f"{args.workload}-{args.seed}.npz"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(str(spans_path))
        out["spans_file"] = str(spans_path.relative_to(ROOT))  # from the checkout root
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # the parent's time.monotonic() at process start; set up, print elapsed, exit
    parser.add_argument("--setup-only", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # this process and the set-up processes it starts stay on one CPU, so
    # that the reference kernel runs on the CPU whose speed it stands for
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS  # read when numpy loads
    os.environ["OMP_NUM_THREADS"] = BLAS_THREADS
    load_isolab()
    import speed
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    setup, run_pass = workloads.WORKLOADS[args.workload]

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only is not None:
            setup(args.seed, str(workdir))
            print(repr(time.monotonic() - args.setup_only))
            return 0
        reference = speed.Reference(workloads.SPEED_KERNEL[args.workload])
        setup_times, setup_scaled = [], []
        if not args.trace:
            setup_times, setup_scaled = setup_seconds(args, reference)
        tally = workloads.Tally()
        result = measure(args, setup, run_pass, tally, str(workdir), reference)
        if not args.trace:
            more_times, more_scaled = setup_seconds(args, reference)
            setup_times += more_times
            setup_scaled += more_scaled
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    walls = result["walls"]
    if args.trace:
        listed, source = spec["per_layer"], result["per_layer"]
    else:
        listed, source = spec["end_to_end"], {
            "setup_s": statistics.median(setup_scaled),
            "wall_s": statistics.median(result["scaled_walls"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in listed}

    detail = {"workload": args.workload, "passes": len(walls),
              "traced_passes": len(result["traced_walls"]),
              "walls_s": walls, "scaled_walls_s": result["scaled_walls"],
              "traced_walls_s": result["traced_walls"],
              "setup_samples_s": setup_times, "scaled_setup_samples_s": setup_scaled,
              "reference": {"kernel": reference.kind, "ref_s": speed.REF_S[reference.kind],
                            "interval_s": speed.INTERVAL_S,
                            "samples": result["speed_samples"]},
              "fail_frac": tally.fail_frac,
              "failures": tally.failures[:5], "residuals": tally.residuals,
              "absent": result.get("absent", []),
              "spans_file": result.get("spans_file"), "env": environment(args.seed)}
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
