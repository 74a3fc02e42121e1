"""Run every workload, each in its own fresh process, one after another.

    python3 bench/all.py --seeds 1,2,3 --trace both --out results.json

For every workload in ``BENCHMARK.json`` and every seed this starts
``bench/run.py`` for ``run_seconds`` (untraced, traced or both), collects
its result line and detail line, and prints every metric by
name with its unit: the median over seeds, the quartiles, and the spread
(quartile distance over median) next to the bound ``BENCHMARK.json`` fixes.
``fail_frac`` is failed over attempted cases, summed over all runs.  The
collected runs, their summary and the environment are written as JSON to
``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    detail = next(json.loads(line[len("detail "):]) for line in reversed(lines)
                  if line.startswith("detail "))
    return {"seed": seed, "trace": trace, "result": json.loads(lines[-1]),
            "detail": detail}


def summarize(runs: list, spec: dict) -> dict:
    """Median, quartiles and spread of each metric over the runs."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (median, median, median))
        out[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"],
                     "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else None,
                     "bound": bounds.get(name), "n": len(values)}
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    out["fail_frac"] = {"unit": "ratio", "median": failed / attempted,
                        "failed": failed, "attempted": attempted}
    return out


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--out", default=None, help="write runs and summary as JSON")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)

    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        entry = report["workloads"][workload] = {}
        for trace in traces:
            runs = [run_one(workload, seed, seconds, trace) for seed in seeds]
            summary = summarize(runs, spec)
            entry["traced" if trace else "untraced"] = {"summary": summary, "runs": runs}
            report["env"] = runs[-1]["detail"]["env"]
            print(f"== {workload} ({'traced' if trace else 'untraced'}, "
                  f"{len(seeds)} seeds x {seconds:g} s)")
            for name, s in summary.items():
                if name == "fail_frac":
                    print(f"  {name:48s} {_fmt(s['median']):>12s} ratio "
                          f"({s['failed']}/{s['attempted']} cases)")
                    continue
                print(f"  {name:48s} {_fmt(s['median']):>12s} {s['unit']:6s} "
                      f"q1 {_fmt(s['q1'])} q3 {_fmt(s['q3'])} spread {_fmt(s['spread'])}"
                      + (f" bound {s['bound']}" if s["bound"] is not None else ""))
            sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
