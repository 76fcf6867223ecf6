"""Repeat the benchmark over several seeds and summarize every metric.

    python3 bench/baseline.py

Runs `bench/run.py` with BENCHMARK.json's run length once per (seed,
workload): seeds 1..10 untraced and seeds 1..3 traced, cycling over the
workloads inside each seed so that drift in machine load touches all of
them alike.  For each metric and workload it reports the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread, the
interquartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json.  The summary is written to bench/baseline.json;
the markdown table it prints is meant to replace the baseline table of
ROADMAP.md.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUTPUT = os.path.join(BENCH_DIR, "baseline.json")
REPEATS = 10  # untraced runs per workload, seeds 1..10
TRACE_REPEATS = 3  # traced runs per workload, seeds 1..3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed the gate: {result}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def machine() -> dict:
    import numpy

    return {
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    runs: dict[tuple[str, int], list[dict]] = {}
    seeds = range(1, 1 + max(REPEATS, TRACE_REPEATS))
    for k, seed in enumerate(seeds):
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, count in ((0, REPEATS), (1, TRACE_REPEATS)):
                if k < count:
                    result = run_once(workload, seed, seconds, trace)
                    runs.setdefault((workload, trace), []).append(result)
                    print(f"# {workload} seed {seed} trace {trace}: done", file=sys.stderr)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {
        "command": spec["command"],
        "seconds": seconds,
        "repeats": REPEATS,
        "trace_repeats": TRACE_REPEATS,
        "seeds": list(seeds),
        **machine(),
        "workloads": {},
    }
    rows = []
    for (workload, trace), results in sorted(runs.items()):
        if len(results) < 2:
            continue
        metrics = {}
        for name in results[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            if name in bounds:
                s["bound"] = bounds[name]
            metrics[name] = s
            rows.append((workload, name, s))
        summary["workloads"].setdefault(workload, {}).update(metrics)

    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload, name, s in rows:
        bound = f"{s['bound']:.2f}" if "bound" in s else ""
        print(f"| {workload} | `{name}` ({s['unit']}) | {s['median']:.4g} | {s['q1']:.4g} "
              f"| {s['q3']:.4g} | {s['spread']:.3f} | {bound} |")
    with open(OUTPUT, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
