"""Campaign benchmark for adqcsim.

    python3 bench/run.py --workload appendix --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) through the public campaign API,
`verify.default_config`, `verify.CampaignConfig` and `verify.run_campaign`,
in fresh single-threaded interpreters, and gates every report.  The last
line of output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.

--trace 0 reports the end-to-end metrics from one untraced process.
--trace 1 reports the per-layer metrics: an untraced process and a traced
one each run for half the time.  The spans of the traced one are written
to .bench_out/spans-<workload>.npz, which keeps the latest run only.
End-to-end numbers never come from a traced run.

Set-up time is also measured in extra processes that only set up, before
and after the measured run, so that it is steady; see README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH_DIR, "worker.py")

sys.path.insert(0, BENCH_DIR)
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)  # names and units of the metrics

# Processes that only set up, half of them before the measured run(s) and
# half after, so that they sample the machine at both ends of the run.
# Set-up and import times are the lower quartiles over these and the
# measured processes: the host's slow spells last seconds, and the median
# of processes started within one such spell moved by 30 % between runs.
SETUP_REPEATS = 10
# A workload process may overrun its measured time by the last request,
# the re-check and its own set-up.
SPAWN_GRACE_S = 60


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def spawn(workload: str, seed: int, seconds: float, *flags: str) -> dict:
    """Run one workload process and return the JSON object it printed."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=SRC,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), *flags, "--spawned-at"]
    cmd.append(repr(time.monotonic()))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=seconds + SPAWN_GRACE_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process for {workload} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def quantile90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    # inclusive: with few requests the default method extrapolates past the maximum
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def lower_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def nominal_checks_per_s(run: dict) -> float:
    return run["checks"] / (sum(run["nominal_ms"]) / 1e3)


def overhead_frac(traced: dict, plain: dict) -> float:
    untraced = nominal_checks_per_s(plain)
    return 1.0 - nominal_checks_per_s(traced) / untraced if untraced else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[dict]]:
    """Metric values, and the measured runs they came from."""
    def setups():
        return [spawn(workload, seed, seconds, "--setup-only")
                for _ in range(SETUP_REPEATS // 2)]

    before = setups()
    if not trace:
        run = spawn(workload, seed, seconds)
        procs = [*before, run, *setups()]
        durations = run["nominal_ms"]
        values = {
            "checks_per_s": nominal_checks_per_s(run),
            "request_ms.p50": statistics.median(durations),
            "request_ms.p90": quantile90(durations),
            "peak_rss_mb": run["peak_rss_mb"],
            "setup_s": lower_quartile([p["setup_s"] for p in procs]),
        }
        return values, [run]
    plain = spawn(workload, seed, seconds / 2)
    traced = spawn(workload, seed, seconds / 2, "--trace")
    procs = [*before, plain, traced, *setups()]
    values = dict(traced["trace"])
    values["cli.import_s"] = lower_quartile([p["import_s"] for p in procs])
    values["trace.overhead_frac"] = overhead_frac(traced, plain)
    return values, [plain, traced]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "adqcsim", "__init__.py")):
        print(f"no adqcsim sources under {SRC}", file=sys.stderr)
        return 2
    try:
        values, runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    attempted = sum(r["requests"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        n = r["requests"]
        print(f"# {args.workload}: {n} requests, {n - int(0.9 * n)} beyond p90, "
              f"{r['checks']} checks in {r['wall_s']:.3f} s (raw {r['checks'] / r['wall_s']:.1f} "
              f"checks/s), failed_frac {r['failed'] / n:.4g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
