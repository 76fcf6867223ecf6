"""One workload process of the benchmark; `run.py` starts it.

Only the standard library is loaded before `import adqcsim`, so the
import time covers numpy and the whole package.  Set-up ends when the
request list is built, just before the first timed request.  The process
then runs a closed loop of `verify.run_campaign` calls until the time is
up, gates every report, re-issues the first request to check that it
reproduces, and prints one JSON object as its last line of output.
Times are reported raw and at nominal machine speed (reference.py).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")  # spans of the latest traced run per workload

# fields of a report that must be identical when a request is re-issued
DETERMINISTIC_FIELDS = (
    "campaign", "seed", "samples", "checks_run", "max_violation", "passed", "worst_case",
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() in the parent just before the spawn")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true",
                   help="trace the run and write its spans to .bench_out/spans-<workload>.npz")
    return p.parse_args(argv)


def verdict_ok(report, config) -> bool:
    """PASS, with a finite worst violation within the campaign tolerance."""
    mv = report.max_violation
    return bool(report.passed) and math.isfinite(mv) and mv <= config.tolerance


def deterministic_part(report) -> dict:
    d = report.to_json_dict()
    return {k: d[k] for k in DETERMINISTIC_FIELDS}


# The reference load runs between requests once this much request time
# has passed since it last ran (each request of the large workloads, each
# few requests of `quick`).
CALIBRATE_EVERY_S = 0.1


def run_loop(verify, specs, cycle, seconds, tracer=None) -> dict:
    """Closed loop of whole request cycles for at least `seconds`.

    Each request's time is also reported at nominal machine speed, scaled
    by the mean of the reference times measured just before and just after
    it (reference.py).  The reference load runs outside the timed requests.
    """
    import reference  # numpy is loaded by now
    import workloads

    durations_s: list[float] = []
    calibration = [reference.reference_s()]
    calibrated_at: list[int] = []  # index into calibration, per request
    checks = items = failed = 0
    first = None
    deadline = time.perf_counter() + seconds
    since_calibration = calibrating_s = 0.0
    loop_start = time.perf_counter()
    i = 0
    while True:
        if since_calibration >= CALIBRATE_EVERY_S:
            c0 = time.perf_counter()
            calibration.append(reference.reference_s())
            calibrating_s += time.perf_counter() - c0
            since_calibration = 0.0
        config = workloads.make_config(specs[i % len(specs)], verify)
        if tracer is not None:
            tracer.begin_request(i)
        t0 = time.perf_counter()
        try:
            report = verify.run_campaign(config)
        except Exception:  # a request that raises is a failed request
            traceback.print_exc()
            report = None
        t1 = time.perf_counter()
        durations_s.append(t1 - t0)
        calibrated_at.append(len(calibration) - 1)
        since_calibration += t1 - t0
        if report is None or not verdict_ok(report, config):
            failed += 1
        else:
            checks += report.checks_run
            items += report.checks_run + int(report.stats.get("filtered_below_domain", 0))
        if i == 0:
            first = (config, report)
        i += 1
        if t1 >= deadline and i % cycle == 0:
            break
    loop_s = time.perf_counter() - loop_start - calibrating_s
    calibration.append(reference.reference_s())
    scales = [
        2.0 * reference.NOMINAL_S / (calibration[j] + calibration[j + 1])
        for j in calibrated_at
    ]
    return {
        "checks": checks,
        "items": items,
        "failed": failed,
        "wall_s": sum(durations_s),
        "loop_s": loop_s,
        "durations_ms": [d * 1e3 for d in durations_s],
        "nominal_ms": [d * s * 1e3 for d, s in zip(durations_s, scales)],
        "first": first,
    }


def reproduces(verify, config, report) -> bool:
    """Re-issue a request; the deterministic fields of its report must match."""
    try:
        again = verify.run_campaign(config)
    except Exception:
        traceback.print_exc()
        return False
    return deterministic_part(again) == deterministic_part(report)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    import adqcsim
    import_s = time.perf_counter() - t0
    loaded_from = os.path.dirname(os.path.dirname(os.path.realpath(adqcsim.__file__)))
    if loaded_from != os.path.realpath(SRC):
        print(f"adqcsim loaded from {adqcsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from adqcsim import verify

    import reference
    import workloads

    specs, cycle = workloads.build_requests(
        args.workload, args.seed, math.ceil(args.seconds), verify
    )
    setup_s = time.monotonic() - args.spawned_at
    # measured after set-up ends, to convert set-up times to nominal speed
    scale = reference.NOMINAL_S / reference.reference_s(repeats=5)
    out = {"import_s": import_s * scale, "setup_s": setup_s * scale}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        run = run_loop(verify, specs, cycle, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    config, report = run.pop("first")
    # a first request that already failed is counted once
    if report is not None and verdict_ok(report, config) and not reproduces(verify, config, report):
        run["failed"] += 1
    out.update(run)
    out["requests"] = len(run["durations_ms"])
    if tracer is not None:
        out["trace"] = tracer.metrics(run["loop_s"], run["checks"], run["items"])
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.save(os.path.join(OUT_DIR, f"spans-{args.workload}.npz"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
