"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

It is not part of the package's test suite (pytest's testpaths is tests/).
It checks that every metric BENCHMARK.json names is emitted, with its unit,
for every workload in both modes, and that the tracer sees the calls made
inside and between layers, by reproducing the eigensolve counts of the
campaigns at this commit.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

from adqcsim import linalg, verify  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))

# Eigensolves per check of each campaign at this commit.  A change that
# solves fewer matrices (one spectrum per density matrix) lowers these
# numbers on purpose and updates them here with its measured counts.
SEED_EIGENSOLVES_PER_CHECK = {"monotonicity": 20, "bound_sv": 4}


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), name
        if not trace:
            assert v["value"] > 0, name


def test_fails_without_the_program():
    stripped = os.path.join(ROOT, ".bench_out", "stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(stripped, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
    try:
        proc = bench("--workload", "quick", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=stripped)
    finally:
        shutil.rmtree(stripped)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("campaign", sorted(SEED_EIGENSOLVES_PER_CHECK))
def test_tracer_sees_intra_module_calls(campaign):
    original = linalg.jacobi_eigh
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_request(0)
        report = verify.run_campaign(verify.default_config(campaign, samples=4, seed=5))
    finally:
        tracer.uninstall()
    assert linalg.jacobi_eigh is original
    assert report.passed and report.checks_run == 4
    metrics = tracer.metrics(wall_s=tracer.root_time(), checks=report.checks_run,
                             items=report.checks_run)
    assert metrics["linalg.eigh.per_check"] == SEED_EIGENSOLVES_PER_CHECK[campaign]
    # self times partition the root spans: nothing is lost or counted twice
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS if layer != "cli")
    assert self_sum == pytest.approx(tracer.root_time(), rel=1e-9)
    assert metrics["verify.self_s"] > 0 and metrics["linalg.self_s"] > 0
    assert metrics["trace.unattributed_s"] == pytest.approx(0.0, abs=1e-9)
