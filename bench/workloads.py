"""The benchmark's workloads as cycles of campaign requests.

Each workload is a closed loop with one client: the next request is sent
when the previous report is back.  Every request gets a fresh campaign
seed drawn from the workload seed, so one workload seed fixes every input.

Request sizes give each campaign of `appendix` and `bounds` its own
request time at this commit, about 50, 100 and 200 ms at nominal speed.
The per-request median and p90 then fall inside one campaign's times,
not in the gap between two, where they would jump from run to run.
`wide` repeats its faster campaign in the cycle for the same reason.  A
20 s run held more than 100 requests on every workload, so more than 10
lie beyond p90, even while the baseline host ran at 57 % of nominal speed.

These requests of 25-93 samples are smaller than the 1000 samples that
criteria 06 and 08 and `adqcsim verify` use by default, so a gain from
batching over the samples of one request shows smaller here than there.
Requests of 1000 samples were tried on `appendix`: they last 2-10 s,
and the reference load between requests (reference.py) could not follow
the host's speed within them; checks/s spread 0.26 over five seeds.
"""
from __future__ import annotations

import itertools

import numpy as np

# workload -> cycle of (campaign, samples per request, register sizes);
# register sizes None keeps the campaign's default.
_LARGE = {
    # criterion 08: kernel-bound, pure-Python 4x4 Jacobi solves dominate
    "appendix": (("interm", 34, None), ("jonas", 37, None), ("monotonicity", 25, None)),
    # criterion 06: entropy reports and f/g inversions next to short protocols
    "bounds": (("bound_main", 54, None), ("bound_sv", 93, None), ("bound_main2", 66, None)),
    # largest registers (8 qubits with the ancilla): gates, branches, payloads
    "wide": (
        ("circuit_equivalence", 78, (5, 6, 7)),
        ("equality_oracle", 92, (6, 7)),
        ("circuit_equivalence", 78, (5, 6, 7)),
    ),
}
WORKLOADS = (*_LARGE, "quick")

# quick: `adqcsim verify --samples 5` on every campaign in turn;
# `saturation` counts whole sweeps of 30 items, so it gets one.  The
# slowest campaign, `monotonicity`, runs twice per cycle: with ten equal
# shares p90 would sit in the gap between the slowest campaign and the
# rest, and with eleven it falls inside `monotonicity`'s times.
_QUICK_SAMPLES = 5

# Request specs built per second of run; a loop that outruns the list
# starts it again (the repeated requests are valid and deterministic).
# Runs stop at the end of a cycle, so that every run has the same mix of
# campaigns and checks/s does not depend on where the time ran out.
_SPECS_PER_SECOND = 200


def _cycle(workload: str, verify) -> tuple:
    if workload == "quick":
        names = (*verify.CAMPAIGN_NAMES, "monotonicity")
        return tuple(
            (name, 1 if name == "saturation" else _QUICK_SAMPLES, None) for name in names
        )
    return _LARGE[workload]


def build_requests(workload: str, seed: int, seconds: int, verify) -> tuple[list[tuple], int]:
    """Request specs (campaign, samples, seed, register sizes) for a run,
    and the length of the workload's cycle; the list holds whole cycles."""
    cycle = _cycle(workload, verify)
    count = len(cycle) * max(1, _SPECS_PER_SECOND * seconds // len(cycle))
    seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=count).tolist()
    specs = [
        (name, samples, seeds[i], sizes)
        for i, (name, samples, sizes) in zip(range(count), itertools.cycle(cycle))
    ]
    return specs, len(cycle)


def make_config(spec: tuple, verify):
    """The campaign config of one request spec, via the public API."""
    name, samples, seed, sizes = spec
    config = verify.default_config(name, samples=samples, seed=seed)
    if sizes is None:
        return config
    return verify.CampaignConfig(
        name=name,
        samples=samples,
        seed=seed,
        epsilon_grid=config.epsilon_grid,
        delta_grid=config.delta_grid,
        register_sizes=sizes,
        tolerance=config.tolerance,
    )
