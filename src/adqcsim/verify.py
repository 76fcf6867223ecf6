"""Randomized verification campaigns for the fidelity oracle, the bound
inequalities, the relative-entropy machinery behind the two-qubit bound,
engineered bound-saturating registers, and the diagonal counterexample
family that defeats any entropy bound below 1.

Campaign samples are independent: sample i derives its random stream
from (campaign seed, i), so reports are reproducible and identical
whether samples run sequentially or on a thread pool.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import entropy, linalg, protocols, qcore, stateio
from .entropy import BoundDomainError, Density
from .protocols import ProtocolKind, ProtocolSpec
from .qcore import PureState

_SUPPORT_TOL = 1e-12

_ZZ = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
_MAX_MIXED_2Q = np.eye(4, dtype=complex) / 4.0


def relative_entropy(rho: np.ndarray | Density, sigma: np.ndarray | Density) -> float:
    """Tr(rho log2 rho) - Tr(rho log2 sigma); +inf when sigma's support
    misses part of rho's.  Either argument may be an entropy.Density."""
    rho = entropy.validate_density(rho)
    sigma = entropy.validate_density(sigma)
    if rho.matrix.shape != sigma.matrix.shape:
        raise ValueError("density matrices have different dimensions")
    tr_rho_log_rho = entropy._plogp(entropy._spectrum(rho))
    cross = 0.0
    for k in range(sigma.matrix.shape[0]):
        v = sigma.eigenvectors[:, k]
        w = float(np.vdot(v, rho.matrix @ v).real)
        if sigma.eigenvalues[k] < _SUPPORT_TOL:
            if w > _SUPPORT_TOL:
                return math.inf
            continue
        cross += w * math.log2(sigma.eigenvalues[k])
    return tr_rho_log_rho - cross


def dephasing_map(rho: np.ndarray | Density) -> np.ndarray:
    """Erase all off-diagonal elements of a two-qubit state in the
    computational basis; the diagonal (hence the trace) is copied verbatim."""
    rho = entropy.validate_density(rho, dims=(4,))
    return np.diag(np.diag(rho.matrix))


def check_monotonicity(rho: np.ndarray | Density, sigma: np.ndarray | Density) -> float:
    """Slack of relative-entropy monotonicity under dephasing:
    H(rho||sigma) - H(E(rho)||E(sigma)), which must be >= 0."""
    rho = entropy.validate_density(rho)
    sigma = entropy.validate_density(sigma)
    lhs = relative_entropy(rho, sigma)
    if math.isinf(lhs):
        return math.inf
    rhs = relative_entropy(dephasing_map(rho), dephasing_map(sigma))
    if math.isinf(rhs):
        return -math.inf
    return lhs - rhs


def check_interm(rho: np.ndarray | Density) -> float:
    """Slack of Tr(rho log2 rho) >= sum_ab rho_ab log2 rho_ab (diagonal)."""
    rho = entropy.validate_density(rho, dims=(4,))
    p = np.maximum(rho.eigenvalues, 0.0)
    d = np.maximum(np.diag(rho.matrix).real, 0.0)
    return entropy._plogp(p) - entropy._plogp(d)


def check_jonas(rho: np.ndarray | Density) -> float:
    """Slack of the two-qubit entropy bound g(|<ZZ>|) - S_v2(rho) >= 0."""
    rho = entropy.validate_density(rho, dims=(4,))
    czz = min(abs(entropy.correlator(rho.matrix, _ZZ)), 1.0)
    return entropy.g(czz) - entropy.von_neumann(rho)


def saturating_single_qubit_register(S: float, total_qubits: int) -> PureState:
    """Pure register whose qubit-0 reduction is diag((1+r)/2, (1-r)/2)
    with r = sqrt(1-S): qubit 1 purifies qubit 0, the rest sit in |0>.

    These registers meet the purity fidelity bound with equality.
    """
    if not -1e-12 <= S <= 1.0 + 1e-12:
        raise ValueError(f"S={S} outside [0, 1]")
    if not 2 <= total_qubits <= linalg.MAX_QUBITS:
        raise ValueError(f"total_qubits must be in [2, {linalg.MAX_QUBITS}]")
    r = math.sqrt(max(1.0 - min(max(S, 0.0), 1.0), 0.0))
    vec = np.zeros(2**total_qubits, dtype=complex)
    vec[0] = math.sqrt((1.0 + r) / 2.0)
    vec[3 * 2 ** (total_qubits - 2)] = math.sqrt((1.0 - r) / 2.0)  # |11> on (0, 1)
    return PureState(total_qubits, vec)


def bell_pair_register() -> PureState:
    """Four qubits with (0, 2) and (1, 3) in Bell pairs, so the reduction
    on the pair (0, 1) is maximally mixed."""
    vec = np.zeros(16, dtype=complex)
    for a in range(2):
        for b in range(2):
            vec[a * 10 + b * 5] = 0.5  # q0=q2=a, q1=q3=b
    return PureState(4, vec)


def rho_lambda(lam: float) -> np.ndarray:
    """The diagonal family lam |00><00| + (1-lam) |11><11|."""
    if not -1e-12 <= lam <= 1.0 + 1e-12:
        raise ValueError(f"lambda={lam} outside [0, 1]")
    lam = min(max(float(lam), 0.0), 1.0)
    return np.diag([lam, 0.0, 0.0, 1.0 - lam]).astype(complex)


def purified_rho_lambda(lam: float) -> PureState:
    """Four-qubit purification of rho_lambda on the pair (0, 1)."""
    if not -1e-12 <= lam <= 1.0 + 1e-12:
        raise ValueError(f"lambda={lam} outside [0, 1]")
    lam = min(max(float(lam), 0.0), 1.0)
    vec = np.zeros(16, dtype=complex)
    vec[0b0000] = math.sqrt(lam)
    vec[0b1111] = math.sqrt(1.0 - lam)
    return PureState(4, vec)


def _random_density_with_purification(n_qubits: int, seed) -> tuple[np.ndarray, PureState]:
    psi = qcore.random_pure_state(2 * n_qubits, seed)
    rho = linalg.partial_trace(psi.amplitudes, list(range(n_qubits)))
    return rho, psi


def random_density_matrix(n_qubits: int, seed) -> np.ndarray:
    """Full-rank random density matrix: partial trace over an equal-size
    environment of a Haar-random pure state (deterministic per seed)."""
    if not 1 <= n_qubits <= 3:
        raise ValueError("n_qubits must be in [1, 3]")
    rho, _ = _random_density_with_purification(n_qubits, seed)
    return rho


# --------------------------------------------------------------------------
# campaigns

_EPSILON_GRID = tuple(float(x) for x in np.arange(0.0, np.pi, 0.1)) + (float(np.pi),)
_DELTA_GRID = (0.0, 0.7, 2.3)
_SATURATION_EPSILONS = (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, float(np.pi))
_SATURATION_S = (0.0, 0.25, 0.5, 0.75, 1.0)

_ALL_KINDS = tuple(ProtocolKind)


@dataclass
class CampaignConfig:
    name: str
    samples: int
    seed: int
    epsilon_grid: tuple[float, ...]
    delta_grid: tuple[float, ...]
    register_sizes: tuple[int, ...]
    tolerance: float

    def __post_init__(self):
        self.epsilon_grid = tuple(float(x) for x in self.epsilon_grid)
        self.delta_grid = tuple(float(x) for x in self.delta_grid)
        self.register_sizes = tuple(int(x) for x in self.register_sizes)
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass
class CampaignReport:
    config: CampaignConfig
    checks_run: int
    max_violation: float
    worst_case: dict | None
    passed: bool
    stats: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "campaign": self.config.name,
            "seed": self.config.seed,
            "samples": self.config.samples,
            "tolerance": self.config.tolerance,
            "checks_run": self.checks_run,
            # JSON has no NaN or infinity; a non-finite value goes by name
            "max_violation": self.max_violation
            if math.isfinite(self.max_violation) else repr(self.max_violation),
            "worst_case": self.worst_case,
            "passed": self.passed,
            "stats": self.stats,
        }


@dataclass
class _Sample:
    violation: float | None  # None means filtered out (not a check)
    payload: Callable[[], dict] | None = None  # built for a failing worst case only
    stats: dict | None = None


def _protocol_payload(index: int, state: PureState, spec: ProtocolSpec) -> dict:
    return {
        "sample_index": index,
        "input_state": stateio.dumps_state(state),
        "protocol": spec.kind.value,
        "targets": list(spec.targets),
        "u": spec.u,
        "epsilon": spec.epsilon,
        "delta": spec.delta,
    }


def _density_payload(index: int, purification: PureState, n_keep: int) -> dict:
    return {
        "sample_index": index,
        "purification": stateio.dumps_state(purification),
        "keep_qubits": list(range(n_keep)),
    }


def _draw_protocol(cfg: CampaignConfig, rng, kinds) -> tuple[int, ProtocolSpec]:
    kind = kinds[int(rng.integers(len(kinds)))]
    n = int(cfg.register_sizes[int(rng.integers(len(cfg.register_sizes)))])
    if kind in protocols.ROTATION_KINDS:
        targets = (int(rng.integers(n)),)
        u = float(rng.uniform(0.0, 2.0 * np.pi))
    else:
        n = max(n, 2)
        perm = rng.permutation(n)
        targets = (int(perm[0]), int(perm[1]))
        u = None
    eps = float(cfg.epsilon_grid[int(rng.integers(len(cfg.epsilon_grid)))])
    delta = float(cfg.delta_grid[int(rng.integers(len(cfg.delta_grid)))])
    return n, ProtocolSpec(kind, targets, u=u, epsilon=eps, delta=delta)


def _sample_equality(cfg: CampaignConfig, i: int) -> _Sample:
    rng = np.random.default_rng([cfg.seed, i])
    n, spec = _draw_protocol(cfg, rng, _ALL_KINDS)
    psi = qcore.random_pure_state(n, [cfg.seed, i, 1])
    rep = protocols.analyze(psi, spec)
    return _Sample(
        violation=abs(rep.simulated_F - rep.closed_form_F),
        payload=partial(_protocol_payload, i, psi, spec),
    )


def _sample_bound(cfg: CampaignConfig, i: int, bound_key: str, kinds) -> _Sample:
    rng = np.random.default_rng([cfg.seed, i])
    n, spec = _draw_protocol(cfg, rng, kinds)
    psi = qcore.random_pure_state(n, [cfg.seed, i, 1])
    rep = protocols.analyze(psi, spec)
    if bound_key not in rep.bounds:  # sv2 entropy below the bound's domain
        return _Sample(violation=None, stats={"filtered_below_domain": 1})
    stats = None
    if bound_key == "sv2_bound":
        stats = {"min_sv2": rep.entanglement.von_neumann}
    return _Sample(
        violation=rep.simulated_F - rep.bounds[bound_key],
        payload=partial(_protocol_payload, i, psi, spec),
        stats=stats,
    )


def _sample_equivalence(cfg: CampaignConfig, i: int) -> _Sample:
    rng = np.random.default_rng([cfg.seed, i])
    n = int(cfg.register_sizes[int(rng.integers(len(cfg.register_sizes)))])
    psi = qcore.random_pure_state(n, [cfg.seed, i, 1])
    t = int(rng.integers(n))
    u = float(rng.uniform(0.0, 2.0 * np.pi))
    eps = float(rng.uniform(0.0, np.pi))
    delta = float(rng.uniform(0.0, 2.0 * np.pi))
    runs = [
        protocols.run_protocol(
            psi, ProtocolSpec(kind, (t,), u=u, epsilon=eps, delta=delta)
        )
        for kind in protocols.ROTATION_KINDS
    ]
    worst = 0.0
    for a in range(len(runs)):
        for b in range(a + 1, len(runs)):
            for j in range(2):
                worst = max(
                    worst,
                    qcore.phase_aligned_max_diff(
                        runs[a].inaccurate_branches[j], runs[b].inaccurate_branches[j]
                    ),
                )
    spec = ProtocolSpec(protocols.ROTATION_KINDS[0], (t,), u=u, epsilon=eps, delta=delta)
    return _Sample(violation=worst, payload=partial(_protocol_payload, i, psi, spec))


def _sample_jonas(cfg: CampaignConfig, i: int) -> _Sample:
    rho, pur = _random_density_with_purification(2, [cfg.seed, i])
    return _Sample(violation=-check_jonas(rho), payload=partial(_density_payload, i, pur, 2))


def _sample_interm(cfg: CampaignConfig, i: int) -> _Sample:
    rho, pur = _random_density_with_purification(2, [cfg.seed, i])
    return _Sample(violation=-check_interm(rho), payload=partial(_density_payload, i, pur, 2))


def _sample_monotonicity(cfg: CampaignConfig, i: int) -> _Sample:
    # sigma fixed to the maximally mixed state (as in the proof of the
    # two-qubit bound), plus a random full-rank sigma as a bonus check.
    rho, pur = _random_density_with_purification(2, [cfg.seed, i])
    rho = entropy.validate_density(rho)  # one solve serves both checks
    sigma = random_density_matrix(2, [cfg.seed, i, 7])
    violation = max(-check_monotonicity(rho, _MAX_MIXED_2Q), -check_monotonicity(rho, sigma))
    return _Sample(
        violation=violation,
        payload=partial(_density_payload, i, pur, 2),
        stats={"random_sigma_checks": 1},
    )


def _saturation_items(cfg: CampaignConfig) -> int:
    per_rep = len(_SATURATION_S) * len(cfg.epsilon_grid) + len(cfg.epsilon_grid)
    return cfg.samples * per_rep


def _sample_saturation(cfg: CampaignConfig, i: int) -> _Sample:
    rng = np.random.default_rng([cfg.seed, i])
    n_eps = len(cfg.epsilon_grid)
    per_rep = len(_SATURATION_S) * n_eps + n_eps
    j = i % per_rep
    if j < len(_SATURATION_S) * n_eps:
        s_val = _SATURATION_S[j // n_eps]
        eps = cfg.epsilon_grid[j % n_eps]
        kind = protocols.ROTATION_KINDS[i % len(protocols.ROTATION_KINDS)]
        psi = saturating_single_qubit_register(s_val, 2)
        spec = ProtocolSpec(
            kind, (0,), u=float(rng.uniform(0.0, 2.0 * np.pi)), epsilon=eps,
            delta=float(rng.uniform(0.0, 2.0 * np.pi)),
        )
        rep = protocols.analyze(psi, spec)
        violation = abs(rep.simulated_F - rep.bounds["purity_bound"])
    else:
        eps = cfg.epsilon_grid[j - len(_SATURATION_S) * n_eps]
        psi = bell_pair_register()
        spec = ProtocolSpec(
            ProtocolKind.ADQC_CZSWAP_GATE, (0, 1), epsilon=eps,
            delta=float(rng.uniform(0.0, 2.0 * np.pi)),
        )
        rep = protocols.analyze(psi, spec)
        violation = abs(rep.simulated_F - rep.bounds["sv2_bound"])
    return _Sample(violation=violation, payload=partial(_protocol_payload, i, psi, spec))


def _sample_counterexample(cfg: CampaignConfig, i: int) -> _Sample:
    lam_grid = np.linspace(0.0, 1.0, max(cfg.samples, 2))
    lam = float(lam_grid[i])
    rho = rho_lambda(lam)
    czz = entropy.correlator(rho, _ZZ)
    violation = abs(czz - 1.0)  # exactly 0: the correlator is blind to lam
    sv2 = entropy.von_neumann(rho)
    if sv2 < 1.0 - 1e-9:
        try:
            protocols.bound_sv2(sv2, np.pi / 2)
        except BoundDomainError:
            pass
        else:
            violation = max(violation, 1.0)  # the domain restriction must hold
    return _Sample(
        violation=violation,
        payload=lambda: _density_payload(i, purified_rho_lambda(lam), 2),
        stats={"min_sv2": sv2, "max_sv2": sv2},
    )


@dataclass
class _Campaign:
    item_count: Callable[[CampaignConfig], int]
    sample: Callable[[CampaignConfig, int], _Sample]
    defaults: dict


def _by_samples(cfg: CampaignConfig) -> int:
    return cfg.samples


_CAMPAIGNS: dict[str, _Campaign] = {
    "equality_oracle": _Campaign(
        _by_samples, _sample_equality, dict(samples=1000, tolerance=1e-10)
    ),
    "bound_main": _Campaign(
        _by_samples,
        lambda cfg, i: _sample_bound(cfg, i, "purity_bound", protocols.X_ERROR_KINDS),
        dict(samples=1000, tolerance=1e-9),
    ),
    "bound_sv": _Campaign(
        _by_samples,
        lambda cfg, i: _sample_bound(cfg, i, "sv_bound", protocols.X_ERROR_KINDS),
        dict(samples=1000, tolerance=1e-9),
    ),
    "bound_main2": _Campaign(
        _by_samples,
        lambda cfg, i: _sample_bound(
            cfg, i, "sv2_bound", (ProtocolKind.ADQC_CZSWAP_GATE,)
        ),
        dict(samples=1000, tolerance=1e-9, register_sizes=(4, 5)),
    ),
    "circuit_equivalence": _Campaign(
        _by_samples,
        _sample_equivalence,
        dict(samples=200, tolerance=1e-12, register_sizes=(1, 2, 3, 4, 5)),
    ),
    "jonas": _Campaign(_by_samples, _sample_jonas, dict(samples=1000, tolerance=1e-9)),
    "monotonicity": _Campaign(
        _by_samples, _sample_monotonicity, dict(samples=1000, tolerance=1e-9)
    ),
    "interm": _Campaign(_by_samples, _sample_interm, dict(samples=1000, tolerance=1e-9)),
    "saturation": _Campaign(
        _saturation_items,
        _sample_saturation,
        dict(samples=1, tolerance=1e-9, epsilon_grid=_SATURATION_EPSILONS),
    ),
    "counterexample": _Campaign(
        _by_samples, _sample_counterexample, dict(samples=21, tolerance=1e-15)
    ),
}

CAMPAIGN_NAMES = tuple(sorted(_CAMPAIGNS))


def default_config(
    name: str,
    samples: int | None = None,
    seed: int = 42,
    tolerance: float | None = None,
) -> CampaignConfig:
    """Campaign config with per-campaign defaults filled in."""
    if name not in _CAMPAIGNS:
        raise ValueError(f"unknown campaign {name!r}; known: {', '.join(CAMPAIGN_NAMES)}")
    d = _CAMPAIGNS[name].defaults
    return CampaignConfig(
        name=name,
        samples=d["samples"] if samples is None else int(samples),
        seed=int(seed),
        epsilon_grid=d.get("epsilon_grid", _EPSILON_GRID),
        delta_grid=d.get("delta_grid", _DELTA_GRID),
        register_sizes=d.get("register_sizes", (2, 3, 4, 5)),
        tolerance=d["tolerance"] if tolerance is None else float(tolerance),
    )


def _merge_stats(total: dict, update: dict | None) -> None:
    if not update:
        return
    for key, val in update.items():
        if key.startswith("min_"):
            total[key] = min(total.get(key, math.inf), val)
        elif key.startswith("max_"):
            total[key] = max(total.get(key, -math.inf), val)
        else:
            total[key] = total.get(key, 0) + val


def run_campaign(config: CampaignConfig, threads: int = 1) -> CampaignReport:
    """Run one named campaign; the report is deterministic per config and
    independent of the thread count."""
    if config.name not in _CAMPAIGNS:
        raise ValueError(
            f"unknown campaign {config.name!r}; known: {', '.join(CAMPAIGN_NAMES)}"
        )
    campaign = _CAMPAIGNS[config.name]
    count = campaign.item_count(config)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            samples = list(pool.map(lambda i: campaign.sample(config, i), range(count)))
    else:
        samples = [campaign.sample(config, i) for i in range(count)]
    checks_run = 0
    max_violation = -math.inf
    worst: Callable[[], dict] | None = None
    stats: dict = {}
    non_finite = False
    for s in samples:  # index order fixes the argmax tie-break
        _merge_stats(stats, s.stats)
        if s.violation is None:
            continue
        checks_run += 1
        if non_finite:
            continue
        if not math.isfinite(s.violation):
            # fails closed: NaN compares false against any running max, so
            # the first non-finite check is the worst case and a failure
            non_finite = True
            max_violation = s.violation
            worst = s.payload
        elif s.violation > max_violation:
            max_violation = s.violation
            worst = s.payload
    if checks_run == 0:
        max_violation = 0.0
    passed = not non_finite and max_violation <= config.tolerance
    if config.name == "counterexample":
        stats["note"] = (
            "pair correlator is 1 for the whole family while its entropy "
            "sweeps [0, 1]: no entropy bound below 1 constrains the fidelity"
        )
    return CampaignReport(
        config=config,
        checks_run=checks_run,
        max_violation=max_violation,
        worst_case=worst() if not passed else None,
        passed=passed,
        stats=stats,
    )
