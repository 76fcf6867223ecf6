"""Randomized verification campaigns for the fidelity oracle, the bound
inequalities, the relative-entropy machinery behind the two-qubit bound,
engineered bound-saturating registers, and the diagonal counterexample
family that defeats any entropy bound below 1.

Every campaign has one shape: draw(cfg, indices) builds a chunk of
items, and evaluate(cfg, draws) turns the chunk, on stacks, into each
item's violation (None for a filtered item) and one stats dict.  A draw
seeds all its chunk's streams in one qcore._item_streams call and
builds its registers in one qcore.haar_states call per register size,
but item i still comes from its own streams alone: [seed, i], and
[seed, i, 1] for a protocol campaign's register or [seed, i, 7] for
monotonicity's random sigma.  run_campaign evaluates chunks of _CHUNK
items in index order and keeps only the worst index, which a failing
report draws again, alone, for its payload.  Reports thus do not depend
on the order of evaluation, the chunk size or the stack cap.

A protocol draw holds plain values, its register's amplitudes and its
invocation's fields, and takes an item's uniform angles from one
Stream.random call; a PureState and a ProtocolSpec are built only for a
failing report's worst case.  The protocol campaigns hand a chunk's
invocations to protocols._analyses as columns, with one simulation per
register size cut into stacks of at most _STACK_AMPLITUDES amplitudes,
and read back columns: each row's F, and only what the campaign checks.
equality_oracle reads the closed forms, so it solves nothing; the bound
campaigns and saturation read the entropies, so they take no
correlator, and evaluate each bound on its column once per chunk.  No
per-row report is built.  circuit_equivalence runs each drawn row once
per distinct gate list of the rotation kinds, in the tilted bases they
share, and measures only those.  The density campaigns take one partial
trace and one validation per chunk (monotonicity's sigma rows, whose
eigenvectors are read, in another), then call the public check once on
the stack.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import entropy, linalg, protocols, qcore, stateio
from .entropy import BoundDomainError, Density
from .linalg import _entries, _finite, _integer, _real
from .protocols import ProtocolKind, ProtocolSpec
from .qcore import PureState

_SUPPORT_TOL = 1e-12

_MAX_MIXED_2Q = entropy.validate_density(np.eye(4, dtype=complex) / 4.0, vectors=True)


# Each check takes one (4, 4) density matrix or a (B, 4, 4) stack (any
# dimension for relative_entropy), as an array or an entropy.Density, and
# returns a float or one value per matrix; a single matrix (sigma = I/4)
# pairs with every matrix of a stack.  Only sigma's eigenvectors are read,
# so a sigma without them is solved again.

def relative_entropy(
    rho: np.ndarray | Density, sigma: np.ndarray | Density
) -> float | np.ndarray:
    """Tr(rho log2 rho) - Tr(rho log2 sigma); +inf when sigma's support
    misses part of rho's."""
    rho = entropy.validate_density(rho)
    sigma = entropy.validate_density(sigma, vectors=True)
    if rho.matrix.shape[-1] != sigma.matrix.shape[-1]:
        raise ValueError("density matrices have different dimensions")
    if rho.matrix.ndim == sigma.matrix.ndim == 3 and len(rho.matrix) != len(sigma.matrix):
        raise ValueError("stacks of density matrices have different lengths")
    # Tr(rho log2 sigma) = sum_k <v_k|rho|v_k> log2 s_k over sigma's
    # eigenpairs (s_k, v_k); eigenvalues below the support tolerance are
    # left out, and where rho has weight on them the result is +inf
    v = sigma.eigenvectors
    weight = (v.conj() * (rho.matrix @ v)).sum(axis=-2).real
    support = sigma.eigenvalues >= _SUPPORT_TOL
    log_s = np.log2(np.where(support, sigma.eigenvalues, 1.0))
    cross = (np.where(support, weight, 0.0) * log_s).sum(axis=-1)
    missed = (~support & (weight > _SUPPORT_TOL)).any(axis=-1)
    return entropy._value(
        np.where(missed, math.inf, entropy._plogp(entropy._spectrum(rho)) - cross)
    )


def _dephased(rho: Density) -> Density:
    # E(rho): the diagonal kept, with no solve: the eigenvalues are the
    # diagonal sorted stably, and where rho has eigenvectors they are the
    # unit vectors in that order, the values and order that jacobi_eigh
    # returns for a diagonal matrix
    diag = rho.matrix.diagonal(axis1=-2, axis2=-1)
    matrix = np.zeros_like(rho.matrix)
    idx = np.arange(diag.shape[-1])
    matrix[..., idx, idx] = diag
    w = diag.real
    order = np.argsort(w, axis=-1, kind="stable")
    evals = np.take_along_axis(w, order, axis=-1)
    if rho.eigenvectors is None:
        return Density(matrix, evals, None)
    return Density(matrix, evals, np.eye(w.shape[-1], dtype=complex)[order].swapaxes(-1, -2))


def check_monotonicity(
    rho: np.ndarray | Density, sigma: np.ndarray | Density
) -> float | np.ndarray:
    """Slack of relative-entropy monotonicity under dephasing:
    H(rho||sigma) - H(E(rho)||E(sigma)), which must be >= 0."""
    rho = entropy.validate_density(rho, dims=(4,))
    sigma = entropy.validate_density(sigma, dims=(4,), vectors=True)
    lhs = relative_entropy(rho, sigma)
    rhs = relative_entropy(_dephased(rho), _dephased(sigma))
    return entropy._value(
        np.where(np.isinf(lhs), math.inf, np.where(np.isinf(rhs), -math.inf, lhs - rhs))
    )


def check_interm(rho: np.ndarray | Density) -> float | np.ndarray:
    """Slack of Tr(rho log2 rho) >= sum_ab rho_ab log2 rho_ab (diagonal)."""
    rho = entropy.validate_density(rho, dims=(4,))
    p = np.maximum(rho.eigenvalues, 0.0)
    d = np.maximum(rho.matrix.diagonal(axis1=-2, axis2=-1).real, 0.0)
    return entropy._plogp(p) - entropy._plogp(d)


def check_jonas(rho: np.ndarray | Density) -> float | np.ndarray:
    """Slack of the two-qubit entropy bound g(|<ZZ>|) - S_v2(rho) >= 0."""
    rho = entropy.validate_density(rho, dims=(4,))
    czz = np.minimum(abs(entropy._zz(rho)), 1.0)
    # g = 1 + f, on a column already in [0, 1], where f's check is the identity
    g = np.reshape([1.0 + entropy._f(c) for c in np.ravel(czz).tolist()], czz.shape)
    return entropy._value(g - entropy.von_neumann(rho))


def saturating_single_qubit_register(S: float, total_qubits: int) -> PureState:
    """Pure register whose qubit-0 reduction is diag((1+r)/2, (1-r)/2)
    with r = sqrt(1-S): qubit 1 purifies qubit 0, the rest sit in |0>.

    These registers meet the purity fidelity bound with equality.
    """
    S = entropy._check_unit_interval(S, 0.0, 1.0, "S")
    total_qubits = _integer(total_qubits, "total_qubits")
    if not 2 <= total_qubits <= linalg.MAX_QUBITS:
        raise ValueError(f"total_qubits must be in [2, {linalg.MAX_QUBITS}]")
    r = math.sqrt(1.0 - S)
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
    lam = entropy._check_unit_interval(lam, 0.0, 1.0, "lambda")
    return np.diag([lam, 0.0, 0.0, 1.0 - lam]).astype(complex)


def purified_rho_lambda(lam: float) -> PureState:
    """Four-qubit purification of rho_lambda on the pair (0, 1)."""
    lam = entropy._check_unit_interval(lam, 0.0, 1.0, "lambda")
    vec = np.zeros(16, dtype=complex)
    vec[0b0000] = math.sqrt(lam)
    vec[0b1111] = math.sqrt(1.0 - lam)
    return PureState(4, vec)


def random_density_matrix(n_qubits: int, seed) -> np.ndarray:
    """Full-rank random density matrix: partial trace over an equal-size
    environment of a Haar-random pure state (deterministic per seed)."""
    if not 1 <= _integer(n_qubits, "n_qubits") <= 3:
        raise ValueError("n_qubits must be in [1, 3]")
    psi = qcore.random_pure_state(2 * n_qubits, seed)
    return linalg._reduce(psi.amplitudes[None], [range(n_qubits)])[0]


# --------------------------------------------------------------------------
# campaigns

_EPSILON_GRID = tuple(float(x) for x in np.arange(0.0, np.pi, 0.1)) + (float(np.pi),)
_DELTA_GRID = (0.0, 0.7, 2.3)
_SATURATION_EPSILONS = (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, float(np.pi))
_SATURATION_S = (0.0, 0.25, 0.5, 0.75, 1.0)


def _read_only(vec: np.ndarray) -> np.ndarray:
    vec.flags.writeable = False
    return vec


# saturation's registers, built once per process: the purity register of
# each S, then the Bell pair
_SATURATION_REGISTERS = tuple(
    _read_only(saturating_single_qubit_register(s, 2).amplitudes) for s in _SATURATION_S
) + (_read_only(bell_pair_register().amplitudes),)

_ROTATION_CODES = tuple(protocols._CODES[kind] for kind in protocols.ROTATION_KINDS)
_CZSWAP_GATE = protocols._CODES[ProtocolKind.ADQC_CZSWAP_GATE]


def _shared_runs(codes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    # one simulation per distinct gate list of the kinds `codes`, run as
    # the first kind with that list: the runs' codes, and each kind's run
    gates = [protocols._PROTOCOLS[protocols._KINDS[code]].gates for code in codes]
    lists = list(dict.fromkeys(gates))
    return np.array([codes[gates.index(g)] for g in lists]), np.array(list(map(lists.index, gates)))


# the one-way rotation's run is ADQC_ROTATION_CZSWAP's: 2 runs for 3 kinds
_EQUIVALENCE_RUNS = _shared_runs(_ROTATION_CODES)

# Items drawn and evaluated together: enough to amortize the per-call
# numpy overhead of a stack.
_CHUNK = 128
# The most amplitudes one protocol stack holds, rows x 2^(n+1): a chunk's
# registers of one size are cut into stacks of at most this many, as many
# as 32 registers of 7 qubits plus the ancilla.
_STACK_AMPLITUDES = 2**13


@dataclass(frozen=True)
class CampaignConfig:
    name: str
    samples: int
    seed: int
    epsilon_grid: tuple[float, ...]
    delta_grid: tuple[float, ...]
    register_sizes: tuple[int, ...]
    tolerance: float

    def __post_init__(self):
        # Each field is checked here, so that a bad value fails now rather
        # than mid-run, and the config is frozen, so that it stays checked.
        _campaign(self.name)
        for name, value in dict(
            samples=_integer(self.samples, "samples"),
            seed=_integer(self.seed, "seed"),
            tolerance=_real(self.tolerance, "tolerance"),
            epsilon_grid=_entries(self.epsilon_grid, _finite, "epsilon_grid"),
            delta_grid=_entries(self.delta_grid, _finite, "delta_grid"),
            register_sizes=_entries(self.register_sizes, _integer, "register_sizes"),
        ).items():
            object.__setattr__(self, name, value)
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        largest = protocols._MAX_REGISTER
        if not all(1 <= n <= largest for n in self.register_sizes):
            raise ValueError(f"register_sizes {self.register_sizes} must lie in [1, {largest}]")


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


# A chunk's violations in item order (None: filtered, no check) and stats
_Evaluation = tuple[list[float | None], dict]


class _ProtocolDraw(NamedTuple):
    index: int
    state: np.ndarray  # the register's amplitude vector
    # (kind code, targets, u or None, epsilon, delta), as protocols._columns reads it
    protocol: tuple

    def spec(self) -> ProtocolSpec:
        kind, *fields = self.protocol
        return ProtocolSpec(protocols._KINDS[kind], *fields)

    def payload(self) -> dict:
        return {
            "sample_index": self.index,
            "input_state": stateio.dumps_state(PureState.from_vector(self.state)),
            **protocols._fields(self.spec()),
        }


_TURN = 2.0 * np.pi


def _registers(sizes: Sequence[int], streams: Sequence[qcore.Stream]) -> list[np.ndarray]:
    # each stream's Haar register of its listed size, in order; one
    # haar_states call per size
    groups: dict[int, list[int]] = {}
    for pos, n in enumerate(sizes):
        groups.setdefault(n, []).append(pos)
    out: list = [None] * len(sizes)
    for n, positions in groups.items():
        for pos, row in zip(positions, qcore.haar_states(n, [streams[p] for p in positions])):
            out[pos] = row
    return out


def _draw_protocol(
    cfg: CampaignConfig, indices: Sequence[int], kinds=protocols._KINDS
) -> list[_ProtocolDraw]:
    # a protocol from the stream [seed, i], a Haar register from [seed, i, 1]
    codes = [protocols._CODES[kind] for kind in kinds]
    streams = qcore._item_streams(cfg.seed, indices, (1,))
    sizes, protocols_drawn = [], []
    for rng in streams[:len(indices)]:
        code = codes[rng.integers(len(codes))]
        n = cfg.register_sizes[rng.integers(len(cfg.register_sizes))]
        if protocols._ROTATION[code]:
            targets = (rng.integers(n),)
            (u,) = rng.random(_TURN)
        else:
            n = max(n, 2)
            targets = tuple(rng.permutation(n)[:2])
            u = None
        eps = cfg.epsilon_grid[rng.integers(len(cfg.epsilon_grid))]
        delta = cfg.delta_grid[rng.integers(len(cfg.delta_grid))]
        sizes.append(n)
        protocols_drawn.append((code, targets, u, eps, delta))
    states = _registers(sizes, streams[len(indices):])
    return list(map(_ProtocolDraw, indices, states, protocols_drawn))


def _stacks(draws: list[_ProtocolDraw], rows_per_draw: int = 1) -> list[list[int]]:
    # The draws' positions, grouped by register size (vector length) and
    # cut into slices whose stacks, `rows_per_draw` rows per draw, hold at
    # most _STACK_AMPLITUDES amplitudes (one draw at the least).
    groups: dict[int, list[int]] = {}
    for pos, d in enumerate(draws):
        groups.setdefault(len(d.state), []).append(pos)
    out = []
    for dim, positions in groups.items():
        size = max(1, _STACK_AMPLITUDES // (rows_per_draw * 2 * dim))
        out += [positions[a:a + size] for a in range(0, len(positions), size)]
    return out


def _analyze_draws(
    draws: list, correlators: bool = False, entropies: bool = False
) -> tuple[np.ndarray, protocols._Checks]:
    # One stack per register size and slice, whatever the kinds, analyzed
    # in one pass over the chunk that computes only the columns asked for;
    # returns the draw position of each of the pass's rows, and its checks.
    stacks = _stacks(draws)
    order = [p for positions in stacks for p in positions]
    checks = protocols._analyses(
        [np.array([draws[p].state for p in positions]) for positions in stacks],
        protocols._columns([draws[p].protocol for p in order]),
        correlators, entropies,
    )
    return np.array(order, dtype=np.intp), checks


def _evaluate_protocol(
    cfg: CampaignConfig, draws: list[_ProtocolDraw], bound: str | None = None
) -> _Evaluation:
    # compare the simulated fidelity with the closed form (bound None: no
    # entropy read) or with a bound (no correlator read); a row outside the
    # bound's domain (sv2 < 1) is filtered
    order, checks = _analyze_draws(draws, correlators=bound is None, entropies=bound is not None)
    if bound is None:
        rows, violations = order, abs(checks.fidelity - checks.closed)
    else:
        checked, bounds = protocols._checked_bounds(bound, checks)
        rows, violations = order[checked], checks.fidelity[checked] - bounds
    out: list = [None] * len(draws)
    for p, violation in zip(rows.tolist(), violations.tolist()):
        out[p] = violation
    filtered = len(draws) - len(violations)
    stats = {"filtered_below_domain": filtered} if filtered else {}
    if bound == "sv2_bound" and len(violations):
        stats["min_sv2"] = min(checks.von_neumann[checked].tolist())
    return out, stats


def _draw_equivalence(cfg: CampaignConfig, indices: Sequence[int]) -> list[_ProtocolDraw]:
    # one register (from [seed, i, 1]) and one set of angles (from
    # [seed, i]) for every rotation protocol, drawn as the first one's
    streams = qcore._item_streams(cfg.seed, indices, (1,))
    sizes, protocols_drawn = [], []
    for rng in streams[:len(indices)]:
        n = cfg.register_sizes[rng.integers(len(cfg.register_sizes))]
        t = rng.integers(n)
        u, eps, delta = rng.random(_TURN, np.pi, _TURN)
        sizes.append(n)
        protocols_drawn.append((_ROTATION_CODES[0], (t,), u, eps, delta))
    states = _registers(sizes, streams[len(indices):])
    return list(map(_ProtocolDraw, indices, states, protocols_drawn))


def _evaluate_equivalence(cfg: CampaignConfig, draws: list[_ProtocolDraw]) -> _Evaluation:
    # the largest phase-aligned distance between the inaccurate branches of
    # any two rotation protocols, per outcome; one stack per register size
    # and slice, holding each run of _EQUIVALENCE_RUNS, run after run, as
    # the drawn rows under its kind; a pair of kinds compares their runs.
    # The pair arrays, a row per kind and draw, size the slice.  The kinds
    # share their tilted bases at u: the chunk's columns and bases are
    # built once, and each stack takes its rows of them.
    codes, run = _EQUIVALENCE_RUNS
    first, second = run[np.array(np.triu_indices(len(run), 1))]  # every pair of kinds
    drawn = protocols._columns([d.protocol for d in draws])
    tilted = qcore._tilted(qcore._equatorial(drawn.u), drawn.epsilon, drawn.delta)
    worst = [0.0] * len(draws)
    for positions in _stacks(draws, rows_per_draw=len(_ROTATION_CODES)):
        rows = np.tile(positions, len(codes))
        specs = drawn.take(rows)._replace(kind=np.repeat(codes, len(positions)))
        amplitudes = np.tile([draws[p].state for p in positions], (len(codes), 1))
        inaccurate = protocols._branches(amplitudes, specs, tilted[rows])
        runs = inaccurate.reshape(len(codes), len(positions), *inaccurate.shape[1:])
        diffs = qcore._aligned_diff(runs[first], runs[second]).max(axis=(0, 2))
        for p, diff in zip(positions, diffs.tolist()):
            worst[p] = diff
    return worst, {}


class _DensityDraw(NamedTuple):
    index: int
    purification: np.ndarray  # 4 qubits, of rho on qubits (0, 1), from [seed, i]
    sigma: np.ndarray | None = None  # purifies the random sigma, from [seed, i, 7]

    def payload(self) -> dict:
        return {
            "sample_index": self.index,
            "purification": stateio.dumps_state(PureState.from_vector(self.purification)),
            "keep_qubits": [0, 1],
        }


def _draw_density(
    cfg: CampaignConfig, indices: Sequence[int], with_sigma: bool = False
) -> list[_DensityDraw]:
    # every register of the chunk, rho's then sigma's, in one haar_states call
    streams = qcore._item_streams(cfg.seed, indices, (7,) if with_sigma else ())
    registers = qcore.haar_states(4, streams)
    return [_DensityDraw(i, *registers[k::len(indices)]) for k, i in enumerate(indices)]


def _evaluate_density(
    cfg: CampaignConfig,
    draws: list[_DensityDraw],
    slacks: Callable[..., np.ndarray],
) -> _Evaluation:
    # one partial trace for the chunk's rho matrices, followed by its sigma
    # matrices when the draws carry them; one validation for the rho rows,
    # values only, and one for the sigma rows, whose eigenvectors are read
    sigmas = [d.sigma for d in draws if d.sigma is not None]
    states = [d.purification for d in draws] + sigmas
    reduced = linalg._reduce(np.array(states), [(0, 1)] * len(states))
    densities = [entropy.validate_density(reduced[: len(draws)], dims=(4,))]
    if sigmas:
        densities.append(entropy.validate_density(reduced[len(draws):], dims=(4,), vectors=True))
    violations = [-slack for slack in slacks(*densities).tolist()]
    return violations, {"random_sigma_checks": len(sigmas)} if sigmas else {}


def _monotonicity_pair_slacks(rho: Density, sigma: Density) -> np.ndarray:
    # row b: the smaller slack of sigma = I/4 (as in the proof of the
    # two-qubit bound) and of the random full-rank sigma[b], both in one
    # check over a 2B stack: rho twice, against I/4 per row, then sigma
    n = len(rho.matrix)
    mixed = _MAX_MIXED_2Q
    sigmas = Density(
        np.concatenate([np.broadcast_to(mixed.matrix, (n, 4, 4)), sigma.matrix]),
        np.concatenate([np.broadcast_to(mixed.eigenvalues, (n, 4)), sigma.eigenvalues]),
        np.concatenate([np.broadcast_to(mixed.eigenvectors, (n, 4, 4)), sigma.eigenvectors]),
    )
    rhos = Density(np.tile(rho.matrix, (2, 1, 1)), np.tile(rho.eigenvalues, (2, 1)), None)
    slack = check_monotonicity(rhos, sigmas)
    return np.minimum(slack[:n], slack[n:])


def _saturation_sweep(cfg: CampaignConfig) -> int:
    # items per sample: every (S, epsilon) purity register, then every
    # epsilon on the Bell-pair register
    return (len(_SATURATION_S) + 1) * len(cfg.epsilon_grid)


def _draw_saturation(cfg: CampaignConfig, indices: Sequence[int]) -> list[_ProtocolDraw]:
    # the register and epsilon from the item's place in the sweep, the
    # angles from [seed, i]
    n_eps = len(cfg.epsilon_grid)
    draws = []
    for i, rng in zip(indices, qcore._item_streams(cfg.seed, indices, ())):
        j = i % _saturation_sweep(cfg)
        if j < len(_SATURATION_S) * n_eps:
            u, delta = rng.random(_TURN, _TURN)
            code = _ROTATION_CODES[i % len(_ROTATION_CODES)]
            protocol = (code, (0,), u, cfg.epsilon_grid[j % n_eps], delta)
            psi = _SATURATION_REGISTERS[j // n_eps]
        else:
            (delta,) = rng.random(_TURN)
            eps = cfg.epsilon_grid[j - len(_SATURATION_S) * n_eps]
            protocol = (_CZSWAP_GATE, (0, 1), None, eps, delta)
            psi = _SATURATION_REGISTERS[-1]
        draws.append(_ProtocolDraw(i, psi, protocol))
    return draws


def _evaluate_saturation(cfg: CampaignConfig, draws: list[_ProtocolDraw]) -> _Evaluation:
    # the purity registers, run by the rotation kinds, meet the purity
    # bound; the Bell pairs, run by the CZSWAP gate, the sv2 bound.  A row
    # that neither bound reaches stays NaN, which fails the report.
    order, checks = _analyze_draws(draws, entropies=True)
    violations = np.full(len(draws), np.nan)
    for name in ("purity_bound", "sv2_bound"):
        rows, bounds = protocols._checked_bounds(name, checks)
        violations[order[rows]] = abs(checks.fidelity[rows] - bounds)
    return violations.tolist(), {}


def _lambda(samples: int, i: int) -> float:
    # point i of np.linspace(0, 1, max(samples, 2)), bit for bit, without
    # building the grid: i * step + 0.0, with the last point exactly 1
    last = max(samples, 2) - 1
    return 1.0 if i == last else i * (1.0 / last) + 0.0


class _LambdaDraw(NamedTuple):
    index: int
    lam: float  # point i of the lambda grid, blind to the seed

    def payload(self) -> dict:
        return _DensityDraw(self.index, purified_rho_lambda(self.lam).amplitudes).payload()


def _draw_lambda(cfg: CampaignConfig, indices: Sequence[int]) -> list[_LambdaDraw]:
    return [_LambdaDraw(i, _lambda(cfg.samples, i)) for i in indices]


def _evaluate_counterexample(cfg: CampaignConfig, draws: list[_LambdaDraw]) -> _Evaluation:
    # one validation of the chunk's rho_lambda stack, whose rows' S_v2 are
    # von_neumann's and <Z (x) Z> correlator's, bit for bit
    rhos = entropy.validate_density(np.array([rho_lambda(d.lam) for d in draws]))
    sv2s = entropy._mixedness(rhos)[1].tolist()
    violations = []
    for sv2, czz in zip(sv2s, entropy._zz(rhos).tolist()):
        violation = abs(czz - 1.0)  # exactly 0
        if sv2 < entropy.SV2_DOMAIN_EDGE:
            try:
                protocols.bound_sv2(sv2, np.pi / 2)
            except BoundDomainError:
                pass
            else:
                violation = max(violation, 1.0)  # the domain restriction must hold
        violations.append(violation)
    return violations, {"min_sv2": min(sv2s), "max_sv2": max(sv2s)}


@dataclass(frozen=True)
class _Campaign:
    """One campaign: how it draws and evaluates its items, its default
    sample count and tolerance, the register sizes and epsilon grid it
    draws from, the items each sample sweeps (one unless `sweep` says
    otherwise) and a note for its report.

    `draw(cfg, indices)` builds the listed items, in the order given,
    each from (cfg.seed, i) alone, so drawing an item again, alone or in
    any other chunk, gives the same item; its `payload()` is the worst
    case of a failing report.  `evaluate(cfg, draws)` turns one chunk of
    draws into an _Evaluation.
    """
    draw: Callable[[CampaignConfig, Sequence[int]], list]
    evaluate: Callable[[CampaignConfig, list], _Evaluation]
    samples: int
    tolerance: float
    register_sizes: tuple[int, ...] = (2, 3, 4, 5)
    epsilon_grid: tuple[float, ...] = _EPSILON_GRID
    sweep: Callable[[CampaignConfig], int] | None = None
    note: str | None = None

    def items(self, cfg: CampaignConfig) -> int:
        return cfg.samples * (self.sweep(cfg) if self.sweep else 1)


def _protocol_campaign(samples, tolerance, kinds=protocols._KINDS, bound=None, **row) -> _Campaign:
    return _Campaign(
        partial(_draw_protocol, kinds=kinds), partial(_evaluate_protocol, bound=bound),
        samples, tolerance, **row,
    )


_CAMPAIGNS: dict[str, _Campaign] = {
    "equality_oracle": _protocol_campaign(1000, 1e-10),
    "bound_main": _protocol_campaign(
        1000, 1e-9, kinds=protocols.X_ERROR_KINDS, bound="purity_bound"
    ),
    "bound_sv": _protocol_campaign(1000, 1e-9, kinds=protocols.X_ERROR_KINDS, bound="sv_bound"),
    "bound_main2": _protocol_campaign(
        1000, 1e-9, kinds=(ProtocolKind.ADQC_CZSWAP_GATE,), bound="sv2_bound",
        register_sizes=(4, 5),
    ),
    "circuit_equivalence": _Campaign(
        _draw_equivalence, _evaluate_equivalence, 200, 1e-12, register_sizes=(1, 2, 3, 4, 5),
    ),
    "jonas": _Campaign(
        _draw_density, partial(_evaluate_density, slacks=check_jonas), 1000, 1e-9
    ),
    "monotonicity": _Campaign(
        partial(_draw_density, with_sigma=True),
        partial(_evaluate_density, slacks=_monotonicity_pair_slacks), 1000, 1e-9,
    ),
    "interm": _Campaign(
        _draw_density, partial(_evaluate_density, slacks=check_interm), 1000, 1e-9
    ),
    "saturation": _Campaign(
        _draw_saturation, _evaluate_saturation, 1, 1e-9,
        epsilon_grid=_SATURATION_EPSILONS, sweep=_saturation_sweep,
    ),
    "counterexample": _Campaign(
        _draw_lambda, _evaluate_counterexample, 21, 1e-15,
        note="pair correlator is 1 for the whole family while its entropy "
        "sweeps [0, 1]: no entropy bound below 1 constrains the fidelity",
    ),
}

CAMPAIGN_NAMES = tuple(sorted(_CAMPAIGNS))


def _campaign(name: str) -> _Campaign:
    if not isinstance(name, str) or name not in _CAMPAIGNS:
        raise ValueError(f"name {name!r} is no known campaign; known: {', '.join(CAMPAIGN_NAMES)}")
    return _CAMPAIGNS[name]


def default_config(
    name: str,
    samples: int | None = None,
    seed: int = 42,
    tolerance: float | None = None,
) -> CampaignConfig:
    """Campaign config with per-campaign defaults filled in; the values
    given are checked by CampaignConfig as they are, not converted."""
    row = _campaign(name)
    return CampaignConfig(
        name=name,
        samples=row.samples if samples is None else samples,
        seed=seed,
        epsilon_grid=row.epsilon_grid,
        delta_grid=_DELTA_GRID,
        register_sizes=row.register_sizes,
        tolerance=row.tolerance if tolerance is None else tolerance,
    )


def _merge_stats(total: dict, update: dict) -> None:
    for key, val in update.items():
        if key.startswith("min_"):
            total[key] = min(total.get(key, math.inf), val)
        elif key.startswith("max_"):
            total[key] = max(total.get(key, -math.inf), val)
        else:
            total[key] = total.get(key, 0) + val


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run one named campaign: draw each item, evaluate the items in chunks
    of _CHUNK on stacks, and fold each chunk's violations into the report
    in index order, keeping only the worst index; a failing report draws
    that item again for its payload.  The report is deterministic per
    config.  A campaign that runs no check fails."""
    if not isinstance(config, CampaignConfig):
        raise ValueError(f"config {config!r} is not a CampaignConfig")
    campaign = _campaign(config.name)
    checks_run = 0
    max_violation = -math.inf
    worst: int | None = None
    stats: dict = {}
    non_finite = False
    count = campaign.items(config)
    for a in range(0, count, _CHUNK):
        draws = campaign.draw(config, range(a, min(a + _CHUNK, count)))
        violations, chunk_stats = campaign.evaluate(config, draws)
        _merge_stats(stats, chunk_stats)
        # index order fixes the argmax tie-break
        for i, violation in enumerate(violations, a):
            if violation is None:
                continue
            checks_run += 1
            if non_finite:
                continue
            # fails closed: NaN compares false against any running max, so
            # the first non-finite check is the worst case and a failure
            non_finite = not math.isfinite(violation)
            if non_finite or violation > max_violation:
                max_violation, worst = violation, i
    if checks_run == 0:
        max_violation = 0.0
    passed = checks_run > 0 and not non_finite and max_violation <= config.tolerance
    if campaign.note:
        stats["note"] = campaign.note
    return CampaignReport(
        config=config,
        checks_run=checks_run,
        max_violation=max_violation,
        worst_case=None if passed or worst is None else campaign.draw(config, [worst])[0].payload(),
        passed=passed,
        stats=stats,
    )
