"""Randomized verification campaigns for the fidelity oracle, the bound
inequalities, the relative-entropy machinery behind the two-qubit bound,
engineered bound-saturating registers, and the diagonal counterexample
family that defeats any entropy bound below 1.

Every campaign has one shape: draw(cfg, indices) builds a chunk of
items as columns, and evaluate(cfg, chunk) turns it, on stacks, into
each item's violation (None for a filtered item) and one stats dict.  A
draw hashes its chunk's keys as arrays (qcore._chunk_streams) and reads
each field of every item from one column of stream words
(qcore._choice, _uniform); item i still comes from its own streams
alone: [seed, i], and [seed, i, 1] for a protocol campaign's register or
[seed, i, 7] for monotonicity's random sigma.  No record is built per
item: a protocol chunk holds its invocations as protocols._Specs columns
and its registers as one (positions, stack) pair per register size, the
stack from one qcore._haar call; a density chunk its (B, 16)
purifications; the counterexample chunk its lambda column.  run_campaign
evaluates chunks of _CHUNK items in index order and keeps only the worst
index, which a failing report draws again, as a chunk of one item, for
its payload, the one PureState and ProtocolSpec a campaign builds.
Reports thus do not depend on the order of evaluation, the chunk size or
the stack cap.

The protocol campaigns cut each stack into slices of at most
_STACK_AMPLITUDES amplitudes, hand them with their rows' columns to
protocols._analyses, and read back columns: each row's F, and only what
the campaign checks.
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
    # left out, and where rho has weight on them the result is +inf.  The
    # weights are the real part of conj(v) * (rho v) in real arithmetic:
    # numpy's complex multiply gives other bits at some SIMD levels
    v = sigma.eigenvectors
    w = rho.matrix @ v
    weight = (v.real * w.real + v.imag * w.imag).sum(axis=-2)
    support = sigma.eigenvalues >= _SUPPORT_TOL
    log_s = entropy._log2(np.where(support, sigma.eigenvalues, 1.0))
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
# each S, (5, 4), and the Bell pair
_SATURATION_REGISTERS = _read_only(
    np.array([saturating_single_qubit_register(s, 2).amplitudes for s in _SATURATION_S])
)
_BELL_PAIR = _read_only(bell_pair_register().amplitudes)

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


class _ProtocolChunk(NamedTuple):
    # a protocol, equivalence or saturation chunk: its items' invocations,
    # and per register size their positions in the chunk and their stack
    indices: Sequence[int]
    specs: protocols._Specs
    registers: list[tuple[np.ndarray, np.ndarray]]

    def payload(self) -> dict:
        # the worst case of a failing report, from a chunk of that one item
        (index,), ((_, (state,)),) = self.indices, self.registers
        kind, targets, u, epsilon, delta = (column[0].tolist() for column in self.specs)
        rotation = protocols._ROTATION[kind]
        spec = ProtocolSpec(protocols._KINDS[kind], targets[:1] if rotation else targets,
                            u if rotation else None, epsilon, delta)
        return {
            "sample_index": index,
            "input_state": stateio.dumps_state(PureState.from_vector(state)),
            **protocols._fields(spec),
        }


_TURN = 2.0 * np.pi


def _registers(sizes: np.ndarray, keys: np.ndarray) -> list:
    # each register size's positions, in the order the sizes first appear,
    # with the Haar registers of their hashed keys from one qcore._haar call
    groups = {n: (sizes == n).nonzero()[0] for n in dict.fromkeys(sizes.tolist())}
    return [(positions, qcore._haar(n, keys[positions])) for n, positions in groups.items()]


def _draw_protocol(
    cfg: CampaignConfig, indices: Sequence[int], kinds=protocols._KINDS
) -> _ProtocolChunk:
    # a protocol from words 0-6 of the stream [seed, i] (its kind, register
    # size, two distinct targets, u, epsilon and delta: a rotation's first
    # target twice, a gate kind's u 0.0), a Haar register from [seed, i, 1]
    codes = np.array([protocols._CODES[kind] for kind in kinds])
    words, keys = qcore._chunk_streams(cfg.seed, indices, 7, (1,))
    code = codes[qcore._choice(words[:, 0], len(codes))]
    rotation = protocols._ROTATION[code]
    n = np.array(cfg.register_sizes)[qcore._choice(words[:, 1], len(cfg.register_sizes))]
    n = np.where(rotation, n, np.maximum(n, 2))
    first, second = qcore._choice(words[:, 2], n), qcore._choice(words[:, 3], n - 1)
    second += second >= first
    specs = protocols._Specs(
        code,
        np.stack([first, np.where(rotation, first, second)], axis=1),
        np.where(rotation, _TURN * qcore._uniform(words[:, 4]), 0.0),
        np.array(cfg.epsilon_grid)[qcore._choice(words[:, 5], len(cfg.epsilon_grid))],
        np.array(cfg.delta_grid)[qcore._choice(words[:, 6], len(cfg.delta_grid))],
    )
    return _ProtocolChunk(indices, specs, _registers(n, keys))


def _stacks(registers: list, rows_per_draw: int = 1) -> list:
    # A chunk's registers cut into slices whose stacks, `rows_per_draw`
    # rows per item, hold at most _STACK_AMPLITUDES amplitudes (one item at
    # the least).
    out = []
    for positions, stack in registers:
        size = max(1, _STACK_AMPLITUDES // (rows_per_draw * 2 * stack.shape[1]))
        out += [(positions[a:a + size], stack[a:a + size]) for a in range(0, len(stack), size)]
    return out


def _analyze_draws(
    chunk: _ProtocolChunk, correlators: bool = False, entropies: bool = False
) -> tuple[np.ndarray, protocols._Checks]:
    # One stack per register size and slice, whatever the kinds, analyzed
    # in one pass over the chunk that computes only the columns asked for;
    # returns the chunk position of each of the pass's rows, and its checks.
    stacks = _stacks(chunk.registers)
    order = np.concatenate([positions for positions, _ in stacks])
    specs = chunk.specs.take(order)
    return order, protocols._analyses([s for _, s in stacks], specs, correlators, entropies)


def _evaluate_protocol(
    cfg: CampaignConfig, chunk: _ProtocolChunk, bound: str | None = None
) -> _Evaluation:
    # compare the simulated fidelity with the closed form (bound None: no
    # entropy read) or with a bound (no correlator read); a row outside the
    # bound's domain (sv2 < 1) is filtered
    order, checks = _analyze_draws(chunk, correlators=bound is None, entropies=bound is not None)
    if bound is None:
        rows, violations = order, abs(checks.fidelity - checks.closed)
    else:
        checked, bounds = protocols._checked_bounds(bound, checks)
        rows, violations = order[checked], checks.fidelity[checked] - bounds
    out: list = [None] * len(chunk.indices)
    for p, violation in zip(rows.tolist(), violations.tolist()):
        out[p] = violation
    filtered = len(chunk.indices) - len(violations)
    stats = {"filtered_below_domain": filtered} if filtered else {}
    if bound == "sv2_bound" and len(violations):
        stats["min_sv2"] = min(checks.von_neumann[checked].tolist())
    return out, stats


def _draw_equivalence(cfg: CampaignConfig, indices: Sequence[int]) -> _ProtocolChunk:
    # one register (from [seed, i, 1]) and one set of angles (from words
    # 0-4 of [seed, i]: size, target, u, epsilon, delta) for every rotation
    # protocol, drawn as the first one's
    words, keys = qcore._chunk_streams(cfg.seed, indices, 5, (1,))
    n = np.array(cfg.register_sizes)[qcore._choice(words[:, 0], len(cfg.register_sizes))]
    target = qcore._choice(words[:, 1], n)
    # contiguous columns, as the tilted bases are computed on them directly
    u, eps, delta = (qcore._uniform(words[:, 2:]) * (_TURN, np.pi, _TURN)).T.copy()
    specs = protocols._Specs(
        np.full(len(n), _ROTATION_CODES[0]), np.stack([target, target], axis=1), u, eps, delta
    )
    return _ProtocolChunk(indices, specs, _registers(n, keys))


def _evaluate_equivalence(cfg: CampaignConfig, chunk: _ProtocolChunk) -> _Evaluation:
    # the largest phase-aligned distance between the inaccurate branches of
    # any two rotation protocols, per outcome; each slice's stack holds each
    # run of _EQUIVALENCE_RUNS, run after run, as the slice's rows under its
    # kind (the pair arrays, a row per kind and item, size the slice); a
    # pair of kinds compares their runs.  The tilted bases are the chunk's.
    codes, run = _EQUIVALENCE_RUNS
    first, second = run[np.array(np.triu_indices(len(run), 1))]  # every pair of kinds
    specs = chunk.specs
    tilted = qcore._tilted(qcore._equatorial(specs.u), specs.epsilon, specs.delta)
    worst = np.zeros(len(chunk.indices))
    for positions, states in _stacks(chunk.registers, rows_per_draw=len(_ROTATION_CODES)):
        rows = np.tile(positions, len(codes))
        runs_specs = specs.take(rows)._replace(kind=np.repeat(codes, len(positions)))
        inaccurate = protocols._branches(np.tile(states, (len(codes), 1)), runs_specs, tilted[rows])
        runs = inaccurate.reshape(len(codes), len(positions), *inaccurate.shape[1:])
        worst[positions] = qcore._aligned_diff(runs[first], runs[second]).max(axis=(0, 2))
    return worst.tolist(), {}


class _DensityChunk(NamedTuple):
    indices: Sequence[int]
    purifications: np.ndarray  # (B, 16): 4 qubits, of rho on qubits (0, 1), from [seed, i]
    sigmas: np.ndarray | None = None  # (B, 16): the random sigma's, from [seed, i, 7]

    def payload(self) -> dict:
        # the worst case of a failing report, from a chunk of that one item
        (index,), (purification,) = self.indices, self.purifications
        return {
            "sample_index": index,
            "purification": stateio.dumps_state(PureState.from_vector(purification)),
            "keep_qubits": [0, 1],
        }


def _draw_density(
    cfg: CampaignConfig, indices: Sequence[int], with_sigma: bool = False
) -> _DensityChunk:
    # every register of the chunk, rho's then sigma's, in one qcore._haar call
    _, *keys = qcore._chunk_streams(cfg.seed, indices, 0, (None, 7) if with_sigma else (None,))
    registers = qcore._haar(4, np.concatenate(keys)).reshape(len(keys), len(indices), 16)
    return _DensityChunk(indices, *registers)


def _evaluate_density(
    cfg: CampaignConfig, chunk: _DensityChunk, slacks: Callable[..., np.ndarray]
) -> _Evaluation:
    # one partial trace for the rho matrices, then any sigma matrices; one
    # validation for the rho rows, values only, and one for the sigma rows,
    # whose eigenvectors are read
    count, sigma = len(chunk.indices), chunk.sigmas is not None
    states = np.concatenate([chunk.purifications, chunk.sigmas]) if sigma else chunk.purifications
    reduced = linalg._reduce(states, [(0, 1)] * len(states))
    densities = [entropy.validate_density(reduced[:count], dims=(4,))]
    if sigma:
        densities.append(entropy.validate_density(reduced[count:], dims=(4,), vectors=True))
    violations = [-slack for slack in slacks(*densities).tolist()]
    return violations, {"random_sigma_checks": count} if sigma else {}


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


def _draw_saturation(cfg: CampaignConfig, indices: Sequence[int]) -> _ProtocolChunk:
    # the register, kind and epsilon from the item's place in the sweep, u
    # and delta from words 0 and 1 of [seed, i]; a Bell-pair row runs the
    # CZSWAP gate on qubits (0, 1), with u 0.0.  No register is built
    n_eps = len(cfg.epsilon_grid)
    n_pure = len(_SATURATION_S) * n_eps
    i = np.array(indices, dtype=np.intp)
    j = i % _saturation_sweep(cfg)
    pure = j < n_pure
    (words,) = qcore._chunk_streams(cfg.seed, indices, 2)
    u, delta = (_TURN * qcore._uniform(words)).T
    specs = protocols._Specs(
        np.where(pure, np.array(_ROTATION_CODES)[i % len(_ROTATION_CODES)], _CZSWAP_GATE),
        np.outer(~pure, (0, 1)),
        np.where(pure, u, 0.0),
        np.array(cfg.epsilon_grid)[np.where(pure, j % n_eps, j - n_pure)],
        delta,
    )
    rows, bell = pure.nonzero()[0], (~pure).nonzero()[0]
    registers = [(rows, _SATURATION_REGISTERS[j[rows] // n_eps]),
                 (bell, np.broadcast_to(_BELL_PAIR, (len(bell), len(_BELL_PAIR))))]
    return _ProtocolChunk(indices, specs, [(p, stack) for p, stack in registers if len(p)])


def _evaluate_saturation(cfg: CampaignConfig, chunk: _ProtocolChunk) -> _Evaluation:
    # the purity registers, run by the rotation kinds, meet the purity
    # bound; the Bell pairs, run by the CZSWAP gate, the sv2 bound.  A row
    # that neither bound reaches stays NaN, which fails the report.
    order, checks = _analyze_draws(chunk, entropies=True)
    violations = np.full(len(chunk.indices), np.nan)
    for name in ("purity_bound", "sv2_bound"):
        rows, bounds = protocols._checked_bounds(name, checks)
        violations[order[rows]] = abs(checks.fidelity[rows] - bounds)
    return violations.tolist(), {}


class _LambdaChunk(NamedTuple):
    indices: Sequence[int]
    lam: np.ndarray  # point i of the lambda grid per item, blind to the seed

    def payload(self) -> dict:
        # the worst case of a failing report, from a chunk of that one item
        (lam,) = self.lam.tolist()
        return _DensityChunk(self.indices, purified_rho_lambda(lam).amplitudes[None]).payload()


def _draw_lambda(cfg: CampaignConfig, indices: Sequence[int]) -> _LambdaChunk:
    # point i of np.linspace(0, 1, max(samples, 2)), bit for bit, without
    # building the grid: i * step + 0.0, with the last point exactly 1
    last = max(cfg.samples, 2) - 1
    lam = [1.0 if i == last else i * (1.0 / last) + 0.0 for i in indices]
    return _LambdaChunk(indices, np.array(lam))


def _evaluate_counterexample(cfg: CampaignConfig, chunk: _LambdaChunk) -> _Evaluation:
    # one validation of the chunk's rho_lambda stack, whose rows' S_v2 are
    # von_neumann's and <Z (x) Z> correlator's, bit for bit
    rhos = np.zeros((len(chunk.lam), 4, 4), dtype=complex)
    rhos[:, 0, 0], rhos[:, 3, 3] = chunk.lam, 1.0 - chunk.lam
    rhos = entropy.validate_density(rhos)
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


_Chunk = _ProtocolChunk | _DensityChunk | _LambdaChunk  # what a draw builds


@dataclass(frozen=True)
class _Campaign:
    """One campaign: how it draws and evaluates its items, its default
    sample count and tolerance, the register sizes and epsilon grid it
    draws from, the items each sample sweeps (one unless `sweep` says
    otherwise) and a note for its report.

    `draw(cfg, indices)` builds one chunk of the listed items, in the
    order given, as columns; each item comes from (cfg.seed, i) alone, so
    drawing it again, alone or in any other chunk, gives the same values.
    `payload()` of a chunk of one item is that item as the worst case of
    a failing report.  `evaluate(cfg, chunk)` turns a chunk into an
    _Evaluation.
    """
    draw: Callable[[CampaignConfig, Sequence[int]], _Chunk]
    evaluate: Callable[[CampaignConfig, _Chunk], _Evaluation]
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
        worst_case=None if passed or worst is None else campaign.draw(config, [worst]).payload(),
        passed=passed,
        stats=stats,
    )
