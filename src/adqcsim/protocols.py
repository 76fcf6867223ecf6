"""The five measurement-driven gate protocols, their mean gate fidelity,
the closed-form fidelity, outcome-dependent error operators, and the
entanglement-based fidelity bounds.

Every protocol couples a fresh |+> ancilla to one or two register qubits
and measures a single qubit afterwards; `_PROTOCOLS` holds one row per
protocol: its gate sequence, its measurement basis and its error operator.

With an accurate measurement the branches realize X^j J(u) on the target
(rotations), X1^j H1 H2 CZ12 (CZ gate) or (Z1 Z2)^j SWAP12 CZ12 (CZSWAP
gate), up to a global phase per branch.

Each public function takes one register, a PureState or a (2^n,)
vector, with one ProtocolSpec, or a (B, 2^n) stack of registers of one
size with one spec per row, and returns a result of the input's rank.
Protocols of different kinds share a stack through per-row gate tables,
and `analyze` reduces the rows of each error kind on its own shape.  A
run's branches are one `ProtocolResult` of arrays: (2, 2^n) branches for
one run, (B, 2, 2^n) for a stack; its `FidelityReport` carries the same
leading axis on every field.

Every simulation is one call of the private `_branches`: each row's gate
steps, then its measurement in the bases asked for.  `run_protocol` asks
for the tilted and the ideal bases and normalizes the ideal branches; a
caller that reads only the tilted branches, as verify's
circuit_equivalence does, asks for those alone, bit for bit the same.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import entropy, linalg, qcore
from .entropy import BoundDomainError, EntanglementReport
from .linalg import _finite, _integer
from .qcore import PureState

BOUND_SLACK_TOL = 1e-9
# the largest register a protocol runs on: every protocol adds an ancilla
_MAX_REGISTER = linalg.MAX_QUBITS - 1


class ProtocolKind(Enum):
    ONEWAY_ROTATION = "ONEWAY_ROTATION"
    ADQC_ROTATION_CZ = "ADQC_ROTATION_CZ"
    ADQC_ROTATION_CZSWAP = "ADQC_ROTATION_CZSWAP"
    ADQC_CZ_GATE = "ADQC_CZ_GATE"
    ADQC_CZSWAP_GATE = "ADQC_CZSWAP_GATE"


class ErrorKind(Enum):
    X_TYPE = "X_TYPE"
    ZZ_TYPE = "ZZ_TYPE"


_ANCILLA = "ancilla"  # the ancilla's wire; wires 0 and 1 are targets[0], targets[1]


@dataclass(frozen=True)
class _Protocol:
    gates: tuple[tuple[str, tuple[int | str, int | str]], ...]  # (qcore gate, wires)
    rotation: bool  # one target, equatorial basis at u; else two targets, Z basis
    error: ErrorKind  # X on the first target, or Z (x) Z on the target pair
    measures_target: bool = False  # the ancilla then takes the target's slot


_PROTOCOLS: dict[ProtocolKind, _Protocol] = {
    # CZ(target, ancilla), measure the *target*.
    ProtocolKind.ONEWAY_ROTATION: _Protocol(
        (("CZ", (0, _ANCILLA)),), rotation=True, error=ErrorKind.X_TYPE,
        measures_target=True,
    ),
    # (H (x) H) . CZ on (target, ancilla), measure the ancilla.
    ProtocolKind.ADQC_ROTATION_CZ: _Protocol(
        (("E_CZ", (0, _ANCILLA)),), rotation=True, error=ErrorKind.X_TYPE
    ),
    # CZSWAP(target, ancilla), measure the ancilla.
    ProtocolKind.ADQC_ROTATION_CZSWAP: _Protocol(
        (("CZSWAP", (0, _ANCILLA)),), rotation=True, error=ErrorKind.X_TYPE
    ),
    # (H (x) H) . CZ on (target1, ancilla) then on (target2, ancilla).
    ProtocolKind.ADQC_CZ_GATE: _Protocol(
        (("E_CZ", (0, _ANCILLA)), ("E_CZ", (1, _ANCILLA))),
        rotation=False, error=ErrorKind.X_TYPE,
    ),
    # CZSWAP on (ancilla, target1), (ancilla, target2), (ancilla, target1).
    ProtocolKind.ADQC_CZSWAP_GATE: _Protocol(
        (("CZSWAP", (_ANCILLA, 0)), ("CZSWAP", (_ANCILLA, 1)), ("CZSWAP", (_ANCILLA, 0))),
        rotation=False, error=ErrorKind.ZZ_TYPE,
    ),
}

# Ordered as ProtocolKind: campaigns draw from these sequences by index.
ROTATION_KINDS = tuple(k for k, row in _PROTOCOLS.items() if row.rotation)
# Protocols whose measurement error acts as a bit flip on the first target.
X_ERROR_KINDS = tuple(k for k, row in _PROTOCOLS.items() if row.error is ErrorKind.X_TYPE)


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol invocation: kind, register target(s), and angles."""

    kind: ProtocolKind
    targets: tuple[int, ...]
    u: float | None = None
    epsilon: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, ProtocolKind):
            raise ValueError(f"kind {self.kind!r} is not a ProtocolKind")
        object.__setattr__(self, "targets", tuple(_integer(t, "target") for t in self.targets))
        for name in ("u", "epsilon", "delta"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _finite(value, name))
        if _PROTOCOLS[self.kind].rotation:
            if len(self.targets) != 1:
                raise ValueError(f"{self.kind.value} takes exactly one target")
            if self.u is None:
                raise ValueError(f"{self.kind.value} requires a rotation angle u")
        else:
            if len(self.targets) != 2 or self.targets[0] == self.targets[1]:
                raise ValueError(f"{self.kind.value} takes two distinct targets")
            if self.u is not None:
                raise ValueError(f"{self.kind.value} does not take a rotation angle")


class ProtocolResult(NamedTuple):
    """Per-outcome branches of one protocol run, (2, 2^n) arrays, or of a
    stack of runs, with a leading axis: (B, 2, 2^n).

    ideal_branches hold the normalized outputs of the accurate-measurement
    circuit, ideal_probabilities their outcome probabilities ((2,) or
    (B, 2)); inaccurate_branches are the unnormalized tilted-measurement
    branches, whose squared norms are the outcome probabilities.
    """

    ideal_branches: np.ndarray
    ideal_probabilities: np.ndarray
    inaccurate_branches: np.ndarray


_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
# Every gate the protocols apply, stacked once; each protocol's steps as
# (row of _GATE_TABLE, wires), so a gate step of a stack takes its
# operators by indexing the table.
_GATE_NAMES = tuple(dict.fromkeys(name for row in _PROTOCOLS.values() for name, _ in row.gates))
_GATE_TABLE = np.stack([qcore.gate(name) for name in _GATE_NAMES])
_STEPS = {
    kind: tuple((_GATE_NAMES.index(name), wires) for name, wires in row.gates)
    for kind, row in _PROTOCOLS.items()
}


def _runs(
    states: PureState | np.ndarray, specs: ProtocolSpec | Sequence[ProtocolSpec]
) -> tuple[np.ndarray, list[ProtocolSpec], int, bool]:
    # The one reader of the input forms: one register (a PureState or a
    # (2^n,) vector) with one spec, or a (B, 2^n) stack with one spec per
    # row.  Returns the (B, 2^n) stack, its specs, n, and whether the
    # input was one register.
    amplitudes = np.asarray(
        states.amplitudes if isinstance(states, PureState) else states, dtype=complex
    )
    one = amplitudes.ndim == 1
    if one != isinstance(specs, ProtocolSpec):
        raise ValueError("one register takes one ProtocolSpec, a (B, 2^n) stack one per row")
    specs = [specs] if one else list(specs)
    rows = linalg._rows(amplitudes, specs, "specs")
    n = linalg.n_qubits_of(rows.shape[1])
    if n > _MAX_REGISTER:
        raise ValueError(f"register of {n} qubits plus ancilla exceeds {linalg.MAX_QUBITS}")
    for spec in specs:
        if not isinstance(spec, ProtocolSpec):
            raise ValueError(f"spec {spec!r} is not a ProtocolSpec")
        for t in spec.targets:
            if not 0 <= t < n:
                raise ValueError(f"target {t} out of range for {n} qubits")
    return rows, specs, n, one


def _first(value):
    # row 0 of a one-row stack's result, in the form of one run's: a
    # row of a 1-d array is a float, a result tuple is taken field by field
    if isinstance(value, tuple):
        return type(value)(*map(_first, value))
    return float(value[0]) if isinstance(value, np.ndarray) and value.ndim == 1 else value[0]


def pre_measurement_state(
    states: PureState | np.ndarray, specs: ProtocolSpec | Sequence[ProtocolSpec]
) -> np.ndarray:
    """Register-plus-ancilla amplitudes right before the measurement: a
    (2^(n+1),) vector for one register, or one row per spec of a (B, 2^n)
    stack.

    The ancilla is the last qubit.  Protocols of different kinds share the
    stack: gate step k applies each row's own k-th gate to the rows whose
    protocol has one.
    """
    amplitudes, specs, n, one = _runs(states, specs)
    # psi (x) |+>: both entries of _PLUS are equal
    vec = np.repeat(amplitudes * _PLUS[0], 2, axis=1)
    steps = [_STEPS[spec.kind] for spec in specs]
    for k in range(max(map(len, steps), default=0)):
        rows = [b for b, gates in enumerate(steps) if len(gates) > k]
        ops = _GATE_TABLE[[steps[b][k][0] for b in rows]]
        wires = [
            tuple(n if w == _ANCILLA else specs[b].targets[w] for w in steps[b][k][1])
            for b in rows
        ]
        if len(rows) == len(specs):
            vec = qcore.apply_matrix(vec, ops, wires)
        else:
            vec[rows] = qcore.apply_matrix(vec[rows], ops, wires)
    return _first(vec) if one else vec


def _measurements(specs: Sequence[ProtocolSpec], n: int):
    # Per row: the tilted then the ideal basis vectors (4, 2), the measured
    # qubit, and the order of the qubits left over.  The ideal basis is the
    # epsilon=0 basis at the *same* delta, which fixes the branch phases so
    # that the error-operator factorization of the inaccurate branches
    # holds exactly, not just up to phase.  With measures_target the
    # ancilla takes the measured target's slot.
    rows = [_PROTOCOLS[spec.kind] for spec in specs]
    rotation = np.array([row.rotation for row in rows])[:, None, None]
    u = [spec.u if row.rotation else 0.0 for spec, row in zip(specs, rows)]
    reference = np.where(rotation, qcore.equatorial_pair(u), qcore.Z_PAIR)
    epsilon = [(spec.epsilon, 0.0) for spec in specs]
    delta = [(spec.delta, spec.delta) for spec in specs]
    vectors = qcore.tilted_vectors(reference[:, None], epsilon, delta)
    measured, keep = [], []
    for spec, row in zip(specs, rows):
        t = spec.targets[0]
        measured.append(t if row.measures_target else n)
        keep.append((*range(t), n, *range(t + 1, n)) if row.measures_target else None)
    return vectors.reshape(len(specs), 4, 2), measured, keep


def _branches(states: np.ndarray, specs: Sequence[ProtocolSpec], ideal: bool) -> np.ndarray:
    # Each row of a (B, 2^n) stack through its gate steps, then measured:
    # the (B, 2, 2^n) unnormalized tilted branches, followed with `ideal`
    # by the two ideal ones, (B, 4, 2^n).  A caller that reads only the
    # tilted branches asks for those alone and pays for no ideal ones.
    pre = pre_measurement_state(states, specs)  # checks the stack and its specs
    n = linalg.n_qubits_of(pre.shape[1]) - 1
    vectors, measured, keep = _measurements(specs, n)
    basis = vectors if ideal else vectors[:, :2]
    return qcore.measure_branch(qcore.StateStack(pre), measured, basis, keep)


def run_protocol(
    states: PureState | np.ndarray, specs: ProtocolSpec | Sequence[ProtocolSpec]
) -> ProtocolResult:
    """Run one protocol on one register, or each row's protocol on a
    (B, 2^n) stack: the ProtocolResult of the run or of the stack."""
    amplitudes, specs, _, one = _runs(states, specs)
    branches = _branches(amplitudes, specs, ideal=True)
    inaccurate, ideal = branches[:, :2], branches[:, 2:]
    probs = np.einsum("bjm,bjm->bj", ideal.conj(), ideal).real
    ideal /= np.sqrt(probs)[..., None]
    result = ProtocolResult(ideal, probs, inaccurate)
    return _first(result) if one else result


def mean_gate_fidelity(result: ProtocolResult) -> float | np.ndarray:
    """Outcome-weighted squared overlap of ideal and inaccurate branches,
    a float for one run or one value per row of a stack's result.

    Computed as sum_j |<ideal_j | xi_j>|^2 with xi_j unnormalized, which
    carries the outcome probability weighting implicitly.
    """
    ideal, inaccurate = result.ideal_branches, result.inaccurate_branches
    overlap = np.einsum("...jm,...jm->...j", np.conj(ideal), inaccurate)
    fidelity = (overlap.real**2 + overlap.imag**2).sum(axis=-1)
    return float(fidelity) if fidelity.ndim == 0 else fidelity


def closed_form_fidelity(correlator: float, epsilon: float) -> float:
    """cos^2(e/2) + correlator^2 sin^2(e/2)."""
    # a range check only: F uses the correlator unclamped
    entropy._check_unit_interval(correlator, -1.0, 1.0, "correlator")
    return float(_closed_form(correlator, _finite(epsilon, "epsilon")))


def _closed_form(correlator, epsilon):
    # closed_form_fidelity unchecked, for one value or elementwise
    ce, se = np.cos(epsilon / 2.0), np.sin(epsilon / 2.0)
    return ce * ce + correlator * correlator * se * se


def error_operator(kind: ErrorKind, j: int, epsilon: float, delta: float) -> np.ndarray:
    """The generally non-unitary branch error operator

        cos(e/2) + (-1)^j P e^{(-1)^j i delta} sin(e/2)

    with P = X (X_TYPE, 2x2) or P = Z (x) Z (ZZ_TYPE, 4x4).
    """
    if _integer(j, "outcome") not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {j}")
    if kind not in _REDUCTIONS:
        raise ValueError(f"unknown error kind {kind}")
    pauli = _REDUCTIONS[kind].pauli
    epsilon, delta = _finite(epsilon, "epsilon"), _finite(delta, "delta")
    sign = (-1.0) ** j
    ce, se = np.cos(epsilon / 2.0), np.sin(epsilon / 2.0)
    return ce * np.eye(len(pauli), dtype=complex) + sign * np.exp(sign * 1j * delta) * se * pauli


# Each bound is 1 - measure sin^2(e/2), the measure taken from an entropy:
# S itself, or 1 - c^2 for the correlator c that f or g maps onto it.

def _purity_measure(S: float) -> float:
    return entropy._check_unit_interval(S, 0.0, 1.0, "S")


def _sv_measure(Sv: float) -> float:
    c = entropy.f_inverse(Sv)
    return 1.0 - c * c


def _sv2_measure(Sv2: float) -> float:
    c = entropy.g_inverse(Sv2)
    return 1.0 - c * c


def _bound(measure: float, se: float) -> float:
    # from se = sin(e/2)
    return float(1.0 - measure * se * se)


def bound_purity(S: float, epsilon: float) -> float:
    """Fidelity bound 1 - S sin^2(e/2) from the purity measure S."""
    return _bound(_purity_measure(S), np.sin(_finite(epsilon, "epsilon") / 2.0))


def bound_sv(Sv: float, epsilon: float) -> float:
    """Fidelity bound 1 - (1 - f_inverse(Sv)^2) sin^2(e/2)."""
    return _bound(_sv_measure(Sv), np.sin(_finite(epsilon, "epsilon") / 2.0))


def bound_sv2(Sv2: float, epsilon: float) -> float:
    """Fidelity bound 1 - (1 - g_inverse(Sv2)^2) sin^2(e/2), for Sv2 in [1, 2].

    Values below 1 raise BoundDomainError: no entropy of that size
    constrains the correlator, so no fidelity bound exists there.
    """
    return _bound(_sv2_measure(Sv2), np.sin(_finite(epsilon, "epsilon") / 2.0))


_MEASURES = {"purity_bound": _purity_measure, "sv_bound": _sv_measure, "sv2_bound": _sv2_measure}


def _bound_of(entropies: dict[str, float], se: float, name: str) -> float | None:
    value = entropies.get(name)
    return None if value is None else _bound(_MEASURES[name](value), se)


class FidelityReport(NamedTuple):
    """analyze() of one run, or of a stack of runs with a leading axis on
    every field: arrays of B values, lists of B reports and dicts, and the
    stack's ProtocolResult.

    A run's bounds are computed where they are read, from its sin(e/2) and
    the clamped entropies kept under the name of the bound they feed: the
    purity and sv bounds for a one-qubit reduction, the sv2 bound for a
    two-qubit one whose entropy lies in its domain.
    """

    simulated_F: float | np.ndarray
    closed_form_F: float | np.ndarray
    correlator_used: float | np.ndarray
    entanglement: EntanglementReport | list[EntanglementReport]
    bound_entropies: dict[str, float] | list[dict[str, float]]
    sin_half: float | np.ndarray  # sin(epsilon / 2)
    result: ProtocolResult  # the protocol run the fidelities come from

    def bound(self, name: str) -> float | None | list[float | None]:
        """The named bound, or None where it does not apply; one value per
        row of a stack."""
        if isinstance(self.bound_entropies, dict):
            return _bound_of(self.bound_entropies, self.sin_half, name)
        sin_half = self.sin_half.tolist()
        return [_bound_of(e, se, name) for e, se in zip(self.bound_entropies, sin_half)]

    @property
    def bounds(self) -> dict[str, float]:
        """Every bound that applies to one run."""
        if not isinstance(self.bound_entropies, dict):
            raise ValueError("bounds describe one run; read a stack's with bound(name)")
        return {name: self.bound(name) for name in self.bound_entropies}

    @property
    def violations(self) -> dict[str, float]:
        """Bound name -> excess, for each bound one run exceeds."""
        excess = {name: self.simulated_F - value for name, value in self.bounds.items()}
        return {name: value for name, value in excess.items() if value > BOUND_SLACK_TOL}


def _one_qubit_entropies(report: EntanglementReport) -> dict[str, float]:
    return {
        "purity_bound": min(max(report.purity_S, 0.0), 1.0),
        "sv_bound": min(max(report.von_neumann, 0.0), 1.0),
    }


def _two_qubit_entropies(report: EntanglementReport) -> dict[str, float]:
    sv2 = min(max(report.von_neumann, 0.0), 2.0)
    return {"sv2_bound": sv2} if sv2 >= entropy.SV2_DOMAIN_EDGE else {}


class _Reduction(NamedTuple):
    # the error operator's Pauli, on as many leading targets as the
    # register is reduced to
    pauli: np.ndarray
    entropies: Callable[[EntanglementReport], dict[str, float]]


# Each error kind: its Pauli and its reduction shape
_REDUCTIONS = {
    ErrorKind.X_TYPE: _Reduction(qcore.gate("X"), _one_qubit_entropies),
    ErrorKind.ZZ_TYPE: _Reduction(
        np.kron(qcore.gate("Z"), qcore.gate("Z")), _two_qubit_entropies
    ),
}


def analyze(
    states: PureState | np.ndarray, specs: ProtocolSpec | Sequence[ProtocolSpec]
) -> FidelityReport:
    """Run a protocol and compare its fidelity against the applicable
    bounds, for one register or for each row of a (B, 2^n) stack.

    The reduced input state is taken on the first target (bit-flip-error
    protocols) or on the target pair (the CZSWAP two-qubit gate).  One
    simulation runs the whole stack; each reduction shape then runs once,
    over only the rows of its error kind, and not at all where there are
    none.  A stack of no rows gives a report of no rows.
    """
    amplitudes, specs, _, one = _runs(states, specs)
    result = run_protocol(amplitudes, specs)
    reports: list = [None] * len(specs)
    bound_entropies: list = [None] * len(specs)
    for error, reduction in _REDUCTIONS.items():
        rows = [b for b, spec in enumerate(specs) if _PROTOCOLS[spec.kind].error is error]
        if not rows:
            continue
        width = linalg.n_qubits_of(len(reduction.pauli))
        keeps = [specs[b].targets[:width] for b in rows]
        rho = linalg.partial_trace(amplitudes[rows], keeps)
        for b, report in zip(rows, entropy.entanglement_reports(rho)):
            reports[b] = report
            bound_entropies[b] = reduction.entropies(report)
    corr = np.array([min(max(report.correlator, -1.0), 1.0) for report in reports])
    epsilon = np.array([spec.epsilon for spec in specs])
    report = FidelityReport(
        simulated_F=mean_gate_fidelity(result),
        closed_form_F=_closed_form(corr, epsilon),
        correlator_used=corr,
        entanglement=reports,
        bound_entropies=bound_entropies,
        sin_half=np.sin(epsilon / 2.0),
        result=result,
    )
    return _first(report) if one else report
