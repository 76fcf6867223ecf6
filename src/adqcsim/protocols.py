"""The five measurement-driven gate protocols, their mean gate fidelity,
the closed-form fidelity, outcome-dependent error operators, and the
entanglement-based fidelity bounds.

Every protocol couples a fresh |+> ancilla to one or two register qubits
and measures a single qubit afterwards; `_PROTOCOLS` holds one row per
protocol: its gate sequence, its measurement basis and its error operator.

With an accurate measurement the branches realize X^j J(u) on the target
(rotations), X1^j H1 H2 CZ12 (CZ gate) or (Z1 Z2)^j SWAP12 CZ12 (CZSWAP
gate), up to a global phase per branch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import entropy, linalg, qcore
from .entropy import BoundDomainError, EntanglementReport
from .qcore import MeasurementBasis, PureState

BOUND_SLACK_TOL = 1e-9


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


@dataclass
class ProtocolSpec:
    """One protocol invocation: kind, register target(s), and angles."""

    kind: ProtocolKind
    targets: tuple[int, ...]
    u: float | None = None
    epsilon: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        self.targets = tuple(int(t) for t in self.targets)
        for name in ("u", "epsilon", "delta"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name}={value} is not finite")
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


@dataclass
class ProtocolResult:
    """Per-outcome branches of one protocol run.

    ideal_branches hold the normalized outputs of the accurate-measurement
    circuit; inaccurate_branches are the unnormalized tilted-measurement
    branches, whose squared norms are the outcome probabilities.
    """

    ideal_branches: tuple[PureState, PureState]
    ideal_probabilities: tuple[float, float]
    inaccurate_branches: tuple[np.ndarray, np.ndarray]
    target_register_size: int


@dataclass
class Violation:
    name: str
    excess: float


@dataclass
class FidelityReport:
    simulated_F: float
    closed_form_F: float
    correlator_used: float
    entanglement: EntanglementReport
    bounds: dict[str, float]
    result: ProtocolResult  # the protocol run the fidelities come from
    violations: list[Violation] = field(default_factory=list)


def _measurement_bases(spec: ProtocolSpec) -> tuple[MeasurementBasis, MeasurementBasis]:
    # The ideal branch uses the epsilon=0 basis at the *same* delta, which
    # fixes the branch phases so that the error-operator factorization of
    # the inaccurate branches holds exactly, not just up to phase.
    if _PROTOCOLS[spec.kind].rotation:
        tilted = qcore.deviated_u_basis(spec.u, spec.epsilon, spec.delta)
        ideal = qcore.deviated_u_basis(spec.u, 0.0, spec.delta)
    else:
        tilted = qcore.deviated_z_basis(spec.epsilon, spec.delta)
        ideal = qcore.deviated_z_basis(0.0, spec.delta)
    return tilted, ideal


def pre_measurement_state(input_state: PureState, spec: ProtocolSpec) -> PureState:
    """Register-plus-ancilla state right before the measurement."""
    n = input_state.n_qubits
    if n + 1 > linalg.MAX_QUBITS:
        raise ValueError(f"register of {n} qubits plus ancilla exceeds {linalg.MAX_QUBITS}")
    for t in spec.targets:
        if not 0 <= t < n:
            raise ValueError(f"target {t} out of range for {n} qubits")
    anc = n
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    vec = np.kron(input_state.amplitudes, plus)
    for name, wires in _PROTOCOLS[spec.kind].gates:
        qubits = tuple(anc if w == _ANCILLA else spec.targets[w] for w in wires)
        vec = qcore.apply_matrix(vec, qcore.gate(name), qubits, n + 1)
    return PureState(n + 1, vec)


def _branch_vectors(
    pre: PureState, measured: int, basis: MeasurementBasis, slot: int | None
) -> tuple[np.ndarray, np.ndarray]:
    # With a slot, the ancilla (the last qubit of each branch) moves into it.
    n = pre.n_qubits - 1
    out = []
    for b in qcore.measure_branch(pre, measured, basis):
        vec = b.vector
        if slot is not None:
            vec = np.moveaxis(vec.reshape([2] * n), n - 1, slot).reshape(-1)
        out.append(vec)
    return out[0], out[1]


def run_protocol(input_state: PureState, spec: ProtocolSpec) -> ProtocolResult:
    """Run one protocol, returning ideal and inaccurate branches per outcome."""
    n = input_state.n_qubits
    pre = pre_measurement_state(input_state, spec)
    tilted, ideal = _measurement_bases(spec)
    slot = spec.targets[0] if _PROTOCOLS[spec.kind].measures_target else None
    measured = n if slot is None else slot
    xi0, xi1 = _branch_vectors(pre, measured, tilted, slot)
    id0, id1 = _branch_vectors(pre, measured, ideal, slot)
    probs = []
    ideal_states = []
    for v in (id0, id1):
        p = float(np.vdot(v, v).real)
        probs.append(p)
        ideal_states.append(PureState(n, v / np.sqrt(p)))
    return ProtocolResult(
        ideal_branches=(ideal_states[0], ideal_states[1]),
        ideal_probabilities=(probs[0], probs[1]),
        inaccurate_branches=(xi0, xi1),
        target_register_size=n,
    )


def mean_gate_fidelity(result: ProtocolResult) -> float:
    """Outcome-weighted squared overlap of ideal and inaccurate branches.

    Computed as sum_j |<ideal_j | xi_j>|^2 with xi_j unnormalized, which
    carries the outcome probability weighting implicitly.
    """
    total = 0.0
    for phi, xi in zip(result.ideal_branches, result.inaccurate_branches):
        total += abs(np.vdot(phi.amplitudes, xi)) ** 2
    return float(total)


def closed_form_fidelity(correlator: float, epsilon: float) -> float:
    """cos^2(e/2) + correlator^2 sin^2(e/2)."""
    # a range check only: F uses the correlator unclamped
    entropy._check_unit_interval(correlator, -1.0, 1.0, "correlator")
    ce, se = np.cos(epsilon / 2.0), np.sin(epsilon / 2.0)
    return float(ce * ce + correlator * correlator * se * se)


def error_operator(kind: ErrorKind, j: int, epsilon: float, delta: float) -> np.ndarray:
    """The generally non-unitary branch error operator

        cos(e/2) + (-1)^j P e^{(-1)^j i delta} sin(e/2)

    with P = X (X_TYPE, 2x2) or P = Z (x) Z (ZZ_TYPE, 4x4).
    """
    if j not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {j}")
    sign = (-1.0) ** j
    if kind is ErrorKind.X_TYPE:
        pauli = qcore.gate("X")
        eye = np.eye(2, dtype=complex)
    elif kind is ErrorKind.ZZ_TYPE:
        pauli = linalg.kron(qcore.gate("Z"), qcore.gate("Z"))
        eye = np.eye(4, dtype=complex)
    else:
        raise ValueError(f"unknown error kind {kind}")
    ce, se = np.cos(epsilon / 2.0), np.sin(epsilon / 2.0)
    return ce * eye + sign * np.exp(sign * 1j * delta) * se * pauli


def bound_purity(S: float, epsilon: float) -> float:
    """Fidelity bound 1 - S sin^2(e/2) from the purity measure S."""
    S = entropy._check_unit_interval(S, 0.0, 1.0, "S")
    se = np.sin(epsilon / 2.0)
    return float(1.0 - S * se * se)


def bound_sv(Sv: float, epsilon: float) -> float:
    """Fidelity bound 1 - (1 - f_inverse(Sv)^2) sin^2(e/2)."""
    c = entropy.f_inverse(Sv)
    se = np.sin(epsilon / 2.0)
    return float(1.0 - (1.0 - c * c) * se * se)


def bound_sv2(Sv2: float, epsilon: float) -> float:
    """Fidelity bound 1 - (1 - g_inverse(Sv2)^2) sin^2(e/2), for Sv2 in [1, 2].

    Values below 1 raise BoundDomainError: no entropy of that size
    constrains the correlator, so no fidelity bound exists there.
    """
    c = entropy.g_inverse(Sv2)
    se = np.sin(epsilon / 2.0)
    return float(1.0 - (1.0 - c * c) * se * se)


def analyze(input_state: PureState, spec: ProtocolSpec) -> FidelityReport:
    """Run a protocol and compare its fidelity against the applicable bounds.

    The reduced input state is taken on the first target (bit-flip-error
    protocols) or on the target pair (the CZSWAP two-qubit gate).
    """
    result = run_protocol(input_state, spec)
    simulated = mean_gate_fidelity(result)
    bounds: dict[str, float] = {}
    if _PROTOCOLS[spec.kind].error is ErrorKind.X_TYPE:
        rho = linalg.partial_trace(input_state.amplitudes, [spec.targets[0]])
        report = entropy.single_qubit_report(rho)
        s = min(max(report.purity_S, 0.0), 1.0)
        sv = min(max(report.von_neumann, 0.0), 1.0)
        bounds["purity_bound"] = bound_purity(s, spec.epsilon)
        bounds["sv_bound"] = bound_sv(sv, spec.epsilon)
    else:
        rho = linalg.partial_trace(input_state.amplitudes, list(spec.targets))
        report = entropy.two_qubit_report(rho)
        sv2 = min(max(report.von_neumann, 0.0), 2.0)
        if sv2 >= 1.0:
            bounds["sv2_bound"] = bound_sv2(sv2, spec.epsilon)
    corr = min(max(report.correlator, -1.0), 1.0)
    closed = closed_form_fidelity(corr, spec.epsilon)
    violations = [
        Violation(name=name, excess=simulated - value)
        for name, value in bounds.items()
        if simulated - value > BOUND_SLACK_TOL
    ]
    return FidelityReport(
        simulated_F=simulated,
        closed_form_F=closed,
        correlator_used=corr,
        entanglement=report,
        bounds=bounds,
        result=result,
        violations=violations,
    )
