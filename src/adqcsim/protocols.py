"""The five measurement-driven gate protocols, their mean gate fidelity,
the closed-form fidelity, outcome-dependent error operators, and the
entanglement-based fidelity bounds.

Every protocol couples a fresh |+> ancilla to one or two register qubits
and measures a single qubit afterwards:

  ONEWAY_ROTATION      CZ(target, ancilla), measure the *target* in the
                       tilted equatorial basis; the ancilla then takes
                       the measured qubit's logical slot.
  ADQC_ROTATION_CZ     (H (x) H) . CZ on (target, ancilla), measure the
                       ancilla in the tilted equatorial basis.
  ADQC_ROTATION_CZSWAP CZSWAP(target, ancilla), measure the ancilla in
                       the tilted equatorial basis.
  ADQC_CZ_GATE         (H (x) H) . CZ on (target1, ancilla) then on
                       (target2, ancilla), measure the ancilla in the
                       tilted computational basis.
  ADQC_CZSWAP_GATE     CZSWAP(ancilla, target1), (ancilla, target2),
                       (ancilla, target1), measure the ancilla in the
                       tilted computational basis.

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


ROTATION_KINDS = frozenset(
    {
        ProtocolKind.ONEWAY_ROTATION,
        ProtocolKind.ADQC_ROTATION_CZ,
        ProtocolKind.ADQC_ROTATION_CZSWAP,
    }
)
# Protocols whose measurement error acts as a bit flip on the first target.
X_ERROR_KINDS = ROTATION_KINDS | {ProtocolKind.ADQC_CZ_GATE}


class ErrorKind(Enum):
    X_TYPE = "X_TYPE"
    ZZ_TYPE = "ZZ_TYPE"


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
        if self.kind in ROTATION_KINDS:
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
    if spec.kind in ROTATION_KINDS:
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
    kind = spec.kind
    if kind is ProtocolKind.ONEWAY_ROTATION:
        vec = qcore.apply_matrix(vec, qcore.gate("CZ"), (spec.targets[0], anc), n + 1)
    elif kind is ProtocolKind.ADQC_ROTATION_CZ:
        vec = qcore.apply_matrix(vec, qcore.gate("E_CZ"), (spec.targets[0], anc), n + 1)
    elif kind is ProtocolKind.ADQC_ROTATION_CZSWAP:
        vec = qcore.apply_matrix(vec, qcore.gate("CZSWAP"), (spec.targets[0], anc), n + 1)
    elif kind is ProtocolKind.ADQC_CZ_GATE:
        e = qcore.gate("E_CZ")
        vec = qcore.apply_matrix(vec, e, (spec.targets[0], anc), n + 1)
        vec = qcore.apply_matrix(vec, e, (spec.targets[1], anc), n + 1)
    elif kind is ProtocolKind.ADQC_CZSWAP_GATE:
        cs = qcore.gate("CZSWAP")
        t1, t2 = spec.targets
        vec = qcore.apply_matrix(vec, cs, (anc, t1), n + 1)
        vec = qcore.apply_matrix(vec, cs, (anc, t2), n + 1)
        vec = qcore.apply_matrix(vec, cs, (anc, t1), n + 1)
    else:  # pragma: no cover
        raise ValueError(f"unknown protocol kind {kind}")
    return PureState(n + 1, vec)


def _branch_vectors(
    pre: PureState, measured: int, basis: MeasurementBasis, relabel_from: int | None,
    relabel_to: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    b0, b1 = qcore.measure_branch(pre, measured, basis)
    out = []
    n = pre.n_qubits - 1
    for b in (b0, b1):
        vec = b.vector
        if relabel_from is not None:
            vec = np.moveaxis(vec.reshape([2] * n), relabel_from, relabel_to).reshape(-1)
        out.append(vec)
    return out[0], out[1]


def run_protocol(input_state: PureState, spec: ProtocolSpec) -> ProtocolResult:
    """Run one protocol, returning ideal and inaccurate branches per outcome."""
    n = input_state.n_qubits
    pre = pre_measurement_state(input_state, spec)
    tilted, ideal = _measurement_bases(spec)
    if spec.kind is ProtocolKind.ONEWAY_ROTATION:
        # Target is measured away; the ancilla (now the last qubit of the
        # branch) is moved into the target's logical slot.
        measured = spec.targets[0]
        relabel = (n - 1, spec.targets[0])
    else:
        measured = n
        relabel = (None, None)
    xi0, xi1 = _branch_vectors(pre, measured, tilted, *relabel)
    id0, id1 = _branch_vectors(pre, measured, ideal, *relabel)
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
    if not -1.0 - 1e-12 <= correlator <= 1.0 + 1e-12:
        raise ValueError(f"correlator {correlator} outside [-1, 1]")
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
    if not -1e-12 <= S <= 1.0 + 1e-12:
        raise ValueError(f"S={S} outside [0, 1]")
    se = np.sin(epsilon / 2.0)
    return float(1.0 - min(max(S, 0.0), 1.0) * se * se)


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
    if spec.kind in X_ERROR_KINDS:
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
