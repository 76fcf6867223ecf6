"""Qubit states, the fixed gate set, tilted measurement bases, and
single-qubit measurement branch extraction.

Measurements are represented by their two branches: applying the bra of
a basis vector to the measured qubit removes that qubit from the
register (indices above it shift down by one) and leaves an
unnormalized vector whose squared norm is the outcome probability.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import linalg

NORM_TOL = 1e-12

_SQ2 = 1.0 / np.sqrt(2.0)

_GATES: dict[str, np.ndarray] = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2,
    "1": np.eye(2, dtype=complex),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
    # |00><00| + |01><10| + |10><01| - |11><11|
    "CZSWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]], dtype=complex
    ),
}
_GATES["E_CZ"] = np.kron(_GATES["H"], _GATES["H"]) @ _GATES["CZ"]


def gate(name: str) -> np.ndarray:
    """Unitary matrix for a named gate: X, Y, Z, H, 1, CZ, SWAP, CZSWAP, E_CZ.

    E_CZ is (H (x) H) . CZ on (register qubit, ancilla) ordering.
    """
    try:
        return _GATES[name].copy()
    except KeyError:
        raise ValueError(f"unknown gate name {name!r}") from None


def j_gate(u: float) -> np.ndarray:
    """The rotation H . diag(e^{iu/2}, e^{-iu/2})."""
    return _GATES["H"] @ np.diag([np.exp(0.5j * u), np.exp(-0.5j * u)])


@dataclass
class PureState:
    """Normalized amplitude vector over n qubits (qubit 0 = MSB)."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if not 1 <= self.n_qubits <= linalg.MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {linalg.MAX_QUBITS}]")
        if self.amplitudes.shape[0] != 2**self.n_qubits:
            raise ValueError("amplitude vector length does not match qubit count")
        norm2 = float(np.vdot(self.amplitudes, self.amplitudes).real)
        if not abs(norm2 - 1.0) <= NORM_TOL:  # NaN or inf amplitudes fail too
            raise ValueError(f"state is not normalized: |psi|^2 = {norm2}")

    @classmethod
    def from_vector(cls, amplitudes: np.ndarray) -> "PureState":
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        return cls(linalg.n_qubits_of(vec.shape[0]), vec)


def basis_state(n_qubits: int, index: int) -> PureState:
    """Computational basis state |index> on n qubits."""
    vec = np.zeros(2**n_qubits, dtype=complex)
    vec[index] = 1.0
    return PureState(n_qubits, vec)


@dataclass
class MeasurementBasis:
    """Ordered orthonormal single-qubit pair (outcome 0, outcome 1)."""

    plus_vector: np.ndarray
    minus_vector: np.ndarray
    u: float | None
    epsilon: float
    delta: float

    def __post_init__(self):
        self.plus_vector = np.asarray(self.plus_vector, dtype=complex).reshape(2)
        self.minus_vector = np.asarray(self.minus_vector, dtype=complex).reshape(2)
        for v in (self.plus_vector, self.minus_vector):
            if abs(float(np.vdot(v, v).real) - 1.0) > NORM_TOL:
                raise ValueError("basis vector is not normalized")
        if abs(np.vdot(self.plus_vector, self.minus_vector)) > NORM_TOL:
            raise ValueError("basis vectors are not orthogonal")

    @property
    def params(self) -> tuple[float | None, float, float]:
        return (self.u, self.epsilon, self.delta)

    def vector(self, outcome: int) -> np.ndarray:
        return self.plus_vector if outcome == 0 else self.minus_vector


def deviated_u_basis(u: float, epsilon: float, delta: float) -> MeasurementBasis:
    """Equatorial basis (|0> +- e^{iu}|1>)/sqrt(2), tilted by (epsilon, delta):

        plus  = cos(e/2)|u+> + e^{-i delta} sin(e/2)|u->
        minus = sin(e/2)|u+> - e^{-i delta} cos(e/2)|u->
    """
    u_plus = np.array([1.0, np.exp(1j * u)], dtype=complex) * _SQ2
    u_minus = np.array([1.0, -np.exp(1j * u)], dtype=complex) * _SQ2
    ce, se = np.cos(epsilon / 2.0), np.sin(epsilon / 2.0)
    ph = np.exp(-1j * delta)
    return MeasurementBasis(
        plus_vector=ce * u_plus + ph * se * u_minus,
        minus_vector=se * u_plus - ph * ce * u_minus,
        u=float(u),
        epsilon=float(epsilon),
        delta=float(delta),
    )


def deviated_z_basis(epsilon: float, delta: float) -> MeasurementBasis:
    """Computational basis tilted by (epsilon, delta):

        |0~> = cos(e/2)|0> + sin(e/2) e^{-i delta}|1>
        |1~> = sin(e/2)|0> - cos(e/2) e^{-i delta}|1>
    """
    ce, se = np.cos(epsilon / 2.0), np.sin(epsilon / 2.0)
    ph = np.exp(-1j * delta)
    return MeasurementBasis(
        plus_vector=np.array([ce, se * ph], dtype=complex),
        minus_vector=np.array([se, -ce * ph], dtype=complex),
        u=None,
        epsilon=float(epsilon),
        delta=float(delta),
    )


@dataclass
class BranchState:
    """Post-measurement branch for one outcome; vector may be unnormalized."""

    outcome: int
    vector: np.ndarray
    probability: float = field(init=False)

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=complex).reshape(-1)
        self.probability = float(np.vdot(self.vector, self.vector).real)


def _check_targets(targets: Sequence[int], n: int) -> list[int]:
    targets = [int(t) for t in targets]
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits {targets}")
    for t in targets:
        if not 0 <= t < n:
            raise ValueError(f"target qubit {t} out of range for {n} qubits")
    return targets


def apply_matrix(
    vec: np.ndarray, op: np.ndarray, targets: Sequence[int], n_qubits: int
) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to the listed qubits of a raw vector.

    The first listed qubit is the most significant index of `op`.  The
    matrix need not be unitary (error operators use this path too).
    """
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    op = np.asarray(op, dtype=complex)
    targets = _check_targets(targets, n_qubits)
    k = len(targets)
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {op.shape} does not act on {k} qubits")
    psi = vec.reshape([2] * n_qubits)
    psi = np.moveaxis(psi, targets, range(k))
    psi = (op @ psi.reshape(2**k, -1)).reshape([2] * n_qubits)
    psi = np.moveaxis(psi, range(k), targets)
    return psi.reshape(-1)


def apply_gate(state: PureState, op: np.ndarray, targets: Sequence[int]) -> PureState:
    """Apply a unitary on the listed qubits of a normalized state."""
    out = apply_matrix(state.amplitudes, op, targets, state.n_qubits)
    return PureState(state.n_qubits, out)


def measure_branch(
    state: PureState, qubit: int, basis: MeasurementBasis
) -> tuple[BranchState, BranchState]:
    """Both measurement branches of one qubit in the given basis.

    Branch j carries (<basis_j| on the measured qubit (x) identity
    elsewhere) applied to the state; the measured qubit is removed and
    the remaining qubits shift down to fill its place.
    """
    n = state.n_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    psi = state.amplitudes.reshape([2] * n)
    branches = []
    for j in range(2):
        bra = basis.vector(j).conj()
        v = np.tensordot(bra, psi, axes=([0], [qubit]))
        branches.append(BranchState(outcome=j, vector=v.reshape(-1)))
    return branches[0], branches[1]


def phase_aligned_max_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - e^{it} b| with the phase chosen to maximize the overlap.

    Zero when the vectors agree up to a global phase; stable down to
    roundoff (no cancellation through norms).
    """
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if a.shape != b.shape:
        raise ValueError("vectors must have the same dimension")
    ov = np.vdot(b, a)
    if abs(ov) < 1e-300:
        return float(np.max(np.abs(a - b)))
    return float(np.max(np.abs(a - (ov / abs(ov)) * b)))


def random_pure_state(n_qubits: int, seed) -> PureState:
    """Haar-random pure state: normalized i.i.d. complex Gaussian amplitudes.

    `seed` may be an int or a sequence of ints (a derived stream key).
    """
    if not 1 <= n_qubits <= linalg.MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {linalg.MAX_QUBITS}]")
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(2**n_qubits) + 1j * rng.standard_normal(2**n_qubits)
    vec /= np.linalg.norm(vec)
    return PureState(n_qubits, vec)
