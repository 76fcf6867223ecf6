"""Qubit states, the fixed gate set, tilted measurement bases, and
single-qubit measurement branch extraction.

A basis is a plain (2, 2) array, rows (outcome 0, outcome 1), or a stack
of them, all built by `tilted_vectors`.  Measurements are represented by
their two branches: applying the bra of a basis vector to the measured
qubit removes that qubit from the register (indices above it shift down
by one) and leaves an unnormalized vector whose squared norm is the
outcome probability.

`apply_matrix` takes one vector or a (B, 2^n) stack, `measure_branch` a
PureState or a StateStack, with per-row operators, targets and bases;
each row's qubits are brought into place by one gather over index tables
cached per (n, linalg.qubit_order), so every row costs the same
arithmetic as a lone vector.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
        check_qubit_count(self.n_qubits)
        if self.amplitudes.shape[0] != 2**self.n_qubits:
            raise ValueError("amplitude vector length does not match qubit count")
        norm2 = float(np.vdot(self.amplitudes, self.amplitudes).real)
        if not abs(norm2 - 1.0) <= NORM_TOL:  # NaN or inf amplitudes fail too
            raise ValueError(f"state is not normalized: |psi|^2 = {norm2}")

    @classmethod
    def from_vector(cls, amplitudes: np.ndarray) -> "PureState":
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        return cls(linalg.n_qubits_of(vec.shape[0]), vec)


def check_qubit_count(n_qubits: int) -> None:
    """Reject a register size outside [1, linalg.MAX_QUBITS]; callers check
    before they allocate 2^n amplitudes."""
    if not 1 <= n_qubits <= linalg.MAX_QUBITS:
        raise ValueError(f"n_qubits={n_qubits} out of range, outside [1, {linalg.MAX_QUBITS}]")


def basis_state(n_qubits: int, index: int) -> PureState:
    """Computational basis state |index> on n qubits."""
    check_qubit_count(n_qubits)
    if not 0 <= index < 2**n_qubits:
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    vec = np.zeros(2**n_qubits, dtype=complex)
    vec[index] = 1.0
    return PureState(n_qubits, vec)


class StateStack(NamedTuple):
    """n-qubit amplitude vectors as the rows of one (B, 2^n) array; built
    by the package from states it has already validated, so not checked."""

    n_qubits: int
    amplitudes: np.ndarray


Z_PAIR = np.eye(2, dtype=complex)  # rows |0>, |1>


def equatorial_pair(u) -> np.ndarray:
    """Rows |u+>, |u-> = (|0> +- e^{iu}|1>)/sqrt(2), one (2, 2) pair per u."""
    e = np.exp(1j * np.asarray(u, dtype=float))[..., None]
    return np.stack([np.concatenate([np.ones_like(e), e], -1),
                     np.concatenate([np.ones_like(e), -e], -1)], -2) * _SQ2


def tilted_vectors(reference: np.ndarray, epsilon, delta) -> np.ndarray:
    """Rows (plus, minus) of a reference pair (|r0>, |r1>) tilted by
    (epsilon, delta):

        plus  = cos(e/2)|r0> + e^{-i delta} sin(e/2)|r1>
        minus = sin(e/2)|r0> - e^{-i delta} cos(e/2)|r1>

    `reference` is one (2, 2) pair or a stack of them; epsilon and delta
    broadcast against its leading axes.
    """
    reference = np.asarray(reference, dtype=complex)
    ce = np.cos(np.asarray(epsilon, dtype=float) / 2.0)[..., None]
    se = np.sin(np.asarray(epsilon, dtype=float) / 2.0)[..., None]
    ph = np.exp(-1j * np.asarray(delta, dtype=float))[..., None]
    r0, r1 = reference[..., 0, :], reference[..., 1, :]
    return np.stack([ce * r0 + ph * se * r1, se * r0 - ph * ce * r1], axis=-2)


def deviated_u_basis(u: float, epsilon: float, delta: float) -> np.ndarray:
    """Equatorial basis (|0> +- e^{iu}|1>)/sqrt(2), tilted by (epsilon, delta),
    as the rows (outcome 0, outcome 1) of a (2, 2) array:

        plus  = cos(e/2)|u+> + e^{-i delta} sin(e/2)|u->
        minus = sin(e/2)|u+> - e^{-i delta} cos(e/2)|u->
    """
    return tilted_vectors(equatorial_pair(u), epsilon, delta)


def deviated_z_basis(epsilon: float, delta: float) -> np.ndarray:
    """Computational basis tilted by (epsilon, delta), as the rows
    (outcome 0, outcome 1) of a (2, 2) array:

        |0~> = cos(e/2)|0> + sin(e/2) e^{-i delta}|1>
        |1~> = sin(e/2)|0> - cos(e/2) e^{-i delta}|1>
    """
    return tilted_vectors(Z_PAIR, epsilon, delta)


def _rows(vec: np.ndarray, per_row: Sequence, what: str) -> np.ndarray:
    # a stack as it is, one vector as a stack of one; `per_row` must give
    # one entry for every row
    rows = vec if vec.ndim == 2 else vec.reshape(1, -1)
    if len(per_row) != len(rows):
        raise ValueError(f"{len(per_row)} {what} for {len(rows)} rows")
    return rows


def apply_matrix(
    vec: np.ndarray, op: np.ndarray, targets: Sequence, n_qubits: int
) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to the listed qubits of a raw vector, or of
    every row of a (B, 2^n) stack.

    The first listed qubit is the most significant index of `op`.  The
    matrix need not be unitary (error operators use this path too).  For a
    stack, `targets` holds one qubit list per row and `op` one matrix for
    all rows or one per row, (B, 2^k, 2^k).  A stack of no rows gives a
    stack of no rows.
    """
    vec = np.asarray(vec, dtype=complex)
    target_rows = targets if vec.ndim == 2 else [targets]
    rows = _rows(vec, target_rows, "target lists")
    if linalg.n_qubits_of(rows.shape[1]) != n_qubits:
        raise ValueError("vector length does not match qubit count")
    op = np.asarray(op, dtype=complex)
    if op.ndim not in (2, 3) or op.shape[-1] != op.shape[-2]:
        raise ValueError(f"operator shape {op.shape} is not a square matrix or a stack of them")
    k = linalg.n_qubits_of(op.shape[-1])
    if any(len(row) != k for row in target_rows):
        raise ValueError(f"operator shape {op.shape} acts on {k} qubits; every row must list {k}")
    orders = [linalg.qubit_order(n_qubits, tuple(row)) for row in target_rows]
    dim = rows.shape[1]
    psi = op @ linalg.permute_qubits(rows, orders).reshape(len(rows), 2**k, dim >> k)
    out = linalg.permute_qubits(psi.reshape(len(rows), dim), orders, inverse=True)
    return out if vec.ndim == 2 else out[0]


def apply_gate(state: PureState, op: np.ndarray, targets: Sequence[int]) -> PureState:
    """Apply a unitary on the listed qubits of a normalized state."""
    out = apply_matrix(state.amplitudes, op, targets, state.n_qubits)
    return PureState(state.n_qubits, out)


def measure_branch(
    state: PureState | StateStack,
    qubit: int | Sequence[int],
    basis: np.ndarray,
    keep: Sequence | None = None,
) -> np.ndarray:
    """Measurement branches of one qubit, for a state or every row of a stack.

    Branch j carries (<basis_j| on the measured qubit (x) identity
    elsewhere) applied to the state; the measured qubit is removed and the
    remaining qubits shift down to fill its place, or take the order
    `keep`.  Its squared norm is the probability of outcome j.

    `basis` is an array of J single-qubit vectors, (J, 2), such as a
    deviated basis, or one such array per row of a stack, (B, J, 2).  For
    a stack, `qubit` and `keep` (unless None) give one entry per row.
    Returns the branches as a (J, 2^(n-1)) array, or (B, J, 2^(n-1)) for a
    stack.
    """
    amplitudes = np.asarray(state.amplitudes, dtype=complex)
    stack = amplitudes.ndim == 2
    qubits = qubit if stack else [qubit]
    rows = _rows(amplitudes, qubits, "measured qubits")
    keeps = keep if stack and keep is not None else [keep] * len(rows)
    _rows(amplitudes, keeps, "qubit orders")
    orders = []
    for q, k in zip(qubits, keeps):
        # the measured qubit first, then `keep`, which must order all the others
        if k is not None and len(k) != state.n_qubits - 1:
            raise ValueError(f"keep={list(k)} must order the qubits other than {q}")
        orders.append(linalg.qubit_order(state.n_qubits, (q,) if k is None else (q, *k)))
    psi = linalg.permute_qubits(rows, orders).reshape(len(rows), 2, rows.shape[1] // 2)
    branches = np.asarray(basis, dtype=complex).conj() @ psi
    return branches if stack else branches[0]


def phase_aligned_max_diff(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """max |a - e^{it} b| with the phase chosen to maximize the overlap,
    for two vectors or row by row for two stacks of them.

    Zero when the vectors agree up to a global phase; stable down to
    roundoff (no cancellation through norms).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError("vectors must have the same dimension")
    ov = np.einsum("...i,...i->...", b.conj(), a)[..., None]
    size = np.abs(ov)
    phase = np.where(size < 1e-300, 1.0, ov / np.where(size < 1e-300, 1.0, size))
    diff = np.max(np.abs(a - phase * b), axis=-1)
    return float(diff) if a.ndim == 1 else diff


def random_pure_state(n_qubits: int, seed) -> PureState:
    """Haar-random pure state: normalized i.i.d. complex Gaussian amplitudes.

    `seed` may be an int or a sequence of ints (a derived stream key).
    """
    check_qubit_count(n_qubits)
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(2**n_qubits) + 1j * rng.standard_normal(2**n_qubits)
    vec /= np.linalg.norm(vec)
    return PureState(n_qubits, vec)
