"""Dense complex linear algebra kernel for small qubit registers.

Convention used throughout the package: qubit 0 is the most significant
bit of an amplitude (or matrix) index, so an n-qubit vector reshaped to
shape [2]*n exposes qubit k as axis k.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

MAX_QUBITS = 8
MAX_EIG_DIM = 16
HERMITIAN_TOL = 1e-10
OFFDIAG_TARGET = 1e-14


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two complex matrices (or vectors)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def n_qubits_of(dim: int) -> int:
    """Number of qubits for a dimension that must be a power of two."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def hermiticity_defect(m: np.ndarray) -> float:
    """max |M[i,j] - conj(M[j,i])| over all entries."""
    m = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(m - m.conj().T)))


def _check_keep(keep: Sequence[int], n: int) -> list[int]:
    keep = [int(k) for k in keep]
    if not keep:
        raise ValueError("keep must name at least one qubit")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate qubit indices in keep={keep}")
    for k in keep:
        if not 0 <= k < n:
            raise ValueError(f"qubit index {k} out of range for {n} qubits")
    return keep


def partial_trace(state: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix on the kept qubits, in the order given.

    Accepts a pure-state amplitude vector (1-d) or a density matrix (2-d).
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        n = n_qubits_of(state.shape[0])
        keep = _check_keep(keep, n)
        rest = [q for q in range(n) if q not in keep]
        psi = state.reshape([2] * n).transpose(keep + rest)
        m = psi.reshape(2 ** len(keep), -1)
        rho = m @ m.conj().T
    elif state.ndim == 2:
        if state.shape[0] != state.shape[1]:
            raise ValueError("density matrix must be square")
        n = n_qubits_of(state.shape[0])
        keep = _check_keep(keep, n)
        rest = [q for q in range(n) if q not in keep]
        perm = keep + rest + [n + q for q in keep] + [n + q for q in rest]
        dk, dr = 2 ** len(keep), 2 ** len(rest)
        t = state.reshape([2] * (2 * n)).transpose(perm).reshape(dk, dr, dk, dr)
        rho = np.einsum("ajbj->ab", t)
    else:
        raise ValueError("state must be a vector or a square matrix")
    return 0.5 * (rho + rho.conj().T)


def jacobi_eigh(
    m: np.ndarray,
    target: float = OFFDIAG_TARGET,
    max_sweeps: int = 60,
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix by cyclic complex plane rotations.

    Each rotation zeroes one off-diagonal pivot: the pivot's phase is
    absorbed into the rotation so the remaining 2x2 problem is real, then
    the smaller-angle root of the usual tangent equation is taken, so the
    pivot block's diagonal becomes (a_pp - t|a_pq|, a_qq + t|a_pq|).
    Sweeps repeat until the off-diagonal Frobenius norm drops below
    `target`; input with non-finite entries is rejected.

    The rotations run on nested lists of Python complex scalars: at these
    sizes (at most MAX_EIG_DIM) numpy's per-call overhead on row and
    column slices would cost more than the arithmetic.

    Returns (eigenvalues ascending, unitary with eigenvectors as columns),
    satisfying m @ v == v @ diag(w) up to roundoff.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    if n > MAX_EIG_DIM:
        raise ValueError(f"dimension {n} exceeds eigensolver limit {MAX_EIG_DIM}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    if hermiticity_defect(a) > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    a = (0.5 * (a + a.conj().T)).tolist()
    v = [[1.0 + 0j if i == j else 0j for j in range(n)] for i in range(n)]
    # Row lists are updated in place, so each pivot's untouched rows can be
    # listed once; the matrix stays Hermitian, so rows p and q are written
    # as the conjugates of columns p and q.
    pivots = [
        (p, q, a[p], a[q], [(i, a[i]) for i in range(n) if i != p and i != q])
        for p in range(n - 1)
        for q in range(p + 1, n)
    ]
    pivot_floor = target / (4.0 * n * n)
    for _ in range(max_sweeps):
        # Summed directly over the entries above the diagonal (twice, for
        # the Hermitian mirror); subtracting the diagonal share from the
        # total hits a cancellation floor near sqrt(eps)*|A|.
        off = 0.0
        for p, q, ap, _, _ in pivots:
            x = ap[q]
            off += x.real * x.real + x.imag * x.imag
        if math.sqrt(2.0 * off) <= target:
            break
        for p, q, ap, aq, rest in pivots:
            apq = ap[q]
            r = abs(apq)
            if r <= pivot_floor:
                continue
            phase = apq / r
            app, aqq = ap[p].real, aq[q].real
            tau = (aqq - app) / (2.0 * r)
            if tau == 0.0:
                t = 1.0
            else:
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            # W = [[c, s], [-s conj(phase), c conj(phase)]] on columns p, q
            w10, w11 = -s * phase.conjugate(), c * phase.conjugate()
            for i, row in rest:
                x, y = row[p], row[q]
                xp, yq = x * c + y * w10, x * s + y * w11
                row[p], row[q] = xp, yq
                ap[i], aq[i] = xp.conjugate(), yq.conjugate()
            ap[p] = complex(app - t * r)
            aq[q] = complex(aqq + t * r)
            ap[q] = aq[p] = 0j
            for row in v:
                x, y = row[p], row[q]
                row[p], row[q] = x * c + y * w10, x * s + y * w11
    else:
        raise ArithmeticError("plane-rotation eigensolver did not converge")
    w = [a[i][i].real for i in range(n)]
    order = sorted(range(n), key=w.__getitem__)  # stable, like argsort
    return (
        np.array([w[i] for i in order]),
        np.array([[row[i] for i in order] for row in v], dtype=complex),
    )


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending."""
    w, _ = jacobi_eigh(m)
    return w
