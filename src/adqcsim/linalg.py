"""Dense complex linear algebra kernel for small qubit registers.

Convention used throughout the package: qubit 0 is the most significant
bit of an amplitude (or matrix) index, so an n-qubit vector reshaped to
shape [2]*n exposes qubit k as axis k.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

MAX_QUBITS = 8
MAX_EIG_DIM = 16
HERMITIAN_TOL = 1e-10
OFFDIAG_TARGET = 1e-14
_MAX_SWEEPS = 60


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
    """max |M[i,j] - conj(M[j,i])| over all entries, of one matrix or of
    every matrix of a (B, d, d) stack."""
    m = np.asarray(m, dtype=complex)
    return float(abs(m - m.conj().swapaxes(-1, -2)).max())


@lru_cache(maxsize=4096)
def _index_table(n: int, order: tuple[int, ...]) -> np.ndarray:
    # amplitude index of each entry of an n-qubit vector whose qubit axes
    # are transposed into `order`; built once per (n, order), read-only
    table = np.arange(2**n).reshape([2] * n).transpose(order).reshape(-1)
    table.flags.writeable = False
    return table


def permute_qubits(
    states: np.ndarray, orders: Sequence[Sequence[int]], inverse: bool = False
) -> np.ndarray:
    """Rows of a (B, 2^n) stack with row b's qubit axes transposed into
    `orders[b]`, one gather over index tables cached per (n, order).

    Row b of the result is states[b].reshape([2]*n).transpose(orders[b])
    flattened, so the qubits listed first become the most significant.
    With `inverse`, the rows are transposed back instead (one scatter over
    the same tables).
    """
    states = np.asarray(states)
    rows, dim = states.shape
    n = n_qubits_of(dim)
    if len(orders) != rows:
        raise ValueError(f"{len(orders)} qubit orders for {rows} rows")
    first = tuple(orders[0])
    if rows == 1 or all(tuple(o) == first for o in orders):
        tables = _index_table(n, first)
        if not inverse:
            return states[:, tables]
        out = np.empty_like(states)
        out[:, tables] = states
        return out
    tables = np.stack([_index_table(n, tuple(o)) for o in orders])
    tables += np.arange(0, rows * dim, dim)[:, None]
    if not inverse:
        return states.reshape(-1)[tables]
    out = np.empty_like(states)
    out.reshape(-1)[tables] = states
    return out


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


@lru_cache(maxsize=4096)
def _keep_first(n: int, keep: tuple[int, ...]) -> tuple[int, ...]:
    # the kept qubits in the order given, then the rest ascending
    keep = tuple(_check_keep(keep, n))
    return keep + tuple(q for q in range(n) if q not in keep)


def partial_trace(state: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix on the kept qubits, in the order given.

    Accepts a pure-state amplitude vector (1-d) or a density matrix (2-d).
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return partial_traces(state[None], [keep])[0]
    if state.ndim == 2:
        if state.shape[0] != state.shape[1]:
            raise ValueError("density matrix must be square")
        n = n_qubits_of(state.shape[0])
        keep = _check_keep(keep, n)
        rest = [q for q in range(n) if q not in keep]
        perm = keep + rest + [n + q for q in keep] + [n + q for q in rest]
        dk, dr = 2 ** len(keep), 2 ** len(rest)
        t = state.reshape([2] * (2 * n)).transpose(perm).reshape(dk, dr, dk, dr)
        rho = np.einsum("ajbj->ab", t)
        return 0.5 * (rho + rho.conj().T)
    raise ValueError("state must be a vector or a square matrix")


def partial_traces(states: np.ndarray, keeps: Sequence[Sequence[int]]) -> np.ndarray:
    """Reduced density matrices of the rows of a (B, 2^n) stack of pure
    states, row b on the qubits `keeps[b]` in the order given; every row
    keeps the same number of qubits."""
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2:
        raise ValueError("states must be a (B, 2^n) stack")
    n = n_qubits_of(states.shape[1])
    orders = [_keep_first(n, tuple(keep)) for keep in keeps]
    k = len(keeps[0]) if orders else 0
    if any(len(keep) != k for keep in keeps):
        raise ValueError("every row must keep the same number of qubits")
    m = permute_qubits(states, orders).reshape(len(orders), 2**k, -1)
    rho = m @ m.conj().swapaxes(1, 2)
    return 0.5 * (rho + rho.conj().swapaxes(1, 2))


def jacobi_eigh(m: np.ndarray, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Diagonalize a Hermitian matrix, or every matrix of a (B, d, d)
    stack, by cyclic complex plane rotations.

    Each rotation zeroes one off-diagonal pivot: the pivot's phase is
    absorbed into the rotation so the remaining 2x2 problem is real, then
    the smaller-angle root of the usual tangent equation is taken, so the
    pivot block's diagonal becomes (a_pp - t|a_pq|, a_qq + t|a_pq|).
    Sweeps repeat until the off-diagonal Frobenius norm drops below
    OFFDIAG_TARGET; a matrix that has not converged within _MAX_SWEEPS
    sweeps raises ArithmeticError.  A diagonal matrix stops before the
    first sweep, with its diagonal as the eigenvalues.

    The input is checked once, whole: square, at most MAX_EIG_DIM,
    finite, and Hermitian within HERMITIAN_TOL; it is then made exactly
    Hermitian and each matrix is solved on its own.  The rotations run on
    nested lists of Python complex scalars: at these sizes numpy's
    per-call overhead on row and column slices would cost more than the
    arithmetic.

    Returns (eigenvalues ascending, unitary with eigenvectors as columns),
    satisfying m @ v == v @ diag(w) up to roundoff, each with the input's
    leading axis.  With `vectors` false the rotations are not accumulated
    and the second item is None; the eigenvalues are the same bit for bit.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    n = a.shape[-1]
    if n > MAX_EIG_DIM:
        raise ValueError(f"dimension {n} exceeds eigensolver limit {MAX_EIG_DIM}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    if hermiticity_defect(a) > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    hermitian = 0.5 * (a + a.conj().swapaxes(-1, -2))
    pairs = [_jacobi(x, vectors=vectors) for x in hermitian.reshape(-1, n, n).tolist()]
    w = np.array([values for values, _ in pairs]).reshape(a.shape[:-1])
    if not vectors:
        return w, None
    return w, np.array([v for _, v in pairs], dtype=complex).reshape(a.shape)


def _jacobi(
    a: list[list[complex]], *, vectors: bool
) -> tuple[list[float], list[list[complex]] | None]:
    # The rotation loop of jacobi_eigh, its one caller, on a matrix it has
    # already checked (square, at most MAX_EIG_DIM, finite) and made
    # exactly Hermitian, given as nested lists, which it overwrites.
    # Returns the eigenvalues ascending and, with `vectors`, the
    # eigenvector matrix as nested lists (else None: the rotations are not
    # accumulated at all).
    n = len(a)
    v = [[1.0 + 0j if i == j else 0j for j in range(n)] for i in range(n)] if vectors else None
    # The diagonal is real (the caller symmetrised the matrix), so it is
    # kept as floats apart from the matrix, whose diagonal goes stale.
    d = [a[i][i].real for i in range(n)]
    # Row lists are updated in place, so each pivot's untouched rows can be
    # listed once; the matrix stays Hermitian, so rows p and q are written
    # as the conjugates of columns p and q.
    pivots = [
        (p, q, a[p], a[q], [(i, a[i]) for i in range(n) if i != p and i != q])
        for p in range(n - 1)
        for q in range(p + 1, n)
    ]
    pivot_floor = OFFDIAG_TARGET / (4.0 * n * n)
    for _ in range(_MAX_SWEEPS):
        # Summed directly over the entries above the diagonal (twice, for
        # the Hermitian mirror); subtracting the diagonal share from the
        # total hits a cancellation floor near sqrt(eps)*|A|.
        off = 0.0
        for p, q, ap, _, _ in pivots:
            x = ap[q]
            off += x.real * x.real + x.imag * x.imag
        if math.sqrt(2.0 * off) <= OFFDIAG_TARGET:
            break
        for p, q, ap, aq, rest in pivots:
            apq = ap[q]
            r = abs(apq)
            if r <= pivot_floor:
                continue
            phase = (apq / r).conjugate()
            app, aqq = d[p], d[q]
            tau = (aqq - app) / (2.0 * r)
            if tau == 0.0:
                t = 1.0
            else:
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            # W = [[c, s], [-s conj(apq/r), c conj(apq/r)]] on columns p, q
            w10, w11 = -s * phase, c * phase
            for i, row in rest:
                x, y = row[p], row[q]
                xp, yq = x * c + y * w10, x * s + y * w11
                row[p], row[q] = xp, yq
                ap[i], aq[i] = xp.conjugate(), yq.conjugate()
            d[p] = app - t * r
            d[q] = aqq + t * r
            ap[q] = aq[p] = 0j
            if vectors:
                for row in v:
                    x, y = row[p], row[q]
                    row[p], row[q] = x * c + y * w10, x * s + y * w11
    else:
        raise ArithmeticError("plane-rotation eigensolver did not converge")
    order = sorted(range(n), key=d.__getitem__)  # stable, like argsort
    return [d[i] for i in order], [[row[i] for i in order] for row in v] if vectors else None
