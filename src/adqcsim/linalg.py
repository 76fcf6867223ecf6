"""Dense complex linear algebra kernel for small qubit registers, and the
checks every module applies to its integer, real and array inputs.

Convention used throughout the package: qubit 0 is the most significant
bit of an amplitude (or matrix) index, so an n-qubit vector reshaped to
shape [2]*n exposes qubit k as axis k.  Pure states are plain amplitude
vectors here, or the rows of one (B, 2^n) stack, which `partial_trace`,
the one partial trace, reduces in one gather.  Every gather table is
built here from `qubit_order`, the one definition of a qubit order, by
`_index_table`, cached per (n, qubit list).  A qubit list reaches its
table through `_tables`, the one check of qubit indices, and `_permute`
gathers a stack's qubits into place over them, for `_reduce`.
`_chain_tables` compiles the protocols' gate chains from the same
tables, once per register size: one int32 table per pair of qubit
orders, gathering straight from one gate step's order into the next's,
that a row finds by its chain, round and two targets.  `partial_trace`
checks its arguments, then calls `_reduce`, the kernel that the campaign
path calls on stacks the package built from checked inputs.
"""
from __future__ import annotations

import math
import numbers
from functools import lru_cache
from itertools import chain, product
from typing import Callable, Sequence

import numpy as np

MAX_QUBITS = 8
MAX_EIG_DIM = 4
HERMITIAN_TOL = 1e-10
OFFDIAG_TARGET = 1e-14
_MAX_SWEEPS = 60


def _integer(value, name: str) -> int:
    # bool is an int subclass, but True is no sample count, seed or qubit;
    # an exact int, the common case, skips the slower ABC test
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} {value!r} is not an integer")
    return int(value)


def _real(value, name: str) -> float:
    # bool is an int, so a Real, but True is no tolerance or angle; checked
    # before float(), which would turn True into 1.0 and "0.5" into 0.5;
    # an exact float, the common case, skips the slower ABC test
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} {value!r} is not a real number")
    return float(value)


def _finite(value, name: str) -> float:
    # an angle or a grid value: a real number (see _real), and finite
    value = _real(value, name)
    if not math.isfinite(value):
        raise ValueError(f"{name}={value} is not finite")
    return value


def _array(value, name: str, real: bool = False, finite: bool = False) -> np.ndarray:
    # An array argument as a complex128 array, or with `real` a float64
    # one: of numbers only (real ones with `real`; never bools, strings or
    # objects), and with `finite` of finite entries only.  The package's
    # one conversion of an argument: every failure, a ragged list numpy
    # cannot convert included, raises ValueError naming the argument.
    array = value
    if type(value) is not np.ndarray or value.dtype.char != ("d" if real else "D"):
        try:
            array = np.asarray(value)
        except ValueError:
            raise ValueError(f"{name} is not an array") from None
        if array.dtype.kind not in ("iuf" if real else "iufc"):
            raise ValueError(f"{name} is not an array of {'real ' if real else ''}numbers")
        array = array.astype(float if real else complex, copy=False)
    if finite and not np.isfinite(array).all():
        raise ValueError(f"{name} has non-finite entries")
    return array


def _sequence(values, name: str) -> tuple:
    # a sequence argument as a tuple; one that is no sequence raises
    try:
        return tuple(values)
    except TypeError:
        raise ValueError(f"{name} {values!r} is not a sequence") from None


def _entries(values, check: Callable, name: str) -> tuple:
    # a sequence argument, such as a grid or a target list: not empty, and
    # each entry through its check
    values = _sequence(values, name)
    if not values:
        raise ValueError(f"{name} must not be empty")
    return tuple(check(x, f"{name} entry") for x in values)


def n_qubits_of(dim: int) -> int:
    """Number of qubits for a dimension that must be a power of two."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def hermiticity_defect(m: np.ndarray) -> float:
    """max |M[i,j] - conj(M[j,i])| over all entries, of one matrix or of
    every matrix of a (B, d, d) stack; 0 for a stack of no matrices."""
    m = _array(m, "matrix")
    return float(abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0))


@lru_cache(maxsize=4096)
def _index_table(n: int, first: tuple[int, ...]) -> np.ndarray:
    # amplitude index of each entry of an n-qubit vector whose qubit axes
    # are transposed into qubit_order(n, first); built once per (n, first),
    # read-only.  Only _tables and _chain_tables call it, with exact ints:
    # 1.0 and True would find the table of the equal int 1.
    order = qubit_order(n, first)
    table = np.arange(2**n).reshape([2] * n).transpose(order).reshape(-1)
    table.flags.writeable = False
    return table


def _tables(n: int, firsts: Sequence[Sequence[int]]) -> np.ndarray:
    # the gather tables for one list per row of qubits to move to the
    # front: the list's (2^n,) table when every row has the same one, else
    # a (B, 2^n) table of indices into the flattened stack
    keys = [tuple(first) for first in firsts]
    # the cache takes exact ints only: one pass over the entries' types,
    # and _integer only where it finds another type
    if set(map(type, chain.from_iterable(keys))) - {int}:
        keys = [tuple(_integer(q, "qubit index") for q in key) for key in keys]
    if not keys:
        return np.empty((0, 2**n), dtype=np.intp)
    if keys.count(keys[0]) == len(keys):
        return _index_table(n, keys[0])
    tables = np.array([_index_table(n, key) for key in keys])
    tables += np.arange(0, len(keys) << n, 1 << n)[:, None]
    return tables


def _permute(states: np.ndarray, tables: np.ndarray) -> np.ndarray:
    # row b of a (B, 2^n) stack reshaped to [2]*n, transposed into the
    # qubit order its table from _tables was built for, and flattened
    return states.reshape(-1)[tables] if tables.ndim == 2 else states[:, tables]


@lru_cache(maxsize=None)
def _chain_tables(n: int, chains: tuple) -> tuple[np.ndarray, np.ndarray]:
    # The gather tables of chains of two-qubit steps on an n-qubit register
    # plus one more qubit, qubit n, built on the first call for each (n,
    # chains) and kept, read-only, for the process.  A step names two wires
    # of a row: 0 and 1 are its targets q0 and q1, 2 is qubit n.  Step k
    # acts in its frame, the amplitudes gathered into the order
    # qubit_order(n + 1, its qubits) by the table T_k of _index_table; the
    # chain ends in the frame of qubit n first, T_end.  Round 0 gathers the
    # register into step 0's frame: T_0 >> 1, read from the register, whose
    # entry j >> 1 is amplitude j of the register times a state of qubit n
    # with equal entries.  Round k > 0 gathers step k - 1's frame into step
    # k's, inv(T_(k-1))[T_k]; the last round, one past the longest chain's
    # last step, gathers each chain's last frame into the end frame.
    #
    # Returns (tables, where): one int32 array holding the table of each
    # distinct pair of frames, (the qubits step k - 1 lists first, those of
    # step k), once; and a (rounds, chains, n, n) array, so that a row's
    # table of round r is tables[where[r, chain, q0, q1]].  It is -1 where a
    # chain has no round r, and at q0 == q1 of a chain that names wire 1,
    # which no row may reach.
    depth = max(map(len, chains))
    pairs, where = {}, np.full((depth + 1, len(chains), n, n), -1, dtype=np.intp)
    for c, steps in enumerate(chains):
        frames = ((), *steps, (2,))
        for k, (q0, q1) in product(range(len(steps) + 1), product(range(n), repeat=2)):
            if q0 == q1 and any(1 in step for step in steps):
                continue
            qubits = (q0, q1, n)
            pair = tuple(qubits[w] for w in frames[k]), tuple(qubits[w] for w in frames[k + 1])
            where[k if k < len(steps) else depth, c, q0, q1] = pairs.setdefault(pair, len(pairs))
    tables = np.empty((len(pairs), 2 ** (n + 1)), dtype=np.int32)
    for row, (before, after) in enumerate(pairs):
        after = _index_table(n + 1, after)
        tables[row] = np.argsort(_index_table(n + 1, before))[after] if before else after >> 1
    tables.flags.writeable = where.flags.writeable = False
    return tables, where


def qubit_order(n: int, first: Sequence[int]) -> tuple[int, ...]:
    """The listed qubits in the order given, then the rest of the n ascending.
    The list must be non-empty, without repeats, in range and of integers
    (a bool or a float raises ValueError)."""
    first = tuple(_integer(q, "qubit index") for q in first)
    if not first:
        raise ValueError("at least one qubit must be listed")
    if len(set(first)) != len(first):
        raise ValueError(f"duplicate qubit indices {list(first)}")
    for q in first:
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n} qubits")
    return first + tuple(q for q in range(n) if q not in first)


def _rows(vec: np.ndarray, per_row: Sequence, what: str) -> np.ndarray:
    # a (B, 2^n) stack as it is, one vector as a stack of one; `per_row`
    # must give one entry for every row
    if vec.ndim not in (1, 2):
        raise ValueError(f"expected a vector or a (B, 2^n) stack, got shape {vec.shape}")
    rows = vec if vec.ndim == 2 else vec[None]
    if len(per_row) != len(rows):
        raise ValueError(f"{len(per_row)} {what} for {len(rows)} rows")
    return rows


def partial_trace(states: np.ndarray, keep: Sequence) -> np.ndarray:
    """Reduced density matrix of a pure state on the qubits `keep`, in the
    order given.  For a (B, 2^n) stack of states `keep` holds one list per
    row, all of one length, and the result is a (B, 2^k, 2^k) stack.  A
    2-d array is a stack of states, never a density matrix; a stack of no
    rows, which has no keep list to size the result by, is rejected."""
    states = _array(states, "states")
    keeps = keep if states.ndim == 2 else [keep]
    try:  # a keep that is no sequence, or a flat list for a stack
        sizes = [len(qubits) for qubits in keeps]
    except TypeError:
        raise ValueError("keep must be a list of qubits, or one list per row") from None
    rows = _rows(states, keeps, "keep lists")
    if len(rows) == 0:
        raise ValueError("the stack is empty: no rows to reduce")
    n_qubits_of(rows.shape[1])
    if sizes.count(sizes[0]) != len(sizes):
        raise ValueError("every row must keep the same number of qubits")
    rho = _reduce(rows, keeps)
    return rho if states.ndim == 2 else rho[0]


def _reduce(rows: np.ndarray, keeps: Sequence) -> np.ndarray:
    # partial_trace of a (B, 2^n) stack, B >= 1, with keep lists of one
    # length, unchecked but for the qubits (_tables)
    tables = _tables(rows.shape[1].bit_length() - 1, keeps)
    m = _permute(rows, tables).reshape(len(rows), 2**len(keeps[0]), -1)
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
    Hermitian, which must stay finite (entries near the float limit
    overflow), and each matrix is solved on its own, as Python complex
    scalars: at these sizes numpy's per-call overhead would cost more than
    the arithmetic.  The solve for each (d, vectors) is one generated
    straight-line function, every pivot of a sweep written out with the
    entries as local variables, so no loop over rows and no list index is
    left in it.  It is compiled on the first solve of its (d, vectors)
    and kept for the process, in a few milliseconds.  MAX_EIG_DIM is 4:
    every quantity of the paper reads a one- or two-qubit reduction.

    Returns (eigenvalues ascending, unitary with eigenvectors as columns),
    satisfying m @ v == v @ diag(w) up to roundoff, each with the input's
    leading axis; a stack of no matrices gives empty results.  With
    `vectors` false the rotations are not accumulated and the second item
    is None; the eigenvalues are the same bit for bit.
    """
    a = _array(m, "matrix", finite=True)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    n = a.shape[-1]
    if n == 0:
        raise ValueError("matrix is 0 x 0")
    if n > MAX_EIG_DIM:
        raise ValueError(f"dimension {n} exceeds eigensolver limit {MAX_EIG_DIM}")
    # entries near the float limit overflow to inf (and inf * 0 to nan)
    # below, which then fail a check instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        if hermiticity_defect(a) > HERMITIAN_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        hermitian = 0.5 * (a + a.conj().swapaxes(-1, -2))
    if not np.isfinite(hermitian).all():
        raise ValueError("matrix has non-finite entries")
    # the limits are read per call, so a patched _MAX_SWEEPS takes effect
    kernel = _jacobi_kernel(n, vectors)
    pairs = [kernel(x, OFFDIAG_TARGET, _MAX_SWEEPS) for x in hermitian.reshape(-1, n, n).tolist()]
    w = np.array([values for values, _ in pairs]).reshape(a.shape[:-1])
    if not vectors:
        return w, None
    return w, np.array([v for _, v in pairs], dtype=complex).reshape(a.shape)


@lru_cache(maxsize=None)
def _jacobi_kernel(n: int, vectors: bool):
    # The rotation kernel of jacobi_eigh, its one caller, for one
    # (n, vectors), compiled on its first use and kept for the life of the
    # process: at most 8 of them, as n <= MAX_EIG_DIM.  kernel(a, target,
    # max_sweeps) takes a matrix jacobi_eigh has already checked and made
    # exactly Hermitian, as nested lists, and returns the eigenvalues
    # ascending and, with `vectors`, the eigenvector matrix as nested lists
    # (else None: the rotations are not accumulated at all).
    namespace = {"sqrt": math.sqrt, "copysign": math.copysign, "hypot": math.hypot}
    exec(compile(_jacobi_source(n, vectors), f"<jacobi kernel {n}x{n}>", "exec"), namespace)
    return namespace["kernel"]


def _jacobi_source(n: int, vectors: bool) -> str:
    # Source of the kernel for one (n, vectors): a loop over sweeps whose
    # body is every pivot (p, q), p < q, in cyclic row order, written out
    # in full.  The matrix entries, the diagonal (real, so kept as floats
    # apart from the matrix) and the eigenvector entries are local
    # variables: the solve indexes no list and loops over no row.  Each
    # operation is the one a loop over nested lists does, in its order, so
    # the results are those of that loop bit for bit (the tests keep the
    # loop as the reference).
    a = [[f"d{i}" if i == j else f"a{i}_{j}" for j in range(n)] for i in range(n)]
    v = [[f"v{i}_{j}" for j in range(n)] for i in range(n)]
    pivots = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]

    def nested(rows):
        return "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"

    def rotated(x, y):
        # columns p and q of one row times W = [[c, s], [-s conj(apq/r), c conj(apq/r)]]
        return f"            {x}, {y} = {x} * c + {y} * w10, {x} * s + {y} * w11"

    out = [
        "def kernel(a, target, max_sweeps):",
        f"    {nested(a)} = a",
        *(f"    d{i} = d{i}.real" for i in range(n)),
        *(f"    {v[i][j]} = {'1.0 + 0j' if i == j else '0j'}"
          for i in range(n) for j in range(n) if vectors),
        f"    floor = target / (4.0 * {n} * {n})",
        "    for _ in range(max_sweeps):",
        # Summed directly over the entries above the diagonal (twice, for
        # the Hermitian mirror); subtracting the diagonal share from the
        # total hits a cancellation floor near sqrt(eps)*|A|.
        "        off = 0.0",
        *(f"        off += {x}.real * {x}.real + {x}.imag * {x}.imag"
          for x in (a[p][q] for p, q in pivots)),
        "        if sqrt(2.0 * off) <= target:",
        "            break",
    ]
    for p, q in pivots:
        apq, dp, dq = a[p][q], a[p][p], a[q][q]
        out += [
            f"        r = abs({apq})",
            "        if not r <= floor:",  # so that a NaN pivot rotates, and never converges
            f"            phase = ({apq} / r).conjugate()",
            f"            tau = ({dq} - {dp}) / (2.0 * r)",
            "            t = 1.0 if tau == 0.0 else copysign(1.0, tau) / (abs(tau) + hypot(1.0, tau))",
            "            c = 1.0 / sqrt(1.0 + t * t)",
            "            s = t * c",
            "            w10 = -s * phase",
            "            w11 = c * phase",
        ]
        for i in range(n):
            if i != p and i != q:
                # the matrix stays Hermitian: rows p and q are the
                # conjugates of columns p and q
                out += [
                    rotated(a[i][p], a[i][q]),
                    f"            {a[p][i]} = {a[i][p]}.conjugate()",
                    f"            {a[q][i]} = {a[i][q]}.conjugate()",
                ]
        out += [
            f"            {dp} = {dp} - t * r",
            f"            {dq} = {dq} + t * r",
            f"            {apq} = {a[q][p]} = 0j",
            *(rotated(v[i][p], v[i][q]) for i in range(n) if vectors),
        ]
    out += [
        "    else:",
        "        raise ArithmeticError('plane-rotation eigensolver did not converge')",
        f"    d = [{', '.join(a[i][i] for i in range(n))}]",
        f"    order = sorted(range({n}), key=d.__getitem__)  # stable, like argsort",
        "    return [d[i] for i in order], "
        + (f"[[row[i] for i in order] for row in {nested(v)}]" if vectors else "None"),
    ]
    return "\n".join(out) + "\n"
