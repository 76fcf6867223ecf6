"""Qubit states, the fixed gate set, tilted measurement bases,
single-qubit measurement branch extraction, and Haar-random states from
seeded streams.

A basis is a plain (2, 2) array, rows (outcome 0, outcome 1), or a stack
of them, all built by `tilted_vectors`.  Measurements are represented by
their two branches: applying the bra of a basis vector to the measured
qubit removes that qubit from the register (indices above it shift down
by one) and leaves an unnormalized vector whose squared norm is the
outcome probability.

`apply_matrix` takes one vector or a (B, 2^n) stack, `measure_branch` a
PureState or a StateStack, with per-row operators, targets and bases;
both read n from the amplitudes.  Each row's qubits are brought into
place by one gather over index tables cached per (n, qubit list), so
every row costs the same arithmetic as a lone vector; `apply_matrix`
scatters its rows back over the same tables.

`generators` seeds the streams of many keys in one call, each generator
in exactly the state numpy's default generator would start in for its
key.  `haar_state` draws a plain (2^n,) vector from one of them, in one
standard_normal call for the real and the imaginary parts, which
the campaigns stack unwrapped; `random_pure_state`, a batch of one over
both, wraps its draw in a validated PureState.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
    u = linalg._finite(u, "u")
    return _GATES["H"] @ np.diag([np.exp(0.5j * u), np.exp(-0.5j * u)])


@dataclass
class PureState:
    """Normalized amplitude vector over n qubits (qubit 0 = MSB)."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        self.n_qubits = check_qubit_count(self.n_qubits)
        if self.amplitudes.shape[0] != 2**self.n_qubits:
            raise ValueError("amplitude vector length does not match qubit count")
        norm2 = float(np.vdot(self.amplitudes, self.amplitudes).real)
        if not abs(norm2 - 1.0) <= NORM_TOL:  # NaN or inf amplitudes fail too
            raise ValueError(f"state is not normalized: |psi|^2 = {norm2}")

    @classmethod
    def from_vector(cls, amplitudes: np.ndarray) -> "PureState":
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        return cls(linalg.n_qubits_of(vec.shape[0]), vec)


def check_qubit_count(n_qubits: int) -> int:
    """The register size as an int; a non-integer (a float or a bool
    included) or a size outside [1, linalg.MAX_QUBITS] raises ValueError.
    Callers check before they allocate 2^n amplitudes."""
    n_qubits = linalg._integer(n_qubits, "n_qubits")
    if not 1 <= n_qubits <= linalg.MAX_QUBITS:
        raise ValueError(f"n_qubits={n_qubits} out of range, outside [1, {linalg.MAX_QUBITS}]")
    return n_qubits


def basis_state(n_qubits: int, index: int) -> PureState:
    """Computational basis state |index> on n qubits."""
    n_qubits = check_qubit_count(n_qubits)
    index = linalg._integer(index, "index")
    if not 0 <= index < 2**n_qubits:
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    vec = np.zeros(2**n_qubits, dtype=complex)
    vec[index] = 1.0
    return PureState(n_qubits, vec)


class StateStack(NamedTuple):
    """n-qubit amplitude vectors as the rows of one (B, 2^n) array; built
    by the package from states it has already validated, so not checked.
    Kept, where a plain array would do, because bench/tracer.py reads
    `.amplitudes` of measure_branch's first argument."""

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
    return tilted_vectors(
        equatorial_pair(linalg._finite(u, "u")),
        linalg._finite(epsilon, "epsilon"), linalg._finite(delta, "delta"),
    )


def deviated_z_basis(epsilon: float, delta: float) -> np.ndarray:
    """Computational basis tilted by (epsilon, delta), as the rows
    (outcome 0, outcome 1) of a (2, 2) array:

        |0~> = cos(e/2)|0> + sin(e/2) e^{-i delta}|1>
        |1~> = sin(e/2)|0> - cos(e/2) e^{-i delta}|1>
    """
    return tilted_vectors(
        Z_PAIR, linalg._finite(epsilon, "epsilon"), linalg._finite(delta, "delta")
    )


def apply_matrix(vec: np.ndarray, op: np.ndarray, targets: Sequence) -> np.ndarray:
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
    rows = linalg._rows(vec, target_rows, "target lists")
    n = linalg.n_qubits_of(rows.shape[1])
    op = np.asarray(op, dtype=complex)
    if op.ndim not in (2, 3) or op.shape[-1] != op.shape[-2]:
        raise ValueError(f"operator shape {op.shape} is not a square matrix or a stack of them")
    k = linalg.n_qubits_of(op.shape[-1])
    if any(len(row) != k for row in target_rows):
        raise ValueError(f"operator shape {op.shape} acts on {k} qubits; every row must list {k}")
    # the gather tables of the rows' targets, built once for the gather
    # and the scatter back
    tables = linalg._tables(n, target_rows)
    dim = rows.shape[1]
    psi = op @ linalg._permute(rows, tables).reshape(len(rows), 2**k, dim >> k)
    out = linalg._permute(psi.reshape(len(rows), dim), tables, inverse=True)
    return out if vec.ndim == 2 else out[0]


def apply_gate(state: PureState, op: np.ndarray, targets: Sequence[int]) -> PureState:
    """Apply a unitary on the listed qubits of a normalized state."""
    if not isinstance(state, PureState):
        raise ValueError(f"state must be a PureState, not {type(state).__name__}")
    out = apply_matrix(state.amplitudes, op, targets)
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
    if not isinstance(state, (PureState, StateStack)):
        raise ValueError(f"state must be a PureState or a StateStack, not {type(state).__name__}")
    amplitudes = np.asarray(state.amplitudes, dtype=complex)
    stack = amplitudes.ndim == 2
    qubits = qubit if stack else [qubit]
    rows = linalg._rows(amplitudes, qubits, "measured qubits")
    keeps = keep if stack and keep is not None else [keep] * len(rows)
    linalg._rows(amplitudes, keeps, "qubit orders")
    n = linalg.n_qubits_of(rows.shape[1])
    firsts = []
    for q, k in zip(qubits, keeps):
        # the measured qubit first, then `keep`, which must order all the others
        if k is not None and len(k) != n - 1:
            raise ValueError(f"keep={list(k)} must order the qubits other than {q}")
        firsts.append((q,) if k is None else (q, *k))
    psi = linalg.permute_qubits(rows, firsts).reshape(len(rows), 2, rows.shape[1] // 2)
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
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("vectors have non-finite entries")
    ov = np.einsum("...i,...i->...", b.conj(), a)[..., None]
    size = np.abs(ov)
    phase = np.where(size < 1e-300, 1.0, ov / np.where(size < 1e-300, 1.0, size))
    diff = np.max(np.abs(a - phase * b), axis=-1)
    return float(diff) if a.ndim == 1 else diff


# --------------------------------------------------------------------------
# seeding: numpy's seed-sequence hash, run for many keys at once
#
# A key's 32-bit words are hashed into a pool of 4 words (the key
# zero-padded to 4): each word is hash-mixed, then every pool word is mixed
# into every other, then each word past the 4th into all four; 8 words of
# state are hashed out of the pool and handed to PCG64 as 4 64-bit words.
# Hash-mix step k xors with _A[k] and multiplies by _A[k + 1]; output word
# k xors with _B[k] and multiplies by _B[k + 1].

_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


@lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    # init * mult^k mod 2^32 for k < count, as a (count, 1) column
    out = [init]
    while len(out) < count:
        out.append(out[-1] * mult & _MASK32)
    column = np.array(out, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


_A = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + 1)
_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL + 1)
# the steps of cross-mix round s, by destination word: step 4 + 3s + j for
# the j-th word other than s; word s itself is not mixed (its entry is a
# placeholder whose result is discarded)
_CROSS_STEPS = [
    np.array([_POOL + 3 * s + d - (d > s) if d != s else 0 for d in range(_POOL)])
    for s in range(_POOL)
]
_CROSS = [(_A[steps], _A[steps + 1]) for steps in _CROSS_STEPS]
_OUTPUT_WORDS = np.arange(2 * _POOL) % _POOL


def _key_words(key) -> list[int]:
    # numpy's split of a key into 32-bit words, least significant first
    # per integer; a key is one nonnegative integer or a sequence of them
    parts = [key] if isinstance(key, (int, np.integer)) else key
    if not isinstance(parts, (list, tuple, range, np.ndarray)):
        raise TypeError(f"a key is an integer or a sequence of integers, got {key!r}")
    words = []
    for part in parts:
        if type(part) is int and 0 <= part <= _MASK32:  # one word, the common case
            words.append(part)
            continue
        if isinstance(part, bool) or not isinstance(part, (int, np.integer)):
            raise TypeError(f"key {key!r} has a non-integer entry {part!r}")
        part = int(part)
        if part < 0:
            raise ValueError(f"key {key!r} has a negative entry {part}")
        while True:  # 0 is one word
            words.append(part & _MASK32)
            part >>= 32
            if not part:
                break
    return words


def _hash_mix(words: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    out = words ^ xor
    out *= mul
    out ^= out >> _XSHIFT
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x
    out -= _MIX_R * y
    out ^= out >> _XSHIFT
    return out


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    # the (B, 4) uint64 PCG64 seeds of B keys, given as the columns of an
    # (L, B) uint32 array of their words, zero-padded to L >= 4
    pool = _hash_mix(entropy[:_POOL], _A[:_POOL], _A[1:_POOL + 1])
    for s, (xor, mul) in enumerate(_CROSS):
        mixed = _mix(pool, _hash_mix(pool[s], xor, mul))
        mixed[s] = pool[s]
        pool = mixed
    if len(entropy) > _POOL:
        a = _hash_constants(_INIT_A, _MULT_A, _POOL * len(entropy) + 1)
        for w in range(_POOL, len(entropy)):
            k = _POOL * w  # word w takes steps k, ..., k + 3, one per pool word
            pool = _mix(pool, _hash_mix(entropy[w], a[k:k + _POOL], a[k + 1:k + _POOL + 1]))
    out = _hash_mix(pool[_OUTPUT_WORDS], _B[:-1], _B[1:]).astype(np.uint64)
    # word pairs (low, high) as one 64-bit word, whatever the byte order
    return (out[0::2] | out[1::2] << np.uint64(32)).T


class _SeedState(ISeedSequence):
    """The four 64-bit seed words of one key, which PCG64 asks for once to
    seed itself.  Any other request raises, so a numpy that seeds PCG64
    differently fails here instead of starting other streams."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a key's seed is 4 uint64 words, not {n_words} of {dtype}")
        # PCG64 reads the words as raw memory
        return np.ascontiguousarray(self._words, dtype=np.uint64)


def generators(keys: Sequence) -> list[np.random.Generator]:
    """One PCG64 generator per key, in key order, each starting in exactly
    the state of numpy's default generator seeded with that key.

    A key is a nonnegative int or numpy integer, or a list, tuple, range or
    1-d array of them, such as a stream key [seed, i]; a bool, a negative
    entry, a float and None raise.  The seed-sequence hash runs once over
    all keys, as uint32 array arithmetic: keys of up to 4 words together,
    longer keys grouped by length.  No keys give [].
    """
    words = [_key_words(key) for key in keys]
    groups: dict[int, list[int]] = {}
    for pos, w in enumerate(words):
        groups.setdefault(max(len(w), _POOL), []).append(pos)
    states = np.empty((len(words), 4), dtype=np.uint64)
    for length, positions in groups.items():
        entropy = [words[pos] + [0] * (length - len(words[pos])) for pos in positions]
        states[positions] = _seed_states(np.array(entropy, dtype=np.uint32).T)
    return [np.random.Generator(np.random.PCG64(_SeedState(state))) for state in states]


def haar_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state as a plain (2^n,) vector: normalized i.i.d.
    complex Gaussian amplitudes drawn from `rng`, the real parts first."""
    dim = 2 ** check_qubit_count(n_qubits)
    # one draw of 2 dim values, the stream the two draws of dim would take
    parts = rng.standard_normal(2 * dim)
    vec = np.empty(dim, dtype=complex)
    vec.real, vec.imag = parts[:dim], parts[dim:]
    # np.linalg.norm(vec) without its wrapper: the same sums of squares
    # over the same strided views
    re, im = vec.real, vec.imag
    vec /= math.sqrt(re.dot(re) + im.dot(im))
    return vec


def random_pure_state(n_qubits: int, seed) -> PureState:
    """Haar-random pure state from the generator of `seed`, a batch of one
    over `generators` and `haar_state`.

    `seed` is a key as `generators` takes it: a nonnegative int, or a list,
    tuple, range or 1-d array of them (a derived stream key such as
    [seed, i]); a bool, a negative entry, a float and None raise.
    """
    return PureState(n_qubits, haar_state(n_qubits, generators([seed])[0]))
