"""Qubit states, the fixed gate set, tilted measurement bases,
single-qubit measurement branch extraction, and Haar-random states from
seeded streams.

A basis is a plain (2, 2) array, rows (outcome 0, outcome 1), or a stack
of them, all built by `tilted_vectors`, the one checked basis builder:
tilted_vectors(equatorial_pair(u), e, d) is the equatorial basis at u
tilted by (e, d), tilted_vectors(Z_PAIR, e, d) the computational one.
Measurements are represented by their two branches: applying the bra of
a basis vector to the measured qubit removes that qubit from the
register (indices above it shift down by one) and leaves an unnormalized
vector whose squared norm is the outcome probability.

`apply_matrix` and `measure_branch` take one raw vector or a (B, 2^n)
stack, `apply_matrix` with per-row operators and targets, `measure_branch`
with one measured qubit for all rows and per-row bases; both read n from
the amplitudes.  Qubits are brought into place by one gather over index
tables cached per (n, qubit list), so every row costs the same arithmetic
as a lone vector; `apply_matrix` scatters its rows back over the same
tables.

`tilted_vectors`, `equatorial_pair` and `phase_aligned_max_diff` check
their arguments, then call the kernels `_tilted`, `_equatorial` and
`_aligned_diff`, which the campaign path calls on arrays the package
built from checked inputs.  `apply_matrix` and `measure_branch` have no
kernel apart from them: the protocols run their gates and measurements
through their own gate chain.  Both check qubit indices through
`linalg._tables`, when they build their gather table.

`streams` seeds the PCG64 streams of many keys in one call, each in
exactly the state numpy's default generator would start in for its key:
it checks and splits each key into words and calls the kernel `_seeded`
on their zero-padded word table, which groups the keys by numpy's padded
length.  `_item_streams` fills the same table for a campaign chunk's
keys [seed, i] and [seed, i, tag], with no pass per key.  A `Stream`
draws integers, uniform angles and permutations in Python integers, bit
for bit as numpy's Generator would.  `haar_states` draws
the registers of many streams of one size as the rows of one array,
through one numpy Generator per thread set to each stream's state in
turn, and normalizes every row in one stacked matmul;
`random_pure_state`, a batch of one, wraps its row in a validated
PureState.  This module is the package's one user of numpy.random.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

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
    if not isinstance(name, str) or name not in _GATES:
        raise ValueError(f"unknown gate name {name!r}")
    return _GATES[name].copy()


@dataclass
class PureState:
    """Normalized amplitude vector over n qubits (qubit 0 = MSB)."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = linalg._array(self.amplitudes, "amplitudes", finite=True).reshape(-1)
        self.n_qubits = check_qubit_count(self.n_qubits)
        if self.amplitudes.shape[0] != 2**self.n_qubits:
            raise ValueError("amplitude vector length does not match qubit count")
        norm2 = float(np.vdot(self.amplitudes, self.amplitudes).real)
        if not abs(norm2 - 1.0) <= NORM_TOL:  # an overflow to inf fails too
            raise ValueError(f"state is not normalized: |psi|^2 = {norm2}")

    @classmethod
    def from_vector(cls, amplitudes: np.ndarray) -> "PureState":
        vec = linalg._array(amplitudes, "amplitudes").reshape(-1)
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


Z_PAIR = np.eye(2, dtype=complex)  # rows |0>, |1>


def equatorial_pair(u) -> np.ndarray:
    """Rows |u+>, |u-> = (|0> +- e^{iu}|1>)/sqrt(2), one pair per finite real u."""
    return _equatorial(linalg._array(u, "u", real=True, finite=True))


def _equatorial(u: np.ndarray) -> np.ndarray:
    # equatorial_pair of a float array of angles, unchecked
    e = np.exp(1j * u)
    out = np.ones(e.shape + (2, 2), dtype=complex)
    out[..., 0, 1], out[..., 1, 1] = e, -e
    out *= _SQ2
    return out


def tilted_vectors(reference: np.ndarray, epsilon, delta) -> np.ndarray:
    """Rows (plus, minus) of a reference pair (|r0>, |r1>) tilted by
    (epsilon, delta):

        plus  = cos(e/2)|r0> + e^{-i delta} sin(e/2)|r1>
        minus = sin(e/2)|r0> - e^{-i delta} cos(e/2)|r1>

    `reference` (Z_PAIR, equatorial_pair(u)) is one finite (2, 2) pair or
    a stack of them; finite real epsilon and delta broadcast against it.
    """
    reference = linalg._array(reference, "reference", finite=True)
    if reference.shape[-2:] != (2, 2):
        raise ValueError(f"reference shape {reference.shape} is not (2, 2) or (..., 2, 2)")
    epsilon = linalg._array(epsilon, "epsilon", real=True, finite=True)
    delta = linalg._array(delta, "delta", real=True, finite=True)
    try:
        np.broadcast_shapes(reference.shape[:-2], epsilon.shape, delta.shape)
    except ValueError:
        raise ValueError(f"epsilon shape {epsilon.shape}, delta shape {delta.shape} and "
                         f"reference shape {reference.shape} do not broadcast") from None
    return _tilted(reference, epsilon, delta)


def _tilted(reference: np.ndarray, epsilon: np.ndarray, delta: np.ndarray) -> np.ndarray:
    # tilted_vectors of arrays that broadcast together, unchecked
    epsilon = epsilon / 2.0
    ce, se = np.cos(epsilon)[..., None], np.sin(epsilon)[..., None]
    ph = np.exp(-1j * delta)[..., None]
    r0, r1 = reference[..., 0, :], reference[..., 1, :]
    plus = ce * r0 + ph * se * r1
    out = np.empty(plus.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, :], out[..., 1, :] = plus, se * r0 - ph * ce * r1
    return out


def apply_matrix(vec: np.ndarray, op: np.ndarray, targets: Sequence) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to the listed qubits of a raw vector, or of
    every row of a (B, 2^n) stack.

    The first listed qubit is the most significant index of `op`.  The
    matrix need not be unitary (error operators use this path too).  For a
    stack, `targets` holds one qubit list per row and `op` one matrix for
    all rows or one per row, (B, 2^k, 2^k).  A stack of no rows gives a
    stack of no rows.
    """
    vec = linalg._array(vec, "vec")
    target_rows = targets if vec.ndim == 2 else [targets]
    sizes = linalg._lengths(target_rows, "targets")
    rows = linalg._rows(vec, target_rows, "target lists")
    n = linalg.n_qubits_of(rows.shape[1])
    op = linalg._array(op, "op")
    if op.ndim not in (2, 3) or op.shape[-1] != op.shape[-2]:
        raise ValueError(f"operator shape {op.shape} is not a square matrix or a stack of them")
    k = linalg.n_qubits_of(op.shape[-1])
    if any(size != k for size in sizes):
        raise ValueError(f"operator shape {op.shape} acts on {k} qubits; every row must list {k}")
    # one gather table, the one check of the qubits, serves the gather and
    # the scatter back
    tables = linalg._tables(n, target_rows)
    psi = op @ linalg._permute(rows, tables).reshape(len(rows), 2**k, 2 ** (n - k))
    out = linalg._permute(psi.reshape(rows.shape), tables, inverse=True)
    return out if vec.ndim == 2 else out[0]


def measure_branch(vec: np.ndarray, qubit: int, basis: np.ndarray) -> np.ndarray:
    """Measurement branches of one qubit, for a raw vector or every row of
    a (B, 2^n) stack.

    Branch j carries (<basis_j| on the measured qubit (x) identity
    elsewhere) applied to the state; the measured qubit is removed and the
    remaining qubits shift down to fill its place.  Its squared norm is the
    probability of outcome j.

    `qubit` is one integer, the same qubit for every row of a stack.
    `basis` is a finite array of J single-qubit vectors, (J, 2), such as a
    tilted basis, or one such array per row of a stack, (B, J, 2).
    Returns the branches as a (J, 2^(n-1)) array, or (B, J, 2^(n-1)) for a
    stack.
    """
    vec = linalg._array(vec, "vec")
    if vec.ndim not in (1, 2):
        raise ValueError(f"vec shape {vec.shape} is not (2^n,) or (B, 2^n)")
    rows = vec if vec.ndim == 2 else vec[None]
    n = linalg.n_qubits_of(rows.shape[1])
    basis = linalg._array(basis, "basis", finite=True)
    lead = vec.shape[:-1]  # () for a vector, (B,) for a stack
    if basis.shape[:-2] != lead or basis.ndim != len(lead) + 2 or basis.shape[-1] != 2:
        raise ValueError(f"basis shape {basis.shape} is not (J, 2), or (B, J, 2) for a stack")
    tables = linalg._tables(n, [(qubit,)])  # the one check of the qubit
    branches = basis.conj() @ linalg._permute(rows, tables).reshape(len(rows), 2, 2 ** (n - 1))
    return branches if vec.ndim == 2 else branches[0]


def phase_aligned_max_diff(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """max |a - e^{it} b| with the phase chosen to maximize the overlap,
    for two vectors or row by row for two stacks of them.

    Stable down to roundoff (no cancellation through norms), but not
    exact: vectors that agree up to a global phase, a vector and itself
    included, give the rounding of the overlap and of the phase taken
    from it, a few float spacings of their entries rather than 0 (up to
    about 2.5e-16 on unnormalized rows of entries below 1.4).
    """
    a, b = linalg._array(a, "a", finite=True), linalg._array(b, "b", finite=True)
    for name, x in (("a", a), ("b", b)):
        if x.ndim == 0 or x.shape[-1] == 0:
            raise ValueError(f"{name} shape {x.shape} is not a non-empty vector or a stack of them")
    if a.shape != b.shape:
        raise ValueError("vectors must have the same dimension")
    diff = _aligned_diff(a, b)
    return float(diff) if a.ndim == 1 else diff


def _aligned_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # phase_aligned_max_diff of two complex arrays of one shape, unchecked
    ov = np.einsum("...i,...i->...", b.conj(), a)[..., None]
    size = np.abs(ov)
    phase = np.where(size < 1e-300, 1.0, ov / np.where(size < 1e-300, 1.0, size))
    return np.max(np.abs(a - phase * b), axis=-1)


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
    if not isinstance(parts, (list, tuple, range, np.ndarray)) or getattr(parts, "ndim", 1) != 1:
        raise ValueError(f"key {key!r} is not an integer or a 1-d sequence of integers")
    words = []
    for part in parts:
        if type(part) is int and 0 <= part <= _MASK32:  # one word, the common case
            words.append(part)
            continue
        if isinstance(part, bool) or not isinstance(part, (int, np.integer)):
            raise ValueError(f"key {key!r} has a non-integer entry {part!r}")
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
    """Four zero 64-bit words, which PCG64 asks for once to seed itself:
    the Generator of `haar_states` is built through it, then set to each
    stream's state, so numpy's own seed hash never runs.  Any other
    request raises, so a numpy that seeds PCG64 differently fails here."""

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a PCG64 seed is 4 uint64 words, not {n_words} of {dtype}")
        return np.zeros(4, dtype=np.uint64)


# PCG64: a 128-bit LCG, state' = state * _PCG_MULT + inc, whose 64-bit
# output is the xor of the new state's halves rotated right by its top 6
# bits; a 32-bit draw takes the low half of a fresh word and keeps the
# high half for the next 32-bit draw
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2^-53


class Stream:
    """One key's PCG64 stream, in Python integers: the 128-bit state, the
    increment and the buffered high half of the last 64-bit word (None if
    there is none).  Each method returns exactly what numpy's Generator
    returns from the same state, and leaves the stream where it would."""

    __slots__ = ("state", "inc", "half")

    def __init__(self, state: int, inc: int, half: int | None = None):
        self.state, self.inc, self.half = state, inc, half

    def _next64(self) -> int:
        state = self.state = (self.state * _PCG_MULT + self.inc) & _MASK128
        word = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (word >> rot | word << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        half = self.half
        if half is not None:
            self.half = None
            return half
        word = self._next64()
        self.half = word >> 32
        return word & _MASK32

    def integers(self, k: int) -> int:
        """Uniform on [0, k) for 1 <= k <= 2^32, as Generator.integers(k):
        Lemire's multiply-shift on 32-bit draws, with its rejection; k = 1
        draws nothing."""
        if type(k) is not int:
            k = linalg._integer(k, "k")
        if not 1 <= k <= 1 << 32:
            raise ValueError(f"k={k} is outside [1, 2^32]")
        if k == 1:
            return 0
        m = self._next32() * k
        if m & _MASK32 < k:
            threshold = (1 << 32) % k
            while m & _MASK32 < threshold:
                m = self._next32() * k
        return m >> 32

    def random(self, *highs: float) -> list[float]:
        """One uniform value on [0, high) per high, a finite float, in
        order: the 53-bit double d of Generator.random() scaled to
        high * d, the value Generator's uniform draw on [0, high) returns."""
        return [high * ((self._next64() >> 11) * _DOUBLE_UNIT) for high in highs]

    def permutation(self, n: int) -> list[int]:
        """A permutation of range(n), as Generator.permutation(n) draws it:
        Fisher-Yates from the last place down, each swap index drawn by
        masked rejection on 32-bit draws."""
        n = linalg._integer(n, "n")
        if not 0 <= n <= 1 << 32:
            raise ValueError(f"n={n} is outside [0, 2^32]")
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            out[i], out[j] = out[j], out[i]
        return out


def streams(keys: Sequence) -> list[Stream]:
    """One Stream per key, in key order, each in exactly the state of
    numpy's default generator seeded with that key.

    A key is a nonnegative int or numpy integer, or a list, tuple, range or
    1-d array of them, such as a stream key [seed, i]; a bool, a negative
    entry, a float and None raise ValueError.  The seed-sequence hash runs
    once over all keys, as uint32 array arithmetic: keys of up to 4 words
    together, longer keys grouped by length.  PCG64's own seeding, two LCG
    steps, then runs per key.  No keys give [].
    """
    words = [_key_words(key) for key in linalg._sequence(keys, "keys")]
    counts = np.array([len(w) for w in words], dtype=int)
    width = max(_POOL, counts.max(initial=0))
    # one row per key, reshaped so that no keys give a (width, 0) table
    table = np.array([w + [0] * (width - len(w)) for w in words], dtype=np.uint32)
    return _seeded(table.reshape(len(words), width).T, counts)


def _index_words(values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    # nonnegative ints split into 32-bit words as _key_words splits a key's
    # entries, least significant first and 0 as one word: a (W, B) uint32
    # array, zero past each value's own words, and each value's count
    width = max(1, -(-int(max(values, default=0)).bit_length() // 32))
    if width == 1:
        return np.array(values, dtype=np.uint32).reshape(1, -1), np.ones(len(values), dtype=int)
    high = np.array(values, dtype=object) >> np.arange(0, 32 * width, 32)[:, None]
    return (high & _MASK32).astype(np.uint32), 1 + (high[1:] != 0).sum(axis=0)


def _item_streams(seed: int, indices: Sequence[int], tags: Sequence[int]) -> list[Stream]:
    # The Streams of a campaign chunk's keys, with no pass per key: [seed, i]
    # for every index, then [seed, i, tag] for every index, tag after tag.
    # Each key's column holds the seed's words, its index's words, then its
    # tag, one word, at row len(seed) + its index's word count.
    if not len(indices):
        return []
    seed_words = _key_words(seed)
    words, counts = _index_words(indices)
    n, start, parts = len(counts), len(seed_words), 1 + len(tags)
    table = np.zeros((max(_POOL, start + len(words) + 1), n * parts), dtype=np.uint32)
    table[:start] = np.array(seed_words, dtype=np.uint32)[:, None]
    table[start:start + len(words)] = np.tile(words, parts)
    for part, tag in enumerate(tags, 1):
        table[start + counts, part * n + np.arange(n)] = tag
    return _seeded(table, np.concatenate([start + counts] + [start + 1 + counts] * len(tags)))


def _seeded(table: np.ndarray, counts: np.ndarray) -> list[Stream]:
    # The Streams of K keys given by their words: column k of the (W, K)
    # uint32 table holds key k's counts[k] words, zero-padded, W >= 4.
    # numpy pads a key to max(count, 4) words, so the keys are grouped by
    # that length, one _seed_states call per group; then PCG64's seeding.
    lengths = np.maximum(counts, _POOL)
    seeds = np.empty((len(lengths), 4), dtype=np.uint64)
    for length in np.bincount(lengths).nonzero()[0].tolist():  # np.unique imports numpy.ma
        keys = (lengths == length).nonzero()[0]
        seeds[keys] = _seed_states(table[:length, keys])
    out = []
    for state_high, state_low, seq_high, seq_low in seeds.tolist():
        # from state 0: one step, the seed state added, one more step
        inc = (seq_high << 65 | seq_low << 1 | 1) & _MASK128
        state = (inc + (state_high << 64 | state_low)) * _PCG_MULT + inc
        out.append(Stream(state & _MASK128, inc))
    return out


_LOCAL = threading.local()


def _generator() -> np.random.Generator:
    # the Generator haar_states draws through: one per thread, set to each
    # stream's state before its draw
    gen = getattr(_LOCAL, "generator", None)
    if gen is None:
        gen = _LOCAL.generator = np.random.Generator(np.random.PCG64(_SeedState()))
    return gen


def haar_states(n_qubits: int, streams: Sequence[Stream]) -> np.ndarray:
    """Haar-random pure states, one per stream, as the rows of a
    (B, 2^n) array: normalized i.i.d. complex Gaussian amplitudes, the real
    parts first, drawn as Generator.standard_normal(2^(n+1)) draws them
    from the stream's state.  The streams themselves do not move: a
    register stream gives one register."""
    dim = 2 ** check_qubit_count(n_qubits)
    streams = linalg._sequence(streams, "streams")
    if not all(type(stream) is Stream for stream in streams):
        raise ValueError("streams must hold Stream objects only")
    gen = _generator()
    bit_generator = gen.bit_generator
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    parts = np.empty((len(streams), 2 * dim))
    for row, stream in zip(parts, streams):
        pcg["state"], pcg["inc"] = stream.state, stream.inc
        state["has_uint32"] = int(stream.half is not None)
        state["uinteger"] = stream.half or 0
        bit_generator.state = state
        gen.standard_normal(out=row)
    vec = np.empty((len(streams), dim), dtype=complex)
    vec.real, vec.imag = parts[:, :dim], parts[:, dim:]
    # each row's np.linalg.norm without its wrapper, for every row in one
    # stacked matmul: a (1, D) @ (D, 1) product is the dot product of the
    # same strided views, the sum of squares that norm takes
    re, im = vec.real[:, None, :], vec.imag[:, None, :]
    vec /= np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]
    return vec


def random_pure_state(n_qubits: int, seed) -> PureState:
    """Haar-random pure state from the stream of `seed`, a batch of one
    over `streams` and `haar_states`.

    `seed` is a key as `streams` takes it: a nonnegative int, or a list,
    tuple, range or 1-d array of them (a derived stream key such as
    [seed, i]); a bool, a negative entry, a float and None raise
    ValueError.
    """
    return PureState(n_qubits, haar_states(n_qubits, streams([seed]))[0])
