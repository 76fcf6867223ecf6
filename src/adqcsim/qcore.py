"""Qubit states, the fixed gate set, tilted measurement bases, and
Haar-random states from seeded streams.

A basis is a plain (2, 2) array, rows (outcome 0, outcome 1), or a stack
of them, all built by `tilted_vectors`, the one checked basis builder:
tilted_vectors(equatorial_pair(u), e, d) is the equatorial basis at u
tilted by (e, d), tilted_vectors(Z_PAIR, e, d) the computational one.
The protocols apply their gates and measure their ancilla through their
own gate chain (protocols._chain); this module holds no generic gate or
measurement step.

`tilted_vectors`, `equatorial_pair` and `phase_aligned_max_diff` check
their arguments, then call the kernels `_tilted`, `_equatorial` and
`_aligned_diff`, which the campaign path calls on arrays the package
built from checked inputs.

Random registers come from one counter-based generator (Salmon et al.,
SC 2011), in numpy uint64 arithmetic, not numpy's random module: a key such as
[seed, i] is hashed to one word by folding its entries through the
SplitMix64 finalizer, and word j of its stream is that finalizer applied
to the key plus j + 1 times a fixed odd constant.  `_chunk_streams`
hashes a campaign chunk's keys [seed, i] and [seed, i, tag] as arrays
and gives the words of [seed, i], `_uniform`
and `_choice` turn a column of words into angles and choices, and
`_haar` draws one register per key, a stack per call: squared moduli as
the spacings of sorted uniforms, uniform phases, and one stacked
normalization.  `haar_states(n, keys)` checks and hashes its keys and
calls `_haar`; `random_pure_state`, a batch of one, wraps its row in a
validated PureState.  A key's register is the same alone, in any batch
and at any SIMD level.
"""
from __future__ import annotations

from dataclasses import dataclass
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
    # tilted_vectors of arrays that broadcast together, unchecked.  The
    # one complex product, e^{-i delta} r1, is taken as real multiplies and
    # adds in separate ufunc calls: numpy's complex multiply fuses them at
    # some SIMD levels, so its bits depend on the level it dispatches to
    epsilon = epsilon / 2.0
    ce, se = np.cos(epsilon)[..., None], np.sin(epsilon)[..., None]
    ph = np.exp(-1j * delta)[..., None]
    r0, r1 = reference[..., 0, :], reference[..., 1, :]
    turned = np.empty(np.broadcast_shapes(ph.shape, r1.shape), dtype=complex)
    turned.real = ph.real * r1.real - ph.imag * r1.imag
    turned.imag = ph.real * r1.imag + ph.imag * r1.real
    plus = ce * r0 + se * turned
    out = np.empty(plus.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, :], out[..., 1, :] = plus, se * r0 - ce * turned
    return out


def phase_aligned_max_diff(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """max |a - e^{it} b| with the phase chosen to maximize the overlap,
    for two vectors or row by row for two stacks of them.

    Stable down to roundoff (no cancellation through norms), but not
    exact: vectors that agree up to a global phase, a vector and itself
    included, give the rounding of the overlap and of the phase taken
    from it, a few float spacings of their entries rather than 0 (up to
    about 2.5e-16 on unnormalized rows of entries below 1.4).  The
    distance is the square root of a sum of squares, so entries beyond
    about 1e154 in size give inf, and distances below about 1e-154 round
    toward 0.
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
    # phase_aligned_max_diff of two complex arrays of one shape, unchecked.
    # The phase product is an einsum, and each row's largest modulus the
    # square root of its largest sum of squares, taken in real multiplies:
    # numpy's complex multiply and abs give other bits at some of the SIMD
    # levels it dispatches to
    ov = np.einsum("...i,...i->...", b.conj(), a)
    size = np.hypot(ov.real, ov.imag)
    phase = np.where(size < 1e-300, 1.0, ov / np.where(size < 1e-300, 1.0, size))
    parts = (a - np.einsum("...i,...->...i", b, phase)).view(float)
    parts *= parts
    return np.sqrt(np.max(parts[..., 0::2] + parts[..., 1::2], axis=-1))


# --------------------------------------------------------------------------
# streams: one counter-based generator, in numpy uint64 arithmetic.  Each
# entry of a key folds its count of 64-bit limbs, then the limbs, least
# significant first (0 is one limb), so [1] and [1, 0] differ, and so do
# [2^64] and [0, 1].  Integer arrays wrap silently; numpy scalars would
# warn on overflow, so every value here is an array.

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1, _MIX_2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_SHIFTS = tuple(np.uint64(s) for s in (30, 27, 31, 11, 32))
_UNIT = 2.0**-53
_MASK64 = (1 << 64) - 1


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _SHIFTS[0])) * _MIX_1
    z = (z ^ (z >> _SHIFTS[1])) * _MIX_2
    return z ^ (z >> _SHIFTS[2])


def _fold(hashed: np.ndarray, value) -> np.ndarray:
    # one fold step of the key hash: a bijection of `value` for each hash
    return _mix((hashed ^ np.uint64(value)) + _GAMMA)


def _limbs(key) -> list[int]:
    # the fold inputs of one key: per entry its limb count, then its limbs.
    # A key is one nonnegative integer or a 1-d sequence of them
    parts = [key] if isinstance(key, (int, np.integer)) else key
    if not isinstance(parts, (list, tuple, range, np.ndarray)) or getattr(parts, "ndim", 1) != 1:
        raise ValueError(f"key {key!r} is not an integer or a 1-d sequence of integers")
    out = []
    for part in parts:
        if isinstance(part, bool) or not isinstance(part, (int, np.integer)):
            raise ValueError(f"key {key!r} has a non-integer entry {part!r}")
        part = int(part)
        if part < 0:
            raise ValueError(f"key {key!r} has a negative entry {part}")
        limbs = [part >> s & _MASK64 for s in range(0, max(part.bit_length(), 1), 64)]
        out += [len(limbs), *limbs]
    return out


def _keys(keys: Sequence) -> np.ndarray:
    # the hashed word of each key, checked, in key order: the keys with as
    # many fold inputs are folded together, one input column at a time
    inputs = [_limbs(key) for key in keys]
    lengths = np.array([len(values) for values in inputs], dtype=np.intp)
    out = np.zeros(len(inputs), dtype=np.uint64)
    for length in dict.fromkeys(lengths.tolist()):
        rows = (lengths == length).nonzero()[0]
        table = np.array([inputs[k] for k in rows], dtype=np.uint64).reshape(len(rows), length)
        for column in table.T:
            out[rows] = _fold(out[rows], column)
    return out


def _words(keys: np.ndarray, count: int) -> np.ndarray:
    # words j = 0, ..., count - 1 of each key's stream, _mix(key + (j + 1) gamma)
    steps = np.arange(1, count + 1, dtype=np.uint64) * _GAMMA
    return _mix(keys[:, None] + steps)


def _chunk_streams(
    seed: int, indices: Sequence[int], count: int, tags: Sequence[int | None] = ()
) -> tuple[np.ndarray, ...]:
    """A campaign chunk's streams, for indices below 2^64: the first
    `count` words of each stream [seed, i], one row per index, for
    `_choice` and `_uniform` to read column by column; then per tag the
    hashed keys [seed, i, tag] ([seed, i] for None), for `_haar`.  The
    seed is folded once, the indices and tags as one-limb entries over
    the whole array."""
    keys = _fold(_fold(_keys([[seed]]), 1), np.array(indices, dtype=np.uint64))
    tagged = (keys if tag is None else _fold(_fold(keys, 1), tag) for tag in tags)
    return (_words(keys, count), *tagged)


def _uniform(words: np.ndarray) -> np.ndarray:
    """Each word's top 53 bits as a float in [0, 1), an angle's fraction."""
    return (words >> _SHIFTS[3]) * _UNIT


def _choice(words: np.ndarray, k) -> np.ndarray:
    """Uniform on [0, k) for 1 <= k <= 2^32 (an int or one per word):
    the word's top 32 bits times k, shifted down by 32, which is below k
    even for the all-ones word.  k = 0 gives 0."""
    top = words >> _SHIFTS[4]
    return (top * np.array(k, dtype=np.uint64) >> _SHIFTS[4]).astype(np.intp)


def _haar(n_qubits: int, keys: np.ndarray) -> np.ndarray:
    # the Haar register of n qubits of each hashed key, as the rows of a
    # (B, 2^n) array.  Its squared moduli are the spacings of 2^n - 1
    # sorted uniforms (words 0 to 2^n - 2), which is the Dirichlet(1, ...,
    # 1) law of a Haar register's; its phases are 2 pi times the uniforms
    # of the next 2^n words.  sort, sqrt, cos and sin give the same bits
    # at every SIMD level numpy dispatches to; its real log and exp do not
    dim = 2**n_qubits
    u = _uniform(_words(keys, 2 * dim - 1))
    cuts = np.zeros((len(keys), dim + 1))
    cuts[:, 1:dim] = np.sort(u[:, :dim - 1], axis=1)
    cuts[:, dim] = 1.0
    moduli = np.sqrt(np.diff(cuts, axis=1))
    phases = (2.0 * np.pi) * u[:, dim - 1:]
    vec = np.empty((len(keys), dim), dtype=complex)
    vec.real, vec.imag = moduli * np.cos(phases), moduli * np.sin(phases)
    # each row's np.linalg.norm without its wrapper, for every row in one
    # stacked matmul: a (1, D) @ (D, 1) product is the dot product of the
    # same strided views, the sum of squares that norm takes
    re, im = vec.real[:, None, :], vec.imag[:, None, :]
    vec /= np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]
    return vec


def haar_states(n_qubits: int, keys: Sequence) -> np.ndarray:
    """Haar-random pure states of n qubits, one per key, as the rows of a
    (B, 2^n) array; row b depends on keys[b] alone.

    A key is a nonnegative int or numpy integer, or a list, tuple, range or
    1-d array of them, such as a stream key [seed, i]; a bool, a negative
    entry, a float and None raise ValueError.  No keys give (0, 2^n).
    """
    n_qubits = check_qubit_count(n_qubits)
    return _haar(n_qubits, _keys(linalg._sequence(keys, "keys")))


def random_pure_state(n_qubits: int, seed) -> PureState:
    """Haar-random pure state of the key `seed`, a batch of one over
    `haar_states`: a nonnegative int, or a list, tuple, range or 1-d
    array of them (a derived stream key such as [seed, i]); a bool, a
    negative entry, a float and None raise ValueError.
    """
    return PureState(n_qubits, haar_states(n_qubits, [seed])[0])
