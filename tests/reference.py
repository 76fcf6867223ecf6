"""A reference simulator and a reference generator for the tests, written
apart from the package.

The gate chain of `adqcsim.protocols` moves qubits into place by gathers
over the index tables of `adqcsim.linalg`.  The two functions here move
them with numpy's reshape and transpose alone, and apply an operator or
a measurement basis by one matmul over the whole stack, so a defect in
those tables cannot reach both the code under test and its reference.

Each takes one amplitude vector or a (B, 2^n) stack; qubit 0 is the most
significant bit of an index.  Inputs are not checked: a test hands them
complex arrays of the right shapes.

The generator of `adqcsim.qcore` works in numpy uint64 arrays.  The
functions after the simulator give its values in plain Python integers,
one key and one word at a time: SplitMix64's finalizer, the key fold,
a stream's words, and the uniform, choice and Haar register read from
them.  Inputs are not checked either.
"""
import math

import numpy as np


def _transposed(rows, orders):
    # row b of a (B, 2^n) stack reshaped to [2]*n, its qubit axes put in
    # orders[b], and flattened
    n = rows.shape[1].bit_length() - 1
    out = np.empty_like(rows)
    for row, moved, order in zip(rows, out, orders):
        moved[:] = row.reshape([2] * n).transpose(order).reshape(-1)
    return out


def _order(n, first):
    # the listed qubits in the order given, then the rest ascending
    return [*first, *(q for q in range(n) if q not in first)]


def apply_matrix(vec, op, targets):
    """A 2^k x 2^k matrix applied to the listed qubits, the first listed
    the most significant index of `op`.  For a stack, `targets` holds one
    qubit list per row and `op` one matrix for all rows or one per row."""
    rows, firsts = (vec, targets) if vec.ndim == 2 else (vec[None], [targets])
    n, k = rows.shape[1].bit_length() - 1, op.shape[-1].bit_length() - 1
    orders = [_order(n, first) for first in firsts]
    psi = op @ _transposed(rows, orders).reshape(len(rows), 2**k, 2 ** (n - k))
    back = [[order.index(q) for q in range(n)] for order in orders]
    out = _transposed(psi.reshape(rows.shape), back)
    return out if vec.ndim == 2 else out[0]


def measure_branch(vec, qubit, basis):
    """The branches <basis_j| (x) identity of one measured qubit, the same
    qubit on every row: (J, 2^(n-1)) for a vector and a (J, 2) basis, or
    (B, J, 2^(n-1)) for a stack and a (B, J, 2) basis.  The measured qubit
    is removed and the qubits above it shift down by one."""
    rows = vec if vec.ndim == 2 else vec[None]
    n = rows.shape[1].bit_length() - 1
    moved = _transposed(rows, [_order(n, [qubit])] * len(rows))
    branches = basis.conj() @ moved.reshape(len(rows), 2, 2 ** (n - 1))
    return branches if vec.ndim == 2 else branches[0]


MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix(z):
    """SplitMix64's finalizer of one 64-bit word."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ z >> 27) * 0x94D049BB133111EB & MASK
    return z ^ z >> 31


def key_hash(key):
    """A key's one word.  Each entry of the key (an int is a key of one
    entry) gives its count of 64-bit limbs, then its limbs, least
    significant first, 0 as one limb; each value x is folded in as
    h = splitmix((h ^ x) + GAMMA), from h = 0."""
    h = 0
    for entry in [key] if isinstance(key, (int, np.integer)) else key:
        entry, limbs = int(entry), []
        while True:
            limbs.append(entry & MASK)
            entry >>= 64
            if not entry:
                break
        for x in [len(limbs), *limbs]:
            h = splitmix((h ^ x) + GAMMA & MASK)
    return h


def words(key, count):
    """Words 0, ..., count - 1 of a key's stream: splitmix of the key's
    word plus (j + 1) GAMMA."""
    h = key_hash(key)
    return [splitmix(h + (j + 1) * GAMMA & MASK) for j in range(count)]


def uniform(word):
    """A word's top 53 bits as a float in [0, 1)."""
    return (word >> 11) * 2.0**-53


def choice(word, k):
    """A word's top 32 bits times k, shifted down by 32: uniform on [0, k)."""
    return (word >> 32) * k >> 32


def haar_state(n, key):
    """A key's Haar register of n qubits, with math per entry: squared
    moduli the spacings of the sorted uniforms of words 0 to 2^n - 2,
    phases 2 pi times the uniforms of the next 2^n words, normalized."""
    dim = 2**n
    u = [uniform(w) for w in words(key, 2 * dim - 1)]
    cuts = [0.0, *sorted(u[:dim - 1]), 1.0]
    moduli = [math.sqrt(b - a) for a, b in zip(cuts, cuts[1:])]
    vec = np.array([complex(m * math.cos(2.0 * math.pi * x), m * math.sin(2.0 * math.pi * x))
                    for m, x in zip(moduli, u[dim - 1:])])
    return vec / np.linalg.norm(vec)
