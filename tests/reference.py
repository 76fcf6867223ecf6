"""A reference simulator for the tests, written apart from the package.

The gate chain of `adqcsim.protocols` moves qubits into place by gathers
over the index tables of `adqcsim.linalg`.  The two functions here move
them with numpy's reshape and transpose alone, and apply an operator or
a measurement basis by one matmul over the whole stack, so a defect in
those tables cannot reach both the code under test and its reference.

Each takes one amplitude vector or a (B, 2^n) stack; qubit 0 is the most
significant bit of an index.  Inputs are not checked: a test hands them
complex arrays of the right shapes.
"""
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
