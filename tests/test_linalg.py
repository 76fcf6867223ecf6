import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adqcsim import linalg, verify

RNG = np.random.default_rng(2024)


def random_hermitian(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


def random_unitary(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------- partial_trace

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
GHZ = np.zeros(8, dtype=complex)
GHZ[0] = GHZ[7] = 1 / np.sqrt(2)


def _reference_partial_trace(rho, keep):
    # the partial trace of a density matrix, written apart from the one in
    # linalg: rows and columns gathered with the kept qubits first, then
    # the traced-out index summed by einsum
    n = len(rho).bit_length() - 1
    order = list(keep) + [q for q in range(n) if q not in keep]
    table = np.arange(2**n).reshape([2] * n).transpose(order).reshape(-1)
    dk, dr = 2 ** len(keep), 2 ** (n - len(keep))
    traced = np.einsum("ajbj->ab", rho[np.ix_(table, table)].reshape(dk, dr, dk, dr))
    return 0.5 * (traced + traced.conj().T)


def test_partial_trace_bell():
    rho = linalg.partial_trace(BELL, [0])
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product():
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    zero = np.array([1, 0], dtype=complex)
    psi = np.kron(zero, plus)
    rho = linalg.partial_trace(psi, [1])
    assert np.allclose(rho, np.outer(plus, plus.conj()), atol=1e-14)


def test_partial_trace_ghz_pair():
    # oracle: explicit sum over traced-out basis states of qubit 2
    expected = np.zeros((4, 4), dtype=complex)
    psi = GHZ.reshape(2, 2, 2)
    for k in range(2):
        block = psi[:, :, k].reshape(-1)
        expected += np.outer(block, block.conj())
    got = linalg.partial_trace(GHZ, [0, 1])
    assert np.allclose(got, expected, atol=1e-14)
    assert np.allclose(np.diag(got), [0.5, 0, 0, 0.5], atol=1e-14)


def test_partial_trace_keep_all_is_projector():
    rng = np.random.default_rng(9)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    rho = linalg.partial_trace(psi, [0, 1, 2])
    assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-14)


@pytest.mark.parametrize("keep", [[0], [0, 1], [1, 0]])
def test_partial_trace_rejects_a_density_matrix(keep):
    # a 2-d array is a stack of state vectors; a density matrix with one
    # flat keep list is not taken for one
    rng = np.random.default_rng(10)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    assert np.allclose(_reference_partial_trace(rho, [0, 1]), rho, atol=1e-14)
    with pytest.raises(ValueError):
        linalg.partial_trace(rho, keep)
    with pytest.raises(ValueError):
        linalg.partial_trace(rho[:2, :2], [0, 0])  # as many entries as rows


def test_partial_trace_matrix_matches_vector_path():
    # the trace of the density matrix, by the reference, against the
    # vector path, alone and as rows of a stack
    rng = np.random.default_rng(11)
    for n, keep in [(3, [0]), (3, [2, 0]), (4, [1, 3]), (5, [4, 0]), (2, [1, 0])]:
        psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        psi /= np.linalg.norm(psi)
        via_mat = _reference_partial_trace(np.outer(psi, psi.conj()), keep)
        assert np.allclose(linalg.partial_trace(psi, keep), via_mat, atol=1e-13)
        stack = np.stack([psi[::-1], psi])
        assert np.allclose(linalg.partial_trace(stack, [keep[::-1], keep])[1], via_mat, atol=1e-13)


def test_partial_trace_keep_order():
    rng = np.random.default_rng(12)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    r01 = linalg.partial_trace(psi, [0, 1])
    r10 = linalg.partial_trace(psi, [1, 0])
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert np.allclose(r10, swap @ r01 @ swap, atol=1e-13)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(13)
    for n in range(2, 6):
        psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        psi /= np.linalg.norm(psi)
        keep = sorted(rng.choice(n, size=rng.integers(1, n + 1), replace=False).tolist())
        rho = linalg.partial_trace(psi, keep)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert linalg.hermiticity_defect(rho) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_partial_trace_schmidt_symmetry():
    # reduced states of a pure state on a cut share nonzero spectra
    rng = np.random.default_rng(14)
    for n in range(2, 7):
        psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        psi /= np.linalg.norm(psi)
        k = int(rng.integers(1, n))
        keep = sorted(rng.choice(n, size=k, replace=False).tolist())
        rest = [q for q in range(n) if q not in keep]
        ev_a = np.linalg.eigvalsh(linalg.partial_trace(psi, keep))
        ev_b = np.linalg.eigvalsh(linalg.partial_trace(psi, rest))
        nz_a = np.sort(ev_a[ev_a > 1e-10])
        nz_b = np.sort(ev_b[ev_b > 1e-10])
        assert nz_a.shape == nz_b.shape
        assert np.max(np.abs(nz_a - nz_b)) < 1e-10


def test_partial_trace_errors():
    with pytest.raises(ValueError):
        linalg.partial_trace(BELL, [0, 0])
    with pytest.raises(ValueError):
        linalg.partial_trace(BELL, [2])
    with pytest.raises(ValueError):
        linalg.partial_trace(BELL, [])
    with pytest.raises(ValueError):
        linalg.partial_trace(np.ones(3, dtype=complex), [0])


def test_qubit_order_lists_the_given_qubits_first_then_the_rest_ascending():
    assert linalg.qubit_order(4, (2,)) == (2, 0, 1, 3)
    assert linalg.qubit_order(4, (3, 0)) == (3, 0, 1, 2)
    assert linalg.qubit_order(3, (1, 2, 0)) == (1, 2, 0)


@pytest.mark.parametrize("first", [(), (1, 1), (0, 2, 0), (3,), (-1,), (0, 4)])
def test_qubit_order_rejects_an_empty_duplicate_or_out_of_range_list(first):
    with pytest.raises(ValueError):
        linalg.qubit_order(3, first)


def test_qubit_order_takes_integer_indices_only():
    with pytest.raises(ValueError):
        linalg.qubit_order(3, (1.0,))
    with pytest.raises(ValueError):
        linalg.partial_trace(BELL, [0.5])
    order = linalg.qubit_order(3, (np.int64(1),))
    assert order == (1, 0, 2) and all(type(q) is int for q in order)


def test_partial_trace_of_a_stack_matches_each_row():
    rng = np.random.default_rng(14)
    n, rows = 5, 9
    states = rng.standard_normal((rows, 2**n)) + 1j * rng.standard_normal((rows, 2**n))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    keeps = [[int(q) for q in rng.choice(n, size=2, replace=False)] for _ in range(rows)]
    got = linalg.partial_trace(states, keeps)
    assert got.shape == (rows, 4, 4)
    for b in range(rows):
        assert np.array_equal(got[b], linalg.partial_trace(states[b], keeps[b]))
    with pytest.raises(ValueError):
        linalg.partial_trace(states, [[0]] + keeps[1:])  # keeps of different sizes
    with pytest.raises(ValueError):
        linalg.partial_trace(states, keeps[1:])  # one keep list short
    with pytest.raises(ValueError):
        linalg.partial_trace(states[None], [keeps])  # not a vector or a stack


@pytest.mark.parametrize("same", [True, False], ids=["one-table", "per-row-tables"])
def test_permute_is_numpys_transpose_and_the_inverse_order_moves_back(same):
    # row b of the gather over _tables is states[b] reshaped to [2]*n with
    # its qubit axes transposed: orders[b] listed first, then the rest
    # ascending; a gather over the tables of the inverse order restores
    # every row
    rng = np.random.default_rng(18)
    n, rows = 4, 6
    states = rng.standard_normal((rows, 2**n)) + 1j * rng.standard_normal((rows, 2**n))
    firsts = [tuple(int(q) for q in rng.permutation(n)[:rng.integers(1, n + 1)])
              for _ in range(rows)]
    if same:
        firsts = [firsts[0]] * rows
    tables = linalg._tables(n, firsts)
    moved = linalg._permute(states, tables)
    orders = [first + tuple(q for q in range(n) if q not in first) for first in firsts]
    for b in range(rows):
        want = states[b].reshape([2] * n).transpose(orders[b]).reshape(-1)
        assert np.array_equal(moved[b], want)
    # the inverse transposition, argsort(order), moves each row back
    inverses = [tuple(int(q) for q in np.argsort(order)) for order in orders]
    assert np.array_equal(linalg._permute(moved, linalg._tables(n, inverses)), states)


def test_stacks_of_no_rows():
    empty = np.zeros((0, 8), dtype=complex)
    assert linalg._permute(empty, linalg._tables(3, [])).shape == (0, 8)
    with pytest.raises(ValueError, match="empty"):
        linalg.partial_trace(empty, [])
    w, v = linalg.jacobi_eigh(np.zeros((0, 4, 4), dtype=complex))
    assert (w.shape, v.shape) == ((0, 4), (0, 4, 4))
    w, v = linalg.jacobi_eigh(np.zeros((0, 2, 2)), vectors=False)
    assert w.shape == (0, 2) and v is None
    assert linalg.hermiticity_defect(np.zeros((0, 4, 4))) == 0.0
    with pytest.raises(ValueError, match="0 x 0"):
        linalg.jacobi_eigh(np.zeros((0, 0)))


# (value, what _integer returns or None for rejected, what _real returns
# or None): an exact int or float takes a fast path, which must accept
# and reject what the numbers ABC test does
_NUMBER_CHECKS = [
    (3, 3, 3.0),
    (-2**70, -2**70, -1.1805916207174113e+21),
    (np.int64(3), 3, 3.0),
    (np.uint8(7), 7, 7.0),
    (True, None, None),
    (False, None, None),
    (np.bool_(True), None, None),
    (2.5, None, 2.5),
    (3.0, None, 3.0),
    (math.nan, None, math.nan),
    (np.float64(2.5), None, 2.5),
    (np.float32(0.5), None, 0.5),
    (Fraction(1, 2), None, 0.5),
    ("3", None, None),
    (None, None, None),
    (1j, None, None),
    (np.complex128(1.0), None, None),
]


@pytest.mark.parametrize("value, integer, real", _NUMBER_CHECKS)
def test_integer_and_real_checks_accept_and_reject_by_type(value, integer, real):
    for check, want, kind, message in (
        (linalg._integer, integer, int, "is not an integer"),
        (linalg._real, real, float, "is not a real number"),
    ):
        if want is None:
            with pytest.raises(ValueError, match=f"^x {re.escape(repr(value))} {message}$"):
                check(value, "x")
            continue
        got = check(value, "x")
        assert type(got) is kind
        assert got == want or (math.isnan(got) and math.isnan(want))


# --------------------------------------------- eigenvalues of jacobi_eigh

def test_eigenvalues_pauli_x():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(linalg.jacobi_eigh(x)[0], [-1, 1], atol=1e-14)


def test_eigenvalues_diagonal():
    assert np.allclose(
        linalg.jacobi_eigh(np.diag([3.0, 1.0]))[0], [1, 3], atol=1e-15
    )


def test_eigenvalues_ghz_reduction():
    rho = linalg.partial_trace(GHZ, [0, 1])
    assert np.allclose(
        linalg.jacobi_eigh(rho)[0], [0, 0, 0.5, 0.5], atol=1e-12
    )


def test_eigenvalues_match_reference():
    rng = np.random.default_rng(15)
    for _ in range(40):
        n = int(rng.integers(1, linalg.MAX_EIG_DIM + 1))
        h = random_hermitian(n, rng)
        got = linalg.jacobi_eigh(h)[0]
        ref = np.linalg.eigvalsh(h)
        assert np.max(np.abs(got - ref)) < 1e-10
        assert abs(got.sum() - np.trace(h).real) < 1e-10


def test_eigenvalues_unitary_conjugation():
    rng = np.random.default_rng(16)
    for _ in range(25):
        n = int(rng.integers(2, linalg.MAX_EIG_DIM + 1))
        d = np.sort(rng.uniform(-1.0, 1.0, n))
        u = random_unitary(n, rng)
        h = (u * d) @ u.conj().T
        got = linalg.jacobi_eigh(h)[0]
        assert np.max(np.abs(got - d)) < 1e-10


def test_jacobi_returns_eigenvectors():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, linalg.MAX_EIG_DIM + 1))
        h = random_hermitian(n, rng)
        w, v = linalg.jacobi_eigh(h)
        assert np.max(np.abs(h @ v - v @ np.diag(w))) < 1e-12 * max(1.0, np.linalg.norm(h))
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-13


def test_eigenvalues_errors():
    with pytest.raises(ValueError):
        linalg.jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))[0]
    with pytest.raises(ValueError):
        linalg.jacobi_eigh(np.ones((2, 3)))[0]
    # one past the limit is rejected before any kernel is built, and so is
    # the relative entropy of two three-qubit states, which solves 8x8
    built = linalg._jacobi_kernel.cache_info().misses
    limit = f"limit {linalg.MAX_EIG_DIM}"
    for vectors in (True, False):
        with pytest.raises(ValueError, match=limit):
            linalg.jacobi_eigh(np.eye(linalg.MAX_EIG_DIM + 1), vectors=vectors)
    rho, sigma = (verify.random_density_matrix(3, seed) for seed in (1, 2))
    with pytest.raises(ValueError, match=limit):
        verify.relative_entropy(rho, sigma)
    assert linalg._jacobi_kernel.cache_info().misses == built


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_jacobi_rejects_non_finite(bad):
    m = np.eye(2, dtype=complex)
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        linalg.jacobi_eigh(m)
    with pytest.raises(ValueError, match="non-finite"):
        linalg.jacobi_eigh(np.diag([bad, 1.0]))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_jacobi_rejects_overflow_when_symmetrised(d):
    # finite entries whose Hermitian part overflows fail as non-finite
    # input, with no RuntimeWarning (warnings are errors here)
    with pytest.raises(ValueError, match="non-finite"):
        linalg.jacobi_eigh(np.full((d, d), 1e308))
    with pytest.raises(ValueError, match="non-finite"):
        linalg.jacobi_eigh(np.full((d, d), 1e308), vectors=False)
    # one overflowing matrix in a stack fails the whole call
    stack = np.array([np.eye(d), np.full((d, d), -1e308), np.eye(d)], dtype=complex)
    with pytest.raises(ValueError, match="non-finite"):
        linalg.jacobi_eigh(stack)
    # a defect that overflows is not Hermitian
    skew = np.zeros((d, d))
    skew[0, 1], skew[1, 0] = 1e308, -1e308
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.jacobi_eigh(skew)
    # just below the limit stays solvable
    w, _ = linalg.jacobi_eigh(np.full((d, d), 1e300) / d)
    assert np.isfinite(w).all() and w[-1] == pytest.approx(1e300)


@st.composite
def hermitian_matrices(draw):
    """Random Hermitian matrices of every solvable size, and random bases
    for exactly degenerate, rank-deficient spectra."""
    n = draw(st.integers(1, linalg.MAX_EIG_DIM))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_hermitian(n, rng)
    d = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)
    u = random_unitary(n, rng)
    return (u * d) @ u.conj().T


def _diag(*values):
    return np.diag(values).astype(complex)


BELL_PAIR_REDUCTION = linalg.partial_trace(
    np.kron(BELL, BELL).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(-1), [0, 1]
)


@settings(max_examples=120, deadline=None)
@given(hermitian_matrices())
@example(_diag(0.0, 0.0, 0.0, 1.0))                  # rho_lambda(0)
@example(_diag(0.5, 0.0, 0.0, 0.5))                  # rho_lambda(1/2)
@example(_diag(1.0, 0.0, 0.0, 0.0))                  # rho_lambda(1)
@example(BELL_PAIR_REDUCTION)                        # I/4 from two Bell pairs
@example(np.outer(BELL, BELL.conj()))                # pure Bell pair, rank 1
@example(np.eye(4, dtype=complex) / 4.0)
@example(_diag(0.25, 0.5, 0.25, 0.5))               # repeated diagonal
def test_jacobi_matches_lapack(m):
    w, v = linalg.jacobi_eigh(m)
    n = m.shape[0]
    scale = max(1.0, np.linalg.norm(m, 2))
    assert np.all(np.diff(w) >= 0.0)
    assert np.max(np.abs(w - np.linalg.eigvalsh(m))) <= 5e-14 * scale
    assert np.max(np.abs(m @ v - v * w)) <= 5e-14 * scale
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 5e-14


def _spectra(n):
    # random, exactly degenerate and rank-deficient spectra of size n
    rng = np.random.default_rng([18, n])
    mats = [random_hermitian(n, rng) for _ in range(2)]
    for spectrum in ([0.0, 0.25, 0.5, 1.0], [0.0, 0.0, 0.0, 1.0]):
        u = random_unitary(n, rng)
        mats.append((u * rng.choice(spectrum, size=n)) @ u.conj().T)
    return mats


@pytest.mark.parametrize("n", range(1, linalg.MAX_EIG_DIM + 1))
def test_values_only_solve_matches_the_eigenpair_solve(n):
    # the kernel returns the same eigenvalues, bit for bit, with or without
    # building the eigenvectors
    for m in _spectra(n):
        a = 0.5 * (m + m.conj().T)
        w, v = _kernel(a.tolist(), vectors=True)
        values, none = _kernel(a.tolist(), vectors=False)
        assert none is None and v is not None
        assert np.array(values).tobytes() == np.array(w).tobytes()
        assert np.array(w).tobytes() == linalg.jacobi_eigh(m)[0].tobytes()


@pytest.mark.parametrize("n", range(1, linalg.MAX_EIG_DIM + 1))
def test_stack_solve_matches_the_per_matrix_solves(n):
    mats = _spectra(n)
    stack = np.array(mats)
    w, v = linalg.jacobi_eigh(stack)
    values, none = linalg.jacobi_eigh(stack, vectors=False)
    assert w.shape == values.shape == (len(mats), n) and v.shape == stack.shape
    assert none is None and linalg.jacobi_eigh(mats[0], vectors=False)[1] is None
    assert values.tobytes() == w.tobytes()
    for b, m in enumerate(mats):
        wb, vb = linalg.jacobi_eigh(m)
        assert w[b].tobytes() == wb.tobytes() and v[b].tobytes() == vb.tobytes()


def _kernel(a, *, vectors):
    # the generated kernel of a's size, called as jacobi_eigh calls it
    return linalg._jacobi_kernel(len(a), vectors)(a, linalg.OFFDIAG_TARGET, linalg._MAX_SWEEPS)


def _loop_jacobi(a, *, vectors):
    # The rotation loop over nested lists that the generated kernel writes
    # out pivot by pivot: the reference it must match bit for bit.
    n = len(a)
    v = [[1.0 + 0j if i == j else 0j for j in range(n)] for i in range(n)] if vectors else None
    d = [a[i][i].real for i in range(n)]
    pivots = [
        (p, q, a[p], a[q], [(i, a[i]) for i in range(n) if i != p and i != q])
        for p in range(n - 1)
        for q in range(p + 1, n)
    ]
    pivot_floor = linalg.OFFDIAG_TARGET / (4.0 * n * n)
    for _ in range(linalg._MAX_SWEEPS):
        off = 0.0
        for p, q, ap, _, _ in pivots:
            x = ap[q]
            off += x.real * x.real + x.imag * x.imag
        if math.sqrt(2.0 * off) <= linalg.OFFDIAG_TARGET:
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
    order = sorted(range(n), key=d.__getitem__)
    return [d[i] for i in order], [[row[i] for i in order] for row in v] if vectors else None


def _kernel_cases(n):
    # random, exactly degenerate, rank-one, diagonal and zero matrices, a
    # real one (signed zeros) and an infinite one, as the symmetrisation
    # of a finite matrix near the float limit gives: its rotations turn to
    # NaN, which at 2x2 converges, to NaN eigenvalues
    rng = np.random.default_rng([19, n])
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    real = rng.standard_normal((n, n))
    return [
        *_spectra(n),
        np.outer(x, x.conj()),
        np.diag(rng.standard_normal(n)),
        np.zeros((n, n)),
        real + real.T,
        np.full((n, n), np.inf),
    ]


def _solve_or_raise(kernel, a, vectors):
    try:
        return repr(kernel(a, vectors=vectors))
    except ArithmeticError as exc:
        return repr(exc)


@pytest.mark.parametrize("n", range(1, linalg.MAX_EIG_DIM + 1))
def test_generated_kernel_matches_the_loop_kernel(n):
    # eigenvalues and eigenvectors, signed zeros and non-convergence included
    for m in _kernel_cases(n):
        m = m.astype(complex)
        with np.errstate(invalid="ignore"):  # 0.5 * (inf + 0j) has a NaN part
            a = 0.5 * (m + m.conj().T)  # as jacobi_eigh symmetrises
        for vectors in (True, False):
            want = _solve_or_raise(_loop_jacobi, a.tolist(), vectors)
            assert _solve_or_raise(_kernel, a.tolist(), vectors) == want


def test_each_kernel_is_built_once_per_process():
    kernels = {
        (n, v): linalg._jacobi_kernel(n, v)
        for n in range(1, linalg.MAX_EIG_DIM + 1)
        for v in (True, False)
    }
    built = linalg._jacobi_kernel.cache_info().misses
    for n, vectors in kernels:
        m = random_hermitian(n, RNG)
        linalg.jacobi_eigh(np.array([m, m]), vectors=vectors)
        linalg.jacobi_eigh(m, vectors=vectors)
        assert linalg._jacobi_kernel(n, vectors) is kernels[n, vectors]
    assert linalg._jacobi_kernel.cache_info().misses == built


def test_n_qubits_of():
    assert linalg.n_qubits_of(8) == 3
    with pytest.raises(ValueError):
        linalg.n_qubits_of(6)
    with pytest.raises(ValueError):
        linalg.n_qubits_of(0)


@pytest.mark.parametrize("keep", [None, 0.5, object()])
def test_partial_trace_takes_qubit_lists_only(keep):
    # each of these used to raise TypeError: ... has no len()
    psi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="keep"):
        linalg.partial_trace(psi, keep)
    with pytest.raises(ValueError, match="keep"):
        linalg.partial_trace(psi[None], keep)
    with pytest.raises(ValueError, match="keep"):
        linalg.partial_trace(psi[None], [keep])
