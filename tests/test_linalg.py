import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adqcsim import linalg

RNG = np.random.default_rng(2024)


def random_hermitian(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


def random_unitary(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------- kron

def test_kron_z_z():
    z = np.diag([1.0, -1.0])
    assert np.array_equal(linalg.kron(z, z), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_kron_identity():
    assert np.array_equal(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_hh_on_00():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    e00 = np.zeros(4, dtype=complex)
    e00[0] = 1.0
    out = linalg.kron(h, h) @ e00
    assert np.allclose(out, 0.25**0.5 * np.ones(4), atol=1e-15)


def test_kron_shape_rule():
    a = RNG.standard_normal((2, 3)) + 1j * RNG.standard_normal((2, 3))
    b = RNG.standard_normal((4, 2)) + 1j * RNG.standard_normal((4, 2))
    out = linalg.kron(a, b)
    assert out.shape == (8, 6)
    # spot-check the index law
    assert out[1 * 4 + 2, 0 * 2 + 1] == pytest.approx(a[1, 0] * b[2, 1])


def test_kron_associative():
    rng = np.random.default_rng(5)
    for _ in range(20):
        mats = [
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(3)
        ]
        left = linalg.kron(linalg.kron(mats[0], mats[1]), mats[2])
        right = linalg.kron(mats[0], linalg.kron(mats[1], mats[2]))
        assert np.max(np.abs(left - right)) < 1e-12


# ---------------------------------------------------------- partial_trace

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
GHZ = np.zeros(8, dtype=complex)
GHZ[0] = GHZ[7] = 1 / np.sqrt(2)


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


def test_partial_trace_matrix_input_keep_all():
    rng = np.random.default_rng(10)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    assert np.allclose(linalg.partial_trace(rho, [0, 1]), rho, atol=1e-14)


def test_partial_trace_matrix_matches_vector_path():
    rng = np.random.default_rng(11)
    for n, keep in [(3, [0]), (3, [2, 0]), (4, [1, 3])]:
        psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        psi /= np.linalg.norm(psi)
        via_vec = linalg.partial_trace(psi, keep)
        via_mat = linalg.partial_trace(np.outer(psi, psi.conj()), keep)
        assert np.allclose(via_vec, via_mat, atol=1e-13)


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
    # cache keys compare equal across 1.0, True and np.int64(1): a float
    # must fail without leaving its order in the cache for a later int
    linalg.qubit_order.cache_clear()
    with pytest.raises(TypeError):
        linalg.qubit_order(3, (1.0,))
    with pytest.raises(TypeError):
        linalg.partial_trace(BELL, [0.5])
    order = linalg.qubit_order(3, (np.int64(1),))
    assert order == (1, 0, 2) and all(type(q) is int for q in order)


def test_partial_traces_match_each_row():
    rng = np.random.default_rng(14)
    n, rows = 5, 9
    states = rng.standard_normal((rows, 2**n)) + 1j * rng.standard_normal((rows, 2**n))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    keeps = [[int(q) for q in rng.choice(n, size=2, replace=False)] for _ in range(rows)]
    got = linalg.partial_traces(states, keeps)
    for b in range(rows):
        assert np.array_equal(got[b], linalg.partial_trace(states[b], keeps[b]))
    with pytest.raises(ValueError):
        linalg.partial_traces(states, [[0]] + keeps[1:])  # keeps of different sizes


def test_permute_qubits_inverse_round_trip():
    rng = np.random.default_rng(18)
    n, rows = 4, 6
    states = rng.standard_normal((rows, 2**n)) + 1j * rng.standard_normal((rows, 2**n))
    orders = [tuple(int(q) for q in rng.permutation(n)) for _ in range(rows)]
    moved = linalg.permute_qubits(states, orders)
    for b in range(rows):
        want = states[b].reshape([2] * n).transpose(orders[b]).reshape(-1)
        assert np.array_equal(moved[b], want)
    assert np.array_equal(linalg.permute_qubits(moved, orders, inverse=True), states)


def test_stacks_of_no_rows():
    empty = np.zeros((0, 8), dtype=complex)
    for inverse in (False, True):
        assert linalg.permute_qubits(empty, [], inverse=inverse).shape == (0, 8)
    with pytest.raises(ValueError, match="empty"):
        linalg.partial_traces(empty, [])
    w, v = linalg.jacobi_eigh(np.zeros((0, 4, 4), dtype=complex))
    assert (w.shape, v.shape) == ((0, 4), (0, 4, 4))
    w, v = linalg.jacobi_eigh(np.zeros((0, 2, 2)), vectors=False)
    assert w.shape == (0, 2) and v is None
    assert linalg.hermiticity_defect(np.zeros((0, 4, 4))) == 0.0
    with pytest.raises(ValueError, match="0 x 0"):
        linalg.jacobi_eigh(np.zeros((0, 0)))


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
        n = int(rng.integers(1, 17))
        h = random_hermitian(n, rng)
        got = linalg.jacobi_eigh(h)[0]
        ref = np.linalg.eigvalsh(h)
        assert np.max(np.abs(got - ref)) < 1e-10
        assert abs(got.sum() - np.trace(h).real) < 1e-10


def test_eigenvalues_unitary_conjugation():
    rng = np.random.default_rng(16)
    for _ in range(25):
        n = int(rng.integers(2, 17))
        d = np.sort(rng.uniform(-1.0, 1.0, n))
        u = random_unitary(n, rng)
        h = (u * d) @ u.conj().T
        got = linalg.jacobi_eigh(h)[0]
        assert np.max(np.abs(got - d)) < 1e-10


def test_jacobi_returns_eigenvectors():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 17))
        h = random_hermitian(n, rng)
        w, v = linalg.jacobi_eigh(h)
        assert np.max(np.abs(h @ v - v @ np.diag(w))) < 1e-12 * max(1.0, np.linalg.norm(h))
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-13


def test_eigenvalues_errors():
    with pytest.raises(ValueError):
        linalg.jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))[0]
    with pytest.raises(ValueError):
        linalg.jacobi_eigh(np.eye(32))[0]
    with pytest.raises(ValueError):
        linalg.jacobi_eigh(np.ones((2, 3)))[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_jacobi_rejects_non_finite(bad):
    m = np.eye(2, dtype=complex)
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        linalg.jacobi_eigh(m)
    with pytest.raises(ValueError, match="non-finite"):
        linalg.jacobi_eigh(np.diag([bad, 1.0]))


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
@example(_diag(0.25, 0.5, 0.25, 0.5, 0.25, 0.5))     # repeated diagonal
@example(np.eye(16, dtype=complex))
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
        w, v = linalg._jacobi(a.tolist(), vectors=True)
        values, none = linalg._jacobi(a.tolist(), vectors=False)
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


def test_n_qubits_of():
    assert linalg.n_qubits_of(8) == 3
    with pytest.raises(ValueError):
        linalg.n_qubits_of(6)
    with pytest.raises(ValueError):
        linalg.n_qubits_of(0)
