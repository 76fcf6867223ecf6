import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adqcsim import linalg, protocols, qcore, verify
from adqcsim.qcore import PureState, basis_state

ANGLES = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def random_unitary(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def u_basis(u, epsilon, delta):
    """The equatorial basis (|0> +- e^{iu}|1>)/sqrt(2) tilted by (epsilon, delta)."""
    return qcore.tilted_vectors(qcore.equatorial_pair(u), epsilon, delta)


def z_basis(epsilon, delta):
    """The computational basis tilted by (epsilon, delta)."""
    return qcore.tilted_vectors(qcore.Z_PAIR, epsilon, delta)


def transposed(states, orders):
    """Row b of a (B, 2^n) stack with its qubit axes in orders[b], by numpy's transpose."""
    n = linalg.n_qubits_of(states.shape[1])
    return np.array([row.reshape([2] * n).transpose(order).reshape(-1)
                     for row, order in zip(states, orders)])


# ------------------------------------------------------------------ gates

@pytest.mark.parametrize("name", ["X", "Y", "Z", "H", "1", "CZ", "SWAP", "CZSWAP", "E_CZ"])
def test_gate_unitarity(name):
    u = qcore.gate(name)
    assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-12


def test_czswap_action():
    cs = qcore.gate("CZSWAP")
    e01 = np.array([0, 1, 0, 0], dtype=complex)
    e10 = np.array([0, 0, 1, 0], dtype=complex)
    e11 = np.array([0, 0, 0, 1], dtype=complex)
    assert np.allclose(cs @ e01, e10)
    assert np.allclose(cs @ e10, e01)
    assert np.allclose(cs @ e11, -e11)


def test_e_cz_composition():
    h = qcore.gate("H")
    assert np.allclose(qcore.gate("E_CZ"), np.kron(h, h) @ qcore.gate("CZ"), atol=1e-15)


def test_gate_unknown():
    with pytest.raises(ValueError):
        qcore.gate("CNOT")


def test_gate_returns_copy():
    a = qcore.gate("X")
    a[0, 0] = 99
    assert qcore.gate("X")[0, 0] == 0


def test_hh_vs_swap_on_special_vectors():
    # H (x) H acts like SWAP on |0>|+> and |1>|->, though not as a full
    # matrix; composed with the prior CZ the two interactions therefore
    # agree on any register-qubit state paired with a |+> ancilla
    hh = np.kron(qcore.gate("H"), qcore.gate("H"))
    swap = qcore.gate("SWAP")
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    zero = np.array([1, 0], dtype=complex)
    one = np.array([0, 1], dtype=complex)
    for vec in (np.kron(zero, plus), np.kron(one, minus)):
        assert np.max(np.abs(hh @ vec - swap @ vec)) < 1e-12
    assert np.max(np.abs(hh - swap)) > 0.5
    e_cz = qcore.gate("E_CZ")
    swap_cz = swap @ qcore.gate("CZ")
    for vec in (np.kron(zero, plus), np.kron(one, plus)):
        assert np.max(np.abs(e_cz @ vec - swap_cz @ vec)) < 1e-12


# ------------------------------------------------------------------ bases

def test_u_basis_ideal_reduction():
    # at zero tilt the pair is (|u+>, -|u->): the minus sign is part of
    # the tilt convention and carries no physics
    u = 0.9
    b = u_basis(u, 0.0, 0.0)
    u_plus = np.array([1, np.exp(1j * u)]) / np.sqrt(2)
    u_minus = np.array([1, -np.exp(1j * u)]) / np.sqrt(2)
    assert np.allclose(b[0], u_plus, atol=1e-15)
    assert np.allclose(b[1], -u_minus, atol=1e-15)


def test_u_basis_epsilon_pi():
    u, delta = 0.4, 1.2
    b = u_basis(u, np.pi, delta)
    u_minus = np.array([1, -np.exp(1j * u)]) / np.sqrt(2)
    assert np.max(np.abs(b[0] - np.exp(-1j * delta) * u_minus)) < 1e-12


def test_z_basis_ideal_and_flipped():
    b = z_basis(0.0, 0.0)
    assert np.allclose(b[0], [1, 0])
    assert np.allclose(b[1], [0, -1])
    b = z_basis(np.pi, 0.0)
    assert np.max(np.abs(b[0] - np.array([0, 1]))) < 1e-12


@given(u=ANGLES, epsilon=ANGLES, delta=ANGLES)
def test_u_basis_orthonormal(u, epsilon, delta):
    b = u_basis(u, epsilon, delta)
    assert abs(np.vdot(b[0], b[0]) - 1) < 1e-12
    assert abs(np.vdot(b[1], b[1]) - 1) < 1e-12
    assert abs(np.vdot(b[0], b[1])) < 1e-12


@given(epsilon=ANGLES, delta=ANGLES)
def test_z_basis_orthonormal(epsilon, delta):
    b = z_basis(epsilon, delta)
    assert abs(np.vdot(b[0], b[1])) < 1e-12


def test_bases_orthonormal_on_dense_grid():
    angles = np.linspace(-2 * np.pi, 2 * np.pi, 17)
    for eps in angles:
        for delta in angles:
            bases = [z_basis(eps, delta)]
            bases += [u_basis(u, eps, delta) for u in (0.0, 1.1, 4.4)]
            for b in bases:
                assert b.shape == (2, 2)
                assert np.max(np.abs(b @ b.conj().T - np.eye(2))) < 1e-12


# ------------------------------------------------------------- PureState

def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(2, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        PureState(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        PureState(0, np.array([1.0]))
    st = PureState.from_vector(np.array([0, 1, 0, 0], dtype=complex))
    assert st.n_qubits == 2


@pytest.mark.parametrize("n, index", [(2, -1), (2, 4), (1, 2), (3, -8)])
def test_basis_state_rejects_index_out_of_range(n, index):
    with pytest.raises(ValueError, match="out of range"):
        basis_state(n, index)


@pytest.mark.parametrize("index", [True, 1.0, "1", None])
def test_basis_state_index_must_be_an_integer(index):
    # True used to fail the norm check as an amplitude of 2, 1.0 raised
    # IndexError
    with pytest.raises(ValueError, match="index .* is not an integer"):
        basis_state(2, index)
    assert basis_state(2, np.int64(1)).amplitudes[1] == 1.0


_PUBLIC_ANGLES = {
    "equatorial_pair u": lambda a: qcore.equatorial_pair(a),
    "tilted_vectors epsilon": lambda a: qcore.tilted_vectors(qcore.equatorial_pair(0.3), a, 0.1),
    "tilted_vectors delta": lambda a: qcore.tilted_vectors(qcore.equatorial_pair(0.3), 0.1, a),
    "tilted_vectors epsilon Z_PAIR": lambda a: qcore.tilted_vectors(qcore.Z_PAIR, a, 0.0),
    "tilted_vectors delta Z_PAIR": lambda a: qcore.tilted_vectors(qcore.Z_PAIR, 0.2, a),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, True, "0.3", 1j, object(),
                                 [0.1, np.nan], [0.1, "0.3"]])
@pytest.mark.parametrize("call", sorted(_PUBLIC_ANGLES))
def test_basis_builders_reject_angles_that_are_not_finite_reals(call, bad):
    # the one checked basis builder reads its angles as real arrays: a
    # string, True, a complex or a non-finite angle raises, alone or in
    # an array of angles
    name = call.split()[1]
    non_finite = np.asarray(bad).dtype.kind == "f"
    message = f"{name} has non-finite" if non_finite else f"{name} is not an array of real numbers"
    with pytest.raises(ValueError, match=message):
        _PUBLIC_ANGLES[call](bad)
    assert np.isfinite(_PUBLIC_ANGLES[call](np.float64(0.3))).all()
    assert np.isfinite(_PUBLIC_ANGLES[call]([0.3, -1.2])).all()


@pytest.mark.parametrize("reference", [
    np.array([[1.0, 0.0], [0.0, np.nan]]), np.array([[np.inf, 0.0], [0.0, 1.0]]),
    np.ones(2), np.ones((3, 2)), np.ones((2, 3)), 1.0, "Z", object(), None, [[1, 0], [0]],
])
def test_tilted_vectors_reject_a_reference_that_is_not_a_finite_pair(reference):
    with pytest.raises(ValueError, match="reference"):
        qcore.tilted_vectors(reference, 0.1, 0.2)


@pytest.mark.parametrize("reference, epsilon, delta", [
    (qcore.Z_PAIR, [0.1, 0.2, 0.3], [0.1, 0.2]),
    (np.stack([qcore.Z_PAIR] * 2), [0.1, 0.2, 0.3], 0.1),
    (np.stack([qcore.Z_PAIR] * 2), 0.1, [0.1, 0.2, 0.3]),
    (np.stack([qcore.Z_PAIR] * 3), np.zeros((2, 1)), np.zeros(2)),
])
def test_tilted_vectors_rejects_angles_that_do_not_broadcast(reference, epsilon, delta):
    # the first case used to raise numpy's "operands could not be broadcast
    # together with shapes (2,1) (3,1)", naming no argument
    with pytest.raises(ValueError, match="epsilon shape .* delta shape .* broadcast"):
        qcore.tilted_vectors(reference, epsilon, delta)


def test_the_one_basis_builder_gives_the_tilted_bases():
    # plus = cos(e/2)|r0> + e^{-i delta} sin(e/2)|r1>, minus = sin(e/2)|r0> -
    # e^{-i delta} cos(e/2)|r1>, for one reference or a stack of them
    rng = np.random.default_rng(39)
    for u, eps, delta in rng.uniform(-7, 7, size=(20, 3)):
        ce, se, ph = np.cos(eps / 2), np.sin(eps / 2), np.exp(-1j * delta)
        u_pair = np.array([[1, np.exp(1j * u)], [1, -np.exp(1j * u)]]) / np.sqrt(2)
        for ref in (qcore.Z_PAIR, u_pair):
            want = np.array([ce * ref[0] + ph * se * ref[1], se * ref[0] - ph * ce * ref[1]])
            assert np.max(np.abs(qcore.tilted_vectors(ref, eps, delta) - want)) < 1e-15
    us = rng.uniform(-7, 7, size=5)
    stack = qcore.tilted_vectors(qcore.equatorial_pair(us), 0.3, 0.4)
    assert stack.shape == (5, 2, 2)
    for b, u in enumerate(us):
        assert stack[b].tobytes() == u_basis(u, 0.3, 0.4).tobytes()


@pytest.mark.parametrize("n", [-2, 0, 9])
def test_basis_state_rejects_qubit_count_out_of_range(n):
    with pytest.raises(ValueError, match="n_qubits"):
        basis_state(n, 0)


@pytest.mark.parametrize("build", [
    lambda: qcore.check_qubit_count(3.5),
    lambda: qcore.check_qubit_count(True),
    lambda: PureState(True, [1, 0]),
    lambda: PureState(2.0, [1, 0, 0, 0]),
    lambda: basis_state(True, 0),
    lambda: qcore.haar_states(2.0, qcore.streams([0])),
    lambda: verify.random_density_matrix(True, 0),
    lambda: verify.saturating_single_qubit_register(0.5, 2.0),
])
def test_qubit_counts_must_be_integers(build):
    # each of these used to pass, build a state whose n_qubits was True or
    # 2.0, or raise TypeError
    with pytest.raises(ValueError, match="qubits .* is not an integer"):
        build()
    state = PureState(np.int64(2), [1, 0, 0, 0])
    assert state.n_qubits == 2 and type(state.n_qubits) is int
    assert qcore.check_qubit_count(np.uint8(3)) == 3


# ---------------------------------------------------------- apply_matrix

def test_apply_cz_phase():
    vec = qcore.apply_matrix(basis_state(2, 0b11).amplitudes, qcore.gate("CZ"), (0, 1))
    assert np.allclose(vec, [0, 0, 0, -1])


def test_apply_h_on_second_qubit():
    vec = qcore.apply_matrix(basis_state(2, 0).amplitudes, qcore.gate("H"), (1,))
    assert np.allclose(vec, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0])


def test_apply_swap():
    vec = qcore.apply_matrix(basis_state(2, 0b01).amplitudes, qcore.gate("SWAP"), (0, 1))
    assert np.allclose(vec, [0, 0, 1, 0])


def test_apply_respects_target_order():
    # CZSWAP is symmetric; use an asymmetric two-qubit operator instead
    op = np.kron(qcore.gate("X"), np.eye(2))  # X on the first listed target
    vec = qcore.apply_matrix(basis_state(2, 0).amplitudes, op, (1, 0))
    assert np.allclose(vec, [0, 1, 0, 0])  # |01>


def test_apply_matrix_errors():
    vec = basis_state(2, 0).amplitudes
    with pytest.raises(ValueError):
        qcore.apply_matrix(vec, qcore.gate("CZ"), (0,))
    with pytest.raises(ValueError):
        qcore.apply_matrix(vec, qcore.gate("H"), (2,))
    with pytest.raises(ValueError):
        qcore.apply_matrix(vec, qcore.gate("CZ"), (0, 0))


@pytest.mark.parametrize("value", [np.array([1.0, 0.0], dtype=complex), None])
def test_a_call_given_the_wrong_type_names_its_argument(value):
    # an array or None used to raise AttributeError from an attribute read
    with pytest.raises(ValueError, match="result must be a"):
        protocols.mean_gate_fidelity(value)


@pytest.mark.parametrize("value", [basis_state(1, 0), None])
def test_measure_branch_takes_an_array_not_a_pure_state(value):
    # one input form, as apply_matrix: a raw vector or a stack; a
    # PureState is no array of numbers
    with pytest.raises(ValueError, match="vec is not an array"):
        qcore.measure_branch(value, 0, qcore.Z_PAIR)
    assert qcore.measure_branch(basis_state(1, 0).amplitudes, 0, qcore.Z_PAIR).shape == (2, 1)


def test_apply_matrix_preserves_norm():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        st = qcore.random_pure_state(n, [31, int(rng.integers(1 << 32))])
        k = int(rng.integers(1, min(n, 2) + 1))
        targets = tuple(int(t) for t in rng.choice(n, size=k, replace=False))
        out = qcore.apply_matrix(st.amplitudes, random_unitary(2**k, rng), targets)
        assert abs(np.vdot(out, out).real - 1) < 1e-12


def test_apply_matrix_on_a_stack_matches_each_row():
    # per-row operators and targets; each row equals its lone-vector result
    rng = np.random.default_rng(36)
    n, rows = 4, 12
    vecs = rng.standard_normal((rows, 2**n)) + 1j * rng.standard_normal((rows, 2**n))
    ops = np.array([random_unitary(4, rng) for _ in range(rows)])
    targets = [tuple(int(t) for t in rng.choice(n, size=2, replace=False)) for _ in range(rows)]
    got = qcore.apply_matrix(vecs, ops, targets)
    for b in range(rows):
        assert np.array_equal(got[b], qcore.apply_matrix(vecs[b], ops[b], targets[b]))
    with pytest.raises(ValueError):
        qcore.apply_matrix(vecs, ops, targets[:-1])


def test_measure_branch_on_a_stack_matches_each_row():
    # one qubit for the whole stack, a basis per row; each row equals its
    # lone-state result bit for bit
    rng = np.random.default_rng(37)
    n, rows = 4, 10
    vecs = rng.standard_normal((rows, 2**n)) + 1j * rng.standard_normal((rows, 2**n))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    bases = [u_basis(*rng.uniform(0, 2 * np.pi, size=3)) for _ in range(rows)]
    vectors = np.array(bases)
    for qubit in range(n):
        got = qcore.measure_branch(vecs, qubit, vectors)
        for b in range(rows):
            want = qcore.measure_branch(vecs[b], qubit, bases[b])
            assert got[b].tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="basis"):
        qcore.measure_branch(vecs, 0, vectors[:-1])


def test_apply_matrix_is_the_permuted_matmul_bit_for_bit():
    # the gather tables are built once and serve the scatter back too: the
    # result is the qubit transposition, the matmul, and its inverse
    rng = np.random.default_rng(38)
    for n, rows, same in ((3, 1, True), (5, 12, True), (5, 12, False), (7, 30, False)):
        vecs = rng.standard_normal((rows, 2**n)) + 1j * rng.standard_normal((rows, 2**n))
        ops = np.array([random_unitary(4, rng) for _ in range(rows)])
        first = tuple(int(t) for t in rng.choice(n, size=2, replace=False))
        targets = [
            first if same else tuple(int(t) for t in rng.choice(n, size=2, replace=False))
            for _ in range(rows)
        ]
        orders = [linalg.qubit_order(n, t) for t in targets]
        psi = ops @ transposed(vecs, orders).reshape(rows, 4, -1)
        inverses = [tuple(int(q) for q in np.argsort(order)) for order in orders]
        want = transposed(psi.reshape(rows, -1), inverses)
        assert qcore.apply_matrix(vecs, ops, targets).tobytes() == want.tobytes()


def test_stacks_of_no_rows():
    empty = np.zeros((0, 8), dtype=complex)
    assert qcore.apply_matrix(empty, qcore.gate("CZ"), []).shape == (0, 8)
    assert qcore.apply_matrix(empty, np.zeros((0, 2, 2)), []).shape == (0, 8)
    for qubit in range(3):
        branches = qcore.measure_branch(empty, qubit, np.zeros((0, 2, 2)))
        assert branches.shape == (0, 2, 4)
    with pytest.raises(ValueError, match="power of two"):
        qcore.apply_matrix(empty, np.eye(3), [])


# --------------------------------------------------------- measure_branch

def probability(branch):
    return float(np.vdot(branch, branch).real)


def test_measure_plus_in_z():
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    b0, b1 = qcore.measure_branch(plus, 0, z_basis(0.0, 0.0))
    assert probability(b0) == pytest.approx(0.5, abs=1e-12)
    assert probability(b1) == pytest.approx(0.5, abs=1e-12)


def test_measure_eigenstate_in_u_basis():
    u = 1.3
    u_plus = np.array([1, np.exp(1j * u)]) / np.sqrt(2)
    b0, b1 = qcore.measure_branch(u_plus, 0, u_basis(u, 0.0, 0.0))
    assert probability(b0) == pytest.approx(1.0, abs=1e-12)
    assert probability(b1) == pytest.approx(0.0, abs=1e-12)


def test_measure_bell_branches():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    b0, b1 = qcore.measure_branch(bell, 0, qcore.Z_PAIR)
    assert np.allclose(b0, [1 / np.sqrt(2), 0])
    assert np.allclose(b1, [0, 1 / np.sqrt(2)])


def test_measure_removes_qubit_and_shifts():
    # |0>|1>|+> measured on qubit 1 leaves |0>|+> (qubit 2 shifts to slot 1)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    vec = np.kron(np.kron([1, 0], [0, 1]), plus).astype(complex)
    b0, b1 = qcore.measure_branch(vec, 1, qcore.Z_PAIR)
    assert probability(b0) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(b1, np.kron([1, 0], plus))


def test_measure_probabilities_sum_to_one():
    rng = np.random.default_rng(33)
    streams = qcore.streams([[33, trial] for trial in range(25)])
    for trial in range(25):
        n = int(rng.integers(1, 6))
        st = qcore.haar_states(n, [streams[trial]])[0]
        basis = u_basis(*rng.uniform(0, 2 * np.pi, size=3))
        b0, b1 = qcore.measure_branch(st, int(rng.integers(n)), basis)
        assert probability(b0) + probability(b1) == pytest.approx(1.0, abs=1e-12)
        assert probability(b0) > -1e-12 and probability(b1) > -1e-12


def test_measure_reconstruction():
    # sum_j |basis_j> (x) branch_j rebuilds the pre-measurement state
    rng = np.random.default_rng(34)
    streams = qcore.streams([[34, trial] for trial in range(20)])
    for trial in range(20):
        n = int(rng.integers(1, 6))
        st = qcore.haar_states(n, [streams[trial]])[0]
        qubit = int(rng.integers(n))
        basis = u_basis(*rng.uniform(0, 2 * np.pi, size=3))
        rebuilt = np.zeros([2] * n, dtype=complex)
        for j, b in enumerate(qcore.measure_branch(st, qubit, basis)):
            shape = [2] * (n - 1)
            outer = np.tensordot(basis[j], b.reshape(shape), axes=0)
            rebuilt += np.moveaxis(outer, 0, qubit)
        assert np.max(np.abs(rebuilt.reshape(-1) - st)) < 1e-12


@pytest.mark.parametrize("qubit", [True, False, np.True_, 1.0, np.float64(0.0)])
def test_measure_branch_qubit_must_be_an_integer(qubit):
    # True used to measure qubit 1; a float raises ValueError, as for
    # every qubit index
    state = basis_state(2, 0).amplitudes
    basis = z_basis(0.1, 0.2)
    with pytest.raises(ValueError):
        qcore.measure_branch(state, qubit, basis)
    with pytest.raises(ValueError):
        qcore.measure_branch(np.eye(4, dtype=complex)[:2], qubit, np.stack([basis] * 2))
    assert qcore.measure_branch(state, np.int64(1), basis).shape == (2, 2)


_STATE = basis_state(3, 0)
_BASIS = z_basis(0.1, 0.2)


@pytest.mark.parametrize("bad", [1.0, np.float64(1.0), True, np.True_],
                         ids=["float", "float64", "bool", "bool_"])
@pytest.mark.parametrize("entry", [
    lambda q: linalg.qubit_order(3, (q,)),
    lambda q: linalg._permute(_STATE.amplitudes[None], linalg._tables(3, [(q, 0, 2)])),
    lambda q: qcore.apply_matrix(_STATE.amplitudes, qcore.gate("H"), (q,)),
    lambda q: qcore.measure_branch(_STATE.amplitudes, q, _BASIS),
    lambda q: linalg.partial_trace(_STATE.amplitudes, [q]),
], ids=["qubit_order", "permute", "apply_matrix", "measure_branch", "partial_trace"])
def test_a_bool_or_float_qubit_raises_after_the_equal_int(entry, bad):
    # the int's table is cached first; 1.0 and True compare equal to 1, so
    # a cache keyed on the list as given would hand them the int's table
    entry(1)
    with pytest.raises(ValueError, match="not an integer"):
        entry(bad)


def test_measure_branch_index_error():
    with pytest.raises(ValueError):
        qcore.measure_branch(basis_state(2, 0).amplitudes, 2, z_basis(0, 0))
    with pytest.raises(ValueError, match="vec shape"):  # neither a vector nor a stack
        qcore.measure_branch(np.zeros((1, 2, 4)), 0, np.zeros((1, 2, 2, 2)))


_NAN_BASIS = np.array([[1.0, 0.0], [0.0, np.nan]])


@pytest.mark.parametrize("basis, stack", [
    (np.array([1.0, 0.0]), False),  # one vector, (2,): used to give a (2^(n-1),) vector
    (_NAN_BASIS, False),  # used to give NaN branches
    (np.array([[1.0, 0.0], [0.0, np.inf]]), False),
    (np.ones((2, 3)), False),  # not single-qubit vectors
    (np.stack([qcore.Z_PAIR] * 2), False),  # a stack's basis for one state
    (qcore.Z_PAIR, True),  # one state's basis for a stack
    (np.stack([qcore.Z_PAIR] * 3), True),  # one basis too many
    (np.stack([qcore.Z_PAIR, _NAN_BASIS]), True),
    (np.ones((2, 2, 3)), True),
    ("Z", False), (object(), False), (None, True), ([[1, 0], [0]], False),
])
def test_measure_branch_rejects_a_malformed_basis(basis, stack):
    # (J, 2) finite vectors for one state, (B, J, 2) for a stack of B
    state = qcore.random_pure_state(3, 40).amplitudes
    if stack:
        state = np.stack([state] * 2)
    with pytest.raises(ValueError, match="basis"):
        qcore.measure_branch(state, 0, basis)


@pytest.mark.parametrize("qubit", [[0, 1], (0,), None, 0.5])
def test_measure_branch_on_a_stack_takes_one_integer_qubit(qubit):
    # one qubit for every row: a list, a tuple, None or a float is no
    # qubit, for a stack as for one state
    stack = np.eye(4, dtype=complex)[:2]
    with pytest.raises(ValueError, match="qubit"):
        qcore.measure_branch(stack, qubit, np.stack([qcore.Z_PAIR] * 2))
    with pytest.raises(ValueError, match="qubit"):
        qcore.measure_branch(stack[0], qubit, qcore.Z_PAIR)


# ------------------------------------------------------ random_pure_state

def test_random_state_deterministic():
    a = qcore.random_pure_state(3, 99)
    b = qcore.random_pure_state(3, 99)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    c = qcore.random_pure_state(3, 100)
    assert not np.allclose(a.amplitudes, c.amplitudes)


def test_random_state_normalized():
    for seed in range(10):
        st = qcore.random_pure_state(4, seed)
        assert abs(np.vdot(st.amplitudes, st.amplitudes).real - 1) < 1e-12


def test_random_state_z_expectation_unbiased():
    # the 10 000 streams [777, i] seeded in one call
    total = 0.0
    z = qcore.gate("Z")
    for st in qcore.haar_states(1, qcore.streams([[777, i] for i in range(10_000)])):
        total += float(np.vdot(st, z @ st).real)
    assert abs(total / 10_000) < 0.05


def _stream_state(stream):
    return stream.state, stream.inc, stream.half


@pytest.mark.parametrize("key", [0, 42, [42, 5], [42, 5, 1], [2**33, 7, 7]])
def test_haar_states_are_the_two_draws_bit_for_bit(key):
    # one draw of 2^(n+1) values fills the real then the imaginary parts:
    # the stream and the floats of two draws of 2^n and a complex sum
    for n in range(1, linalg.MAX_QUBITS + 1):
        rng = np.random.default_rng(key)
        d = 2**n
        vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        want = vec / np.linalg.norm(vec)
        (stream,) = qcore.streams([key])
        before = _stream_state(stream)
        assert qcore.haar_states(n, [stream])[0].tobytes() == want.tobytes()
        # and the stream is left where it was: it gives one register
        assert _stream_state(stream) == before


def _haar_state_of_one_generator(n, key):
    # a register as it was drawn from its own numpy generator, one per key
    rng = np.random.default_rng(key)
    dim = 2**n
    parts = rng.standard_normal(2 * dim)
    vec = np.empty(dim, dtype=complex)
    vec.real, vec.imag = parts[:dim], parts[dim:]
    re, im = vec.real, vec.imag
    vec /= np.sqrt(re.dot(re) + im.dot(im))
    return vec


@pytest.mark.parametrize("rows", [1, 128])
def test_haar_states_rows_are_each_streams_register_bit_for_bit(rows):
    # a batch of registers of one size, drawn through one Generator, is
    # row for row the register each key's own generator draws
    for n in range(1, linalg.MAX_QUBITS + 1):
        keys = [[21, n, b] for b in range(rows)]
        got = qcore.haar_states(n, qcore.streams(keys))
        assert got.shape == (rows, 2**n)
        want = np.array([_haar_state_of_one_generator(n, key) for key in keys])
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [0, 1, 5, 64])
def test_haar_states_norms_are_each_rows_dot_products_bit_for_bit(rows):
    # haar_states normalizes all rows with one stacked (1, D) @ (D, 1)
    # matmul; each row's norm must be math.sqrt(re.dot(re) + im.dot(im))
    # over the row's own strided real and imaginary views, bit for bit
    for n in range(1, linalg.MAX_QUBITS + 1):
        keys = [[22, n, rows, b] for b in range(rows)]
        dim = 2**n
        want = np.empty((rows, dim), dtype=complex)
        for row, key in zip(want, keys):
            parts = np.random.default_rng(key).standard_normal(2 * dim)
            row.real, row.imag = parts[:dim], parts[dim:]
            re, im = row.real, row.imag
            row /= math.sqrt(re.dot(re) + im.dot(im))
        got = qcore.haar_states(n, qcore.streams(keys))
        assert got.shape == (rows, dim) and got.tobytes() == want.tobytes()


def test_threads_drawing_at_once_each_get_their_streams_registers():
    # the Generator haar_states sets to each stream's state is one per
    # thread, so threads switched every microsecond still draw the
    # registers of their own streams
    keys = [[[31, t, b] for b in range(32)] for t in range(4)]
    want = [qcore.haar_states(3, qcore.streams(k)) for k in keys]
    wrong = [0] * len(keys)

    def draw(t):
        for _ in range(25):
            wrong[t] += not np.array_equal(qcore.haar_states(3, qcore.streams(keys[t])), want[t])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(t,)) for t in range(len(keys))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [0] * len(keys)


def test_random_state_is_a_batch_of_one():
    for key in (99, [3, 1], [3, 1, 7]):
        want = qcore.haar_states(3, qcore.streams([key]))[0]
        assert qcore.random_pure_state(3, key).amplitudes.tobytes() == want.tobytes()


# ---------------------------------------------------------------- streams

_SEED_KEYS = [
    0, [0], [], 1, 42, 2**32 - 1, 2**32, 2**33, 2**40, 2**63, 2**64, 2**70, 2**200,
    [42, 0], [42, 5], [42, 5, 1], [42, 5, 7], [2**32 - 1, 2**32 - 1, 2**32 - 1, 2**32 - 1],
    [2**33, 5], [2**33, 5, 1], [2**40, 7, 7], [2**64, 3], [2**70, 2, 1], [2**200, 9, 7],
    [1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1], [2**64 + 1, 5, 2**33],
    np.uint32(7), np.int64(2**40), np.uint64(2**64 - 1), [np.int64(42), np.uint8(3)],
    [np.uint64(2**63), 2, np.int32(7)], (11, 4), range(5), np.array([42, 3, 1]),
]


def _first_draws(stream, rng):
    # the same calls on a Stream and on numpy's Generator: integers whose
    # Lemire draw retries about half the time (2^31 + 1), a bound next to
    # 2^32, a k = 1 draw of nothing, a double that falls between the two
    # halves of a buffered 32-bit word, then every small permutation
    got = [stream.integers(2**31 + 1), stream.integers(2**32 - 5), stream.integers(1),
           stream.integers(7)]
    want = [rng.integers(2**31 + 1), rng.integers(2**32 - 5), rng.integers(1), rng.integers(7)]
    if stream.half is None:  # one more, to leave half a word buffered
        got.append(stream.integers(7))
        want.append(rng.integers(7))
    assert stream.half is not None
    got += [*stream.random(1.0), stream.integers(3), stream.integers(2**32)]
    want += [rng.random(), rng.integers(3), rng.integers(2**32)]
    for n in range(1, 9):
        got.append(stream.permutation(n))
        want.append(rng.permutation(n).tolist())
    got += [*stream.random(2.0 * np.pi, np.pi), stream.integers(5)]
    want += [rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.0, np.pi), rng.integers(5)]
    # numpy integers as ints; a float's repr pins its bits
    want = [w.item() if isinstance(w, np.generic) else w for w in want]
    return [repr(x) for x in got], [repr(w) for w in want]


def test_streams_match_numpy_seeding():
    # every width of key in one call: ints, 0 and [0], stream keys,
    # seeds of 2^32 and more (keys over 4 words), numpy integers
    streams = qcore.streams(_SEED_KEYS)
    assert len(streams) == len(_SEED_KEYS)
    for key, stream in zip(_SEED_KEYS, streams):
        want = np.random.default_rng(key)
        state = want.bit_generator.state
        assert _stream_state(stream) == (state["state"]["state"], state["state"]["inc"], None)
        got, drawn = _first_draws(stream, want)
        assert got == drawn, key
        # and the stream is left where the generator is
        state = want.bit_generator.state
        half = state["uinteger"] if state["has_uint32"] else None
        assert _stream_state(stream) == (state["state"]["state"], state["state"]["inc"], half)


def test_stream_draws_match_numpy_over_many_keys():
    # 512 stream keys of four seeds, 2^40 + 5 among them, each through
    # the draws of _first_draws
    for seed in (0, 7, 42, 2**40 + 5):
        keys = [[seed, i] for i in range(128)]
        for key, stream in zip(keys, qcore.streams(keys)):
            got, want = _first_draws(stream, np.random.default_rng(key))
            assert got == want, key


def test_streams_do_not_depend_on_the_other_keys():
    for k, key in enumerate(_SEED_KEYS):
        (alone,) = qcore.streams([key])
        together = qcore.streams(_SEED_KEYS[k:] + _SEED_KEYS[:k])[0]
        assert _stream_state(alone) == _stream_state(together)


def test_streams_of_no_keys():
    assert qcore.streams([]) == []
    assert qcore.haar_states(3, []).shape == (0, 8)


@pytest.mark.parametrize("key", [-1, [42, -1], 1.0, [42, 1.5], None, [42, None], True,
                                 [42, False], "42", "ab", [[42, 1]], np.float64(3.0),
                                 [1, object()], np.array(3)])
def test_streams_reject_a_bad_key(key):
    with pytest.raises(ValueError, match="key"):
        qcore.streams([[42, 1], key])
    with pytest.raises(ValueError, match="key"):
        qcore.random_pure_state(2, key)


def test_random_density_matrix_rejects_a_bad_key():
    with pytest.raises(ValueError, match="key None"):
        verify.random_density_matrix(2, None)


@pytest.mark.parametrize("call", [
    lambda: qcore.streams(None),
    lambda: qcore.streams(3.5),
    lambda: qcore.haar_states(2, None),
    lambda: qcore.haar_states(2, [object()]),
    lambda: qcore.haar_states(2, [np.random.default_rng(1)]),
    lambda: qcore.streams([3])[0].integers("5"),
    lambda: qcore.streams([3])[0].integers(True),
    lambda: qcore.streams([3])[0].integers(0),
    lambda: qcore.streams([3])[0].integers(-1),
    lambda: qcore.streams([3])[0].integers(2**32 + 1),
    lambda: qcore.streams([3])[0].permutation(2.0),
    lambda: qcore.streams([3])[0].permutation(-1),
], ids=["keys_none", "keys_float", "streams_none", "streams_object", "streams_generator",
        "integers_str", "integers_bool", "integers_0", "integers_negative", "integers_2_32_plus_1",
        "permutation_float", "permutation_negative"])
def test_stream_calls_reject_what_they_cannot_use(call):
    with pytest.raises(ValueError):
        call()


def test_a_seed_state_is_only_four_64_bit_words():
    # the Generator haar_states draws through is seeded by four zero
    # words, not by numpy's seed hash; a numpy that asked for another
    # seed size or type would fail here
    seed = qcore._generator().bit_generator.seed_seq
    assert isinstance(seed, qcore._SeedState)
    assert seed.generate_state(4, np.uint64).tolist() == [0, 0, 0, 0]
    for n_words, dtype in ((4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64)):
        with pytest.raises(ValueError):
            seed.generate_state(n_words, dtype)


def test_random_state_range_errors():
    with pytest.raises(ValueError):
        qcore.random_pure_state(0, 1)
    with pytest.raises(ValueError):
        qcore.random_pure_state(9, 1)


def test_phase_aligned_max_diff():
    rng = np.random.default_rng(35)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert qcore.phase_aligned_max_diff(v, np.exp(0.71j) * v) < 1e-14
    w = v.copy()
    w[0] += 0.1
    assert qcore.phase_aligned_max_diff(v, w) > 0.01
    assert qcore.phase_aligned_max_diff(np.zeros(4), np.zeros(4)) == 0.0


def test_phase_aligned_max_diff_of_a_stack_and_itself_is_roundoff_not_zero():
    # unnormalized rows, as circuit_equivalence compares its branches: the
    # overlap and its phase round, so a == b gives a few float spacings of
    # the entries on some rows (about one row in eight here), not 0
    rng = np.random.default_rng(30)
    a = 0.3 * (rng.standard_normal((3, 67, 2, 16)) + 1j * rng.standard_normal((3, 67, 2, 16)))
    diff = qcore.phase_aligned_max_diff(a, a)
    assert diff.shape == (3, 67, 2)
    assert (diff >= 0.0).all() and diff.max() <= 1e-15


@pytest.mark.parametrize("a, b, name", [
    (1.0, 1.0, "a"), (np.zeros(0), np.zeros(0), "a"), (np.zeros((3, 0)), np.zeros((3, 0)), "a"),
    (np.ones(2), 1.0, "b"), (np.ones(2), np.zeros(0), "b"),
])
def test_phase_aligned_max_diff_rejects_a_scalar_or_an_empty_vector(a, b, name):
    # (1.0, 1.0) used to raise numpy's einsum subscripts error and two
    # empty vectors its "zero-size array to reduction" error, naming neither
    with pytest.raises(ValueError, match=f"^{name} shape"):
        qcore.phase_aligned_max_diff(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_phase_aligned_max_diff_rejects_non_finite_entries(bad):
    # [nan, 1] against [1, 0] used to emit a RuntimeWarning
    with pytest.raises(ValueError, match="non-finite"):
        qcore.phase_aligned_max_diff([bad, 1.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        qcore.phase_aligned_max_diff(np.eye(2), np.array([[1.0, 0.0], [0.0, bad]]))



@pytest.mark.parametrize("name", [[], None, object(), 1])
def test_gate_name_must_be_a_known_string(name):
    # [] used to raise TypeError: unhashable type
    with pytest.raises(ValueError, match="unknown gate name"):
        qcore.gate(name)


@pytest.mark.parametrize("targets", [None, 0.5, object()])
def test_apply_matrix_takes_qubit_lists_only(targets):
    # each of these used to raise TypeError: ... has no len()
    psi = qcore.basis_state(2, 0)
    with pytest.raises(ValueError, match="targets"):
        qcore.apply_matrix(psi.amplitudes, qcore.gate("X"), targets)
    with pytest.raises(ValueError, match="targets"):
        qcore.apply_matrix(psi.amplitudes[None], qcore.gate("X"), targets)
    with pytest.raises(ValueError, match="targets"):
        qcore.apply_matrix(psi.amplitudes[None], qcore.gate("X"), [targets])
