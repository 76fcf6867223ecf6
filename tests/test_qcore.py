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


def test_j_gate_at_zero_is_hadamard():
    assert np.allclose(qcore.j_gate(0.0), qcore.gate("H"), atol=1e-15)


@pytest.mark.parametrize("u", [0.3, 1.0, -2.5, np.pi])
def test_j_gate_compositions(u):
    exp_z = np.diag([np.exp(0.5j * u), np.exp(-0.5j * u)])
    exp_x = np.cos(u / 2) * np.eye(2) + 1j * np.sin(u / 2) * qcore.gate("X")
    assert np.max(np.abs(qcore.j_gate(0.0) @ qcore.j_gate(u) - exp_z)) < 1e-12
    assert np.max(np.abs(qcore.j_gate(u) @ qcore.j_gate(0.0) - exp_x)) < 1e-12


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
    b = qcore.deviated_u_basis(u, 0.0, 0.0)
    u_plus = np.array([1, np.exp(1j * u)]) / np.sqrt(2)
    u_minus = np.array([1, -np.exp(1j * u)]) / np.sqrt(2)
    assert np.allclose(b[0], u_plus, atol=1e-15)
    assert np.allclose(b[1], -u_minus, atol=1e-15)


def test_u_basis_epsilon_pi():
    u, delta = 0.4, 1.2
    b = qcore.deviated_u_basis(u, np.pi, delta)
    u_minus = np.array([1, -np.exp(1j * u)]) / np.sqrt(2)
    assert np.max(np.abs(b[0] - np.exp(-1j * delta) * u_minus)) < 1e-12


def test_z_basis_ideal_and_flipped():
    b = qcore.deviated_z_basis(0.0, 0.0)
    assert np.allclose(b[0], [1, 0])
    assert np.allclose(b[1], [0, -1])
    b = qcore.deviated_z_basis(np.pi, 0.0)
    assert np.max(np.abs(b[0] - np.array([0, 1]))) < 1e-12


@given(u=ANGLES, epsilon=ANGLES, delta=ANGLES)
def test_u_basis_orthonormal(u, epsilon, delta):
    b = qcore.deviated_u_basis(u, epsilon, delta)
    assert abs(np.vdot(b[0], b[0]) - 1) < 1e-12
    assert abs(np.vdot(b[1], b[1]) - 1) < 1e-12
    assert abs(np.vdot(b[0], b[1])) < 1e-12


@given(epsilon=ANGLES, delta=ANGLES)
def test_z_basis_orthonormal(epsilon, delta):
    b = qcore.deviated_z_basis(epsilon, delta)
    assert abs(np.vdot(b[0], b[1])) < 1e-12


def test_bases_orthonormal_on_dense_grid():
    angles = np.linspace(-2 * np.pi, 2 * np.pi, 17)
    for eps in angles:
        for delta in angles:
            bases = [qcore.deviated_z_basis(eps, delta)]
            bases += [qcore.deviated_u_basis(u, eps, delta) for u in (0.0, 1.1, 4.4)]
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
    "j_gate u": lambda a: qcore.j_gate(a),
    "deviated_u_basis u": lambda a: qcore.deviated_u_basis(a, 0.1, 0.1),
    "deviated_u_basis epsilon": lambda a: qcore.deviated_u_basis(0.3, a, 0.1),
    "deviated_u_basis delta": lambda a: qcore.deviated_u_basis(0.3, 0.1, a),
    "deviated_z_basis epsilon": lambda a: qcore.deviated_z_basis(a, 0.0),
    "deviated_z_basis delta": lambda a: qcore.deviated_z_basis(0.2, a),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, True, "0.3", 1j])
@pytest.mark.parametrize("call", sorted(_PUBLIC_ANGLES))
def test_public_gates_and_bases_reject_angles_that_are_not_finite_reals(call, bad):
    # the check of every other public angle: a string used to build a
    # basis, True ran as 1 rad, and NaN or inf gave a NaN matrix
    name = call.split()[1]
    message = f"{name}=.* is not finite" if isinstance(bad, float) else f"{name} .* is not a real"
    with pytest.raises(ValueError, match=message):
        _PUBLIC_ANGLES[call](bad)
    assert np.isfinite(_PUBLIC_ANGLES[call](np.float64(0.3))).all()


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
    lambda: qcore.haar_state(2.0, np.random.default_rng(0)),
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


# ------------------------------------------------------------ apply_gate

def test_apply_cz_phase():
    st = qcore.apply_gate(basis_state(2, 0b11), qcore.gate("CZ"), (0, 1))
    assert np.allclose(st.amplitudes, [0, 0, 0, -1])


def test_apply_h_on_second_qubit():
    st = qcore.apply_gate(basis_state(2, 0), qcore.gate("H"), (1,))
    assert np.allclose(st.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0])


def test_apply_swap():
    st = qcore.apply_gate(basis_state(2, 0b01), qcore.gate("SWAP"), (0, 1))
    assert np.allclose(st.amplitudes, [0, 0, 1, 0])


def test_apply_respects_target_order():
    # CZSWAP is symmetric; use an asymmetric two-qubit operator instead
    op = np.kron(qcore.gate("X"), np.eye(2))  # X on the first listed target
    st = qcore.apply_gate(basis_state(2, 0), op, (1, 0))
    assert np.allclose(st.amplitudes, [0, 1, 0, 0])  # |01>


def test_apply_gate_errors():
    st = basis_state(2, 0)
    with pytest.raises(ValueError):
        qcore.apply_gate(st, qcore.gate("CZ"), (0,))
    with pytest.raises(ValueError):
        qcore.apply_gate(st, qcore.gate("H"), (2,))
    with pytest.raises(ValueError):
        qcore.apply_gate(st, qcore.gate("CZ"), (0, 0))


_WRONG_TYPES = {
    "apply_gate": lambda x: qcore.apply_gate(x, qcore.gate("X"), (0,)),
    "measure_branch": lambda x: qcore.measure_branch(x, 0, qcore.Z_PAIR),
    "mean_gate_fidelity": protocols.mean_gate_fidelity,
}


@pytest.mark.parametrize("value", [np.array([1.0, 0.0], dtype=complex), None])
@pytest.mark.parametrize("name", list(_WRONG_TYPES))
def test_a_call_given_the_wrong_type_names_its_argument(name, value):
    # an array or None used to raise AttributeError from an attribute read
    argument = "result" if name == "mean_gate_fidelity" else "state"
    with pytest.raises(ValueError, match=f"{argument} must be a"):
        _WRONG_TYPES[name](value)


def test_apply_gate_preserves_norm():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        st = qcore.random_pure_state(n, [31, int(rng.integers(1 << 32))])
        k = int(rng.integers(1, min(n, 2) + 1))
        targets = tuple(int(t) for t in rng.choice(n, size=k, replace=False))
        out = qcore.apply_gate(st, random_unitary(2**k, rng), targets)
        assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1) < 1e-12


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
    rng = np.random.default_rng(37)
    n, rows = 4, 10
    vecs = rng.standard_normal((rows, 2**n)) + 1j * rng.standard_normal((rows, 2**n))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    bases = [qcore.deviated_u_basis(*rng.uniform(0, 2 * np.pi, size=3)) for _ in range(rows)]
    vectors = np.array(bases)
    qubits = [int(q) for q in rng.integers(n, size=rows)]
    keeps = [tuple(int(x) for x in rng.permutation([x for x in range(n) if x != q])) for q in qubits]
    got = qcore.measure_branch(qcore.StateStack(vecs), qubits, vectors, keeps)
    for b in range(rows):
        want = qcore.measure_branch(PureState(n, vecs[b]), qubits[b], bases[b])
        # the kept qubits in the order `keep` (one transpose of each branch)
        rest = [x for x in range(n) if x != qubits[b]]
        perm = [rest.index(x) for x in keeps[b]]
        for j in range(2):
            moved = want[j].reshape([2] * (n - 1)).transpose(perm).reshape(-1)
            assert np.max(np.abs(got[b, j] - moved)) < 1e-15
    with pytest.raises(ValueError):
        qcore.measure_branch(qcore.StateStack(vecs), qubits[:-1], vectors)


def test_apply_matrix_is_the_permuted_matmul_bit_for_bit():
    # the gather tables are built once and serve the scatter back too: the
    # result is permute_qubits, the matmul, and the inverse permutation
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
        psi = ops @ linalg.permute_qubits(vecs, orders).reshape(rows, 4, -1)
        want = linalg.permute_qubits(psi.reshape(rows, -1), orders, inverse=True)
        assert qcore.apply_matrix(vecs, ops, targets).tobytes() == want.tobytes()


def test_stacks_of_no_rows():
    empty = np.zeros((0, 8), dtype=complex)
    assert qcore.apply_matrix(empty, qcore.gate("CZ"), []).shape == (0, 8)
    assert qcore.apply_matrix(empty, np.zeros((0, 2, 2)), []).shape == (0, 8)
    branches = qcore.measure_branch(qcore.StateStack(empty), [], np.zeros((0, 2, 2)))
    assert branches.shape == (0, 2, 4)
    with pytest.raises(ValueError, match="power of two"):
        qcore.apply_matrix(empty, np.eye(3), [])


# --------------------------------------------------------- measure_branch

def probability(branch):
    return float(np.vdot(branch, branch).real)


def test_measure_plus_in_z():
    plus = PureState.from_vector(np.array([1, 1], dtype=complex) / np.sqrt(2))
    b0, b1 = qcore.measure_branch(plus, 0, qcore.deviated_z_basis(0.0, 0.0))
    assert probability(b0) == pytest.approx(0.5, abs=1e-12)
    assert probability(b1) == pytest.approx(0.5, abs=1e-12)


def test_measure_eigenstate_in_u_basis():
    u = 1.3
    u_plus = PureState.from_vector(np.array([1, np.exp(1j * u)]) / np.sqrt(2))
    b0, b1 = qcore.measure_branch(u_plus, 0, qcore.deviated_u_basis(u, 0.0, 0.0))
    assert probability(b0) == pytest.approx(1.0, abs=1e-12)
    assert probability(b1) == pytest.approx(0.0, abs=1e-12)


def test_measure_bell_branches():
    bell = PureState.from_vector(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    b0, b1 = qcore.measure_branch(bell, 0, qcore.Z_PAIR)
    assert np.allclose(b0, [1 / np.sqrt(2), 0])
    assert np.allclose(b1, [0, 1 / np.sqrt(2)])


def test_measure_removes_qubit_and_shifts():
    # |0>|1>|+> measured on qubit 1 leaves |0>|+> (qubit 2 shifts to slot 1)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    vec = np.kron(np.kron([1, 0], [0, 1]), plus).astype(complex)
    st = PureState.from_vector(vec)
    b0, b1 = qcore.measure_branch(st, 1, qcore.Z_PAIR)
    assert probability(b0) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(b1, np.kron([1, 0], plus))


def test_measure_probabilities_sum_to_one():
    rng = np.random.default_rng(33)
    streams = qcore.generators([[33, trial] for trial in range(25)])
    for trial in range(25):
        n = int(rng.integers(1, 6))
        st = PureState(n, qcore.haar_state(n, streams[trial]))
        basis = qcore.deviated_u_basis(*rng.uniform(0, 2 * np.pi, size=3))
        b0, b1 = qcore.measure_branch(st, int(rng.integers(n)), basis)
        assert probability(b0) + probability(b1) == pytest.approx(1.0, abs=1e-12)
        assert probability(b0) > -1e-12 and probability(b1) > -1e-12


def test_measure_reconstruction():
    # sum_j |basis_j> (x) branch_j rebuilds the pre-measurement state
    rng = np.random.default_rng(34)
    streams = qcore.generators([[34, trial] for trial in range(20)])
    for trial in range(20):
        n = int(rng.integers(1, 6))
        st = PureState(n, qcore.haar_state(n, streams[trial]))
        qubit = int(rng.integers(n))
        basis = qcore.deviated_u_basis(*rng.uniform(0, 2 * np.pi, size=3))
        rebuilt = np.zeros([2] * n, dtype=complex)
        for j, b in enumerate(qcore.measure_branch(st, qubit, basis)):
            shape = [2] * (n - 1)
            outer = np.tensordot(basis[j], b.reshape(shape), axes=0)
            rebuilt += np.moveaxis(outer, 0, qubit)
        assert np.max(np.abs(rebuilt.reshape(-1) - st.amplitudes)) < 1e-12


@pytest.mark.parametrize("qubit", [True, False, np.True_, 1.0, np.float64(0.0)])
def test_measure_branch_qubit_must_be_an_integer(qubit):
    # True used to measure qubit 1; a float raises ValueError, as for
    # every qubit index
    state = PureState(2, [1, 0, 0, 0])
    basis = qcore.deviated_z_basis(0.1, 0.2)
    with pytest.raises(ValueError):
        qcore.measure_branch(state, qubit, basis)
    with pytest.raises(ValueError):
        qcore.measure_branch(qcore.StateStack(np.eye(4, dtype=complex)[:2]),
                             [0, qubit], np.stack([basis] * 2))
    assert qcore.measure_branch(state, np.int64(1), basis).shape == (2, 2)


_STATE = basis_state(3, 0)
_BASIS = qcore.deviated_z_basis(0.1, 0.2)


@pytest.mark.parametrize("bad", [1.0, np.float64(1.0), True, np.True_],
                         ids=["float", "float64", "bool", "bool_"])
@pytest.mark.parametrize("entry", [
    lambda q: linalg.qubit_order(3, (q,)),
    lambda q: linalg.permute_qubits(_STATE.amplitudes[None], [(q, 0, 2)]),
    lambda q: qcore.apply_matrix(_STATE.amplitudes, qcore.gate("H"), (q,)),
    lambda q: qcore.measure_branch(_STATE, q, _BASIS),
    lambda q: qcore.measure_branch(_STATE, 0, _BASIS, keep=(q, 2)),
    lambda q: linalg.partial_trace(_STATE.amplitudes, [q]),
], ids=["qubit_order", "permute_qubits", "apply_matrix", "measure_branch",
        "measure_branch_keep", "partial_trace"])
def test_a_bool_or_float_qubit_raises_after_the_equal_int(entry, bad):
    # the int's table is cached first; 1.0 and True compare equal to 1, so
    # a cache keyed on the list as given would hand them the int's table
    entry(1)
    with pytest.raises(ValueError, match="not an integer"):
        entry(bad)


def test_measure_branch_index_error():
    with pytest.raises(ValueError):
        qcore.measure_branch(basis_state(2, 0), 2, qcore.deviated_z_basis(0, 0))


@pytest.mark.parametrize("keep", [
    (1, 1, 3),  # repeats a qubit
    (1, 3),  # omits one
    (0, 2, 3),  # names the measured qubit
    (1, 3, 2, 0),  # names every qubit
    (1, 3, 4),  # out of range
])
def test_measure_branch_rejects_keep_that_does_not_order_the_other_qubits(keep):
    state = qcore.random_pure_state(4, 38)
    basis = qcore.deviated_z_basis(0.3, 0.2)
    assert qcore.measure_branch(state, 2, basis, keep=(3, 0, 1)).shape == (2, 8)
    with pytest.raises(ValueError):
        qcore.measure_branch(state, 2, basis, keep=keep)
    stack = qcore.StateStack(np.stack([state.amplitudes] * 2))
    with pytest.raises(ValueError):
        qcore.measure_branch(stack, [2, 2], np.stack([basis] * 2), [(3, 0, 1), keep])


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
    for rng in qcore.generators([[777, i] for i in range(10_000)]):
        st = qcore.haar_state(1, rng)
        total += float(np.vdot(st, z @ st).real)
    assert abs(total / 10_000) < 0.05


@pytest.mark.parametrize("key", [0, 42, [42, 5], [42, 5, 1], [2**33, 7, 7]])
def test_haar_state_is_the_two_draws_bit_for_bit(key):
    # one draw of 2^(n+1) values fills the real then the imaginary parts:
    # the stream and the floats of two draws of 2^n and a complex sum
    for n in range(1, linalg.MAX_QUBITS + 1):
        rng = np.random.default_rng(key)
        d = 2**n
        vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        want = vec / np.linalg.norm(vec)
        (gen,) = qcore.generators([key])
        assert qcore.haar_state(n, gen).tobytes() == want.tobytes()
        # and the generator is left where the two draws leave it
        assert gen.bit_generator.state == rng.bit_generator.state


def test_random_state_is_a_batch_of_one():
    for key in (99, [3, 1], [3, 1, 7]):
        want = qcore.haar_state(3, np.random.default_rng(key))
        assert qcore.random_pure_state(3, key).amplitudes.tobytes() == want.tobytes()


# ------------------------------------------------------------- generators

_SEED_KEYS = [
    0, [0], [], 1, 42, 2**32 - 1, 2**32, 2**33, 2**40, 2**63, 2**64, 2**70, 2**200,
    [42, 0], [42, 5], [42, 5, 1], [42, 5, 7], [2**32 - 1, 2**32 - 1, 2**32 - 1, 2**32 - 1],
    [2**33, 5], [2**33, 5, 1], [2**40, 7, 7], [2**64, 3], [2**70, 2, 1], [2**200, 9, 7],
    [1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1], [2**64 + 1, 5, 2**33],
    np.uint32(7), np.int64(2**40), np.uint64(2**64 - 1), [np.int64(42), np.uint8(3)],
    [np.uint64(2**63), 2, np.int32(7)], (11, 4), range(5), np.array([42, 3, 1]),
]


def _first_draws(rng):
    return (
        rng.integers(1 << 62, size=3).tolist(),
        rng.uniform(size=2).tolist(),
        rng.standard_normal(2).tolist(),
        rng.permutation(6).tolist(),
    )


def test_generators_match_numpy_seeding():
    # every width of key in one call: ints, 0 and [0], stream keys,
    # seeds of 2^32 and more (keys over 4 words), numpy integers
    rngs = qcore.generators(_SEED_KEYS)
    assert len(rngs) == len(_SEED_KEYS)
    for key, rng in zip(_SEED_KEYS, rngs):
        want = np.random.default_rng(key)
        assert rng.bit_generator.state == want.bit_generator.state, key
        assert _first_draws(rng) == _first_draws(want), key


def test_generators_do_not_depend_on_the_other_keys():
    for k, key in enumerate(_SEED_KEYS):
        (alone,) = qcore.generators([key])
        together = qcore.generators(_SEED_KEYS[k:] + _SEED_KEYS[:k])[0]
        assert alone.bit_generator.state == together.bit_generator.state


def test_generators_of_no_keys():
    assert qcore.generators([]) == []


@pytest.mark.parametrize("key", [-1, [42, -1], 1.0, [42, 1.5], None, [42, None], True,
                                 [42, False], "42", [[42, 1]], np.float64(3.0)])
def test_generators_reject_a_bad_key(key):
    with pytest.raises((TypeError, ValueError)):
        qcore.generators([[42, 1], key])
    with pytest.raises((TypeError, ValueError)):
        qcore.random_pure_state(2, key)


def test_a_seed_state_is_only_four_64_bit_words():
    # a numpy that asked for another seed size or type would fail here
    # instead of drawing other streams
    rng = qcore.generators([[42, 1]])[0]
    seed = rng.bit_generator.seed_seq
    assert seed.generate_state(4, np.uint64).tolist() == (
        np.random.SeedSequence([42, 1]).generate_state(4, np.uint64).tolist()
    )
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_phase_aligned_max_diff_rejects_non_finite_entries(bad):
    # [nan, 1] against [1, 0] used to emit a RuntimeWarning
    with pytest.raises(ValueError, match="non-finite"):
        qcore.phase_aligned_max_diff([bad, 1.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        qcore.phase_aligned_max_diff(np.eye(2), np.array([[1.0, 0.0], [0.0, bad]]))

