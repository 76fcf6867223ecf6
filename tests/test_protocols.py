import numpy as np
import pytest

from adqcsim import entropy, linalg, protocols, qcore, verify
from adqcsim.protocols import ErrorKind, ProtocolKind, ProtocolSpec
from adqcsim.qcore import PureState, basis_state

import reference

ALL_KINDS = tuple(ProtocolKind)
ROTATIONS = tuple(k for k in ProtocolKind if k in protocols.ROTATION_KINDS)
ZZ = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)
E0 = np.array([1, 0], dtype=complex)
E1 = np.array([0, 1], dtype=complex)


def j_gate(u: float) -> np.ndarray:
    """The rotation J(u) = H . diag(e^{iu/2}, e^{-iu/2}) that the rotation
    protocols advertise, as X^j J(u) in branch j."""
    return qcore.gate("H") @ np.diag([np.exp(0.5j * u), np.exp(-0.5j * u)])


def test_j_gate_at_zero_is_hadamard():
    assert np.allclose(j_gate(0.0), qcore.gate("H"), atol=1e-15)


@pytest.mark.parametrize("u", [0.3, 1.0, -2.5, np.pi])
def test_j_gate_compositions(u):
    exp_z = np.diag([np.exp(0.5j * u), np.exp(-0.5j * u)])
    exp_x = np.cos(u / 2) * np.eye(2) + 1j * np.sin(u / 2) * qcore.gate("X")
    assert np.max(np.abs(j_gate(0.0) @ j_gate(u) - exp_z)) < 1e-12
    assert np.max(np.abs(j_gate(u) @ j_gate(0.0) - exp_x)) < 1e-12


def random_spec(rng, n, kinds=ALL_KINDS):
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind in protocols.ROTATION_KINDS:
        targets = (int(rng.integers(n)),)
        u = float(rng.uniform(0, 2 * np.pi))
    else:
        perm = rng.permutation(n)
        targets = (int(perm[0]), int(perm[1]))
        u = None
    return ProtocolSpec(
        kind,
        targets,
        u=u,
        epsilon=float(rng.uniform(0, np.pi)),
        delta=float(rng.uniform(0, 2 * np.pi)),
    )


def byproduct_branch(psi: PureState, spec: ProtocolSpec, j: int) -> np.ndarray:
    """Advertised output X^j J(u), X1^j H1 H2 CZ, or (Z1 Z2)^j SWAP CZ."""
    vec = psi.amplitudes
    if spec.kind in protocols.ROTATION_KINDS:
        op = np.linalg.matrix_power(qcore.gate("X"), j) @ j_gate(spec.u)
        return reference.apply_matrix(vec, op, spec.targets)
    vec = reference.apply_matrix(vec, qcore.gate("CZ"), spec.targets)
    if spec.kind is ProtocolKind.ADQC_CZ_GATE:
        vec = reference.apply_matrix(vec, qcore.gate("H"), (spec.targets[0],))
        vec = reference.apply_matrix(vec, qcore.gate("H"), (spec.targets[1],))
        if j:
            vec = reference.apply_matrix(vec, qcore.gate("X"), (spec.targets[0],))
    else:
        vec = reference.apply_matrix(vec, qcore.gate("SWAP"), spec.targets)
        if j:
            vec = reference.apply_matrix(vec, ZZ, spec.targets)
    return vec


# ----------------------------------------------------------- protocol table

def test_protocol_table_has_one_row_per_kind_in_enum_order():
    assert tuple(protocols._PROTOCOLS) == ALL_KINDS
    rotations = {
        ProtocolKind.ONEWAY_ROTATION,
        ProtocolKind.ADQC_ROTATION_CZ,
        ProtocolKind.ADQC_ROTATION_CZSWAP,
    }
    assert set(protocols.ROTATION_KINDS) == rotations
    assert set(protocols.X_ERROR_KINDS) == rotations | {ProtocolKind.ADQC_CZ_GATE}
    # campaigns index into these sequences, so their order is part of a report
    for kinds in (protocols.ROTATION_KINDS, protocols.X_ERROR_KINDS):
        assert isinstance(kinds, tuple)
        assert list(kinds) == sorted(kinds, key=ALL_KINDS.index)
    for row in protocols._PROTOCOLS.values():
        wires = {w for _, pair in row.gates for w in pair}
        n_targets = 1 if row.rotation else 2
        assert wires == set(range(n_targets)) | {protocols._ANCILLA}


# ----------------------------------------------------------- ProtocolSpec

def test_spec_validation():
    with pytest.raises(ValueError):
        ProtocolSpec(ProtocolKind.ONEWAY_ROTATION, (0, 1), u=0.0)
    with pytest.raises(ValueError):
        ProtocolSpec(ProtocolKind.ONEWAY_ROTATION, (0,))  # missing u
    with pytest.raises(ValueError):
        ProtocolSpec(ProtocolKind.ADQC_CZ_GATE, (0,))
    with pytest.raises(ValueError):
        ProtocolSpec(ProtocolKind.ADQC_CZ_GATE, (1, 1))
    with pytest.raises(ValueError):
        ProtocolSpec(ProtocolKind.ADQC_CZSWAP_GATE, (0, 1), u=0.3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, True, False, "0.3", 1j])
@pytest.mark.parametrize("field", ["u", "epsilon", "delta"])
def test_spec_rejects_non_finite_angles(field, bad):
    # a bool used to run as 1 or 0 rad; a string or a complex raised
    # TypeError from the finiteness check
    message = f"{field}=.* is not finite" if isinstance(bad, float) else f"{field} .* is not a real"
    angles = {"u": 0.4, "epsilon": 0.3, "delta": 0.2, field: bad}
    with pytest.raises(ValueError, match=message):
        ProtocolSpec(ProtocolKind.ADQC_ROTATION_CZ, (0,), **angles)
    if field != "u":
        angles.pop("u")
        with pytest.raises(ValueError, match=message):
            ProtocolSpec(ProtocolKind.ADQC_CZSWAP_GATE, (0, 1), **angles)


_PUBLIC_FORMULAS = {
    "closed_form_fidelity": lambda a: protocols.closed_form_fidelity(0.5, a),
    "bound_purity": lambda a: protocols.bound_purity(0.5, a),
    "bound_sv": lambda a: protocols.bound_sv(0.5, a),
    "bound_sv2": lambda a: protocols.bound_sv2(1.5, a),
    "error_operator_epsilon": lambda a: protocols.error_operator(ErrorKind.X_TYPE, 0, a, 0.0),
    "error_operator_delta": lambda a: protocols.error_operator(ErrorKind.ZZ_TYPE, 1, 0.3, a),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, True, "0.3", 1j])
@pytest.mark.parametrize("formula", list(_PUBLIC_FORMULAS))
def test_public_formulas_reject_angles_that_are_not_finite_reals(formula, bad):
    # the check ProtocolSpec applies to its angles: a NaN or an infinity
    # used to come back as a NaN value or matrix, a bool ran as 1 rad and a
    # string raised TypeError
    call = _PUBLIC_FORMULAS[formula]
    name = "delta" if formula.endswith("delta") else "epsilon"
    message = f"{name}=.* is not finite" if isinstance(bad, float) else f"{name} .* is not a real"
    with pytest.raises(ValueError, match=message):
        call(bad)
    assert np.all(np.isfinite(call(np.float64(0.3))))


@pytest.mark.parametrize("kind", ["ONEWAY_ROTATION", None, 0, ErrorKind.X_TYPE])
def test_spec_kind_must_be_a_protocol_kind(kind):
    # a kind's name or None used to raise KeyError from the table lookup
    with pytest.raises(ValueError, match="kind .* is not a ProtocolKind"):
        ProtocolSpec(kind, (0,), u=0.1)


@pytest.mark.parametrize("fn", ["pre_measurement_state", "run_protocol", "analyze"])
@pytest.mark.parametrize("entry", [None, "ONEWAY_ROTATION", (ProtocolKind.ADQC_ROTATION_CZ, (0,))])
def test_a_stack_takes_only_protocol_specs(fn, entry):
    # None used to raise AttributeError from the target check
    spec = ProtocolSpec(ProtocolKind.ADQC_ROTATION_CZ, (0,), u=0.1)
    states = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="is not a ProtocolSpec"):
        getattr(protocols, fn)(states, [spec, entry])
    with pytest.raises(ValueError, match="is not a ProtocolSpec"):
        getattr(protocols, fn)(states[:1], [entry])


@pytest.mark.parametrize("fn", ["pre_measurement_state", "run_protocol", "analyze"])
@pytest.mark.parametrize("specs", [None, 0.5, object()])
def test_a_stack_takes_a_sequence_of_specs(fn, specs):
    # specs None on a stack used to raise TypeError from list(None)
    states = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="specs .* is not a sequence"):
        getattr(protocols, fn)(states, specs)


@pytest.mark.parametrize("j", [True, False, np.True_, 1.0, 0.0, "1", None])
def test_error_operator_outcome_must_be_an_integer(j):
    # True and 1.0 used to give the outcome-1 matrix
    with pytest.raises(ValueError, match="outcome"):
        protocols.error_operator(ErrorKind.X_TYPE, j, 0.3, 0.1)
    want = protocols.error_operator(ErrorKind.ZZ_TYPE, 1, 0.3, 0.1)
    assert np.array_equal(protocols.error_operator(ErrorKind.ZZ_TYPE, np.int64(1), 0.3, 0.1), want)


def test_spec_stores_angles_as_floats():
    spec = ProtocolSpec(
        ProtocolKind.ADQC_ROTATION_CZ, (0,), u=np.float32(0.5), epsilon=1, delta=np.float64(0.25)
    )
    assert (spec.u, spec.epsilon, spec.delta) == (0.5, 1.0, 0.25)
    assert all(type(x) is float for x in (spec.u, spec.epsilon, spec.delta))
    assert ProtocolSpec(ProtocolKind.ADQC_CZ_GATE, (0, 1)).u is None


@pytest.mark.parametrize("kind, targets", [
    (ProtocolKind.ADQC_ROTATION_CZ, (1.7,)),
    (ProtocolKind.ADQC_ROTATION_CZ, (1.0,)),
    (ProtocolKind.ONEWAY_ROTATION, (True,)),
    (ProtocolKind.ADQC_CZ_GATE, (True, 0.2)),
    (ProtocolKind.ADQC_CZSWAP_GATE, (0, np.float64(1.0))),
])
def test_spec_rejects_targets_that_are_not_integers(kind, targets):
    # a float or a bool names no qubit; int() used to turn 1.7 into 1, and
    # (True, 0.2) into (1, 0)
    u = 0.3 if kind in protocols.ROTATION_KINDS else None
    with pytest.raises(ValueError, match="not an integer"):
        ProtocolSpec(kind, targets, u=u)


def test_spec_accepts_numpy_integer_targets():
    spec = ProtocolSpec(ProtocolKind.ADQC_CZ_GATE, (np.int64(2), np.uint8(0)))
    assert spec.targets == (2, 0)
    assert all(type(t) is int for t in spec.targets)


def test_run_protocol_register_limits():
    with pytest.raises(ValueError):
        protocols.run_protocol(
            qcore.random_pure_state(8, 1),
            ProtocolSpec(ProtocolKind.ADQC_ROTATION_CZ, (0,), u=0.1),
        )
    with pytest.raises(ValueError):
        protocols.run_protocol(
            basis_state(2, 0), ProtocolSpec(ProtocolKind.ADQC_ROTATION_CZ, (5,), u=0.1)
        )


# ----------------------------------------------------------- run_protocol

def test_rotation_on_zero_input():
    spec = ProtocolSpec(ProtocolKind.ADQC_ROTATION_CZ, (0,), u=0.0, epsilon=0.0)
    res = protocols.run_protocol(basis_state(1, 0), spec)
    assert qcore.phase_aligned_max_diff(res.ideal_branches[0], PLUS) < 1e-12


def test_cz_gate_on_00():
    spec = ProtocolSpec(ProtocolKind.ADQC_CZ_GATE, (0, 1), epsilon=0.0)
    res = protocols.run_protocol(basis_state(2, 0), spec)
    expected = np.kron(PLUS, PLUS)  # H1 H2 CZ |00>
    assert qcore.phase_aligned_max_diff(res.ideal_branches[0], expected) < 1e-12


def test_czswap_gate_on_10():
    spec = ProtocolSpec(ProtocolKind.ADQC_CZSWAP_GATE, (0, 1), epsilon=0.0)
    res = protocols.run_protocol(basis_state(2, 0b10), spec)
    assert qcore.phase_aligned_max_diff(
        res.ideal_branches[0], basis_state(2, 0b01).amplitudes
    ) < 1e-12


def test_ideal_branches_match_byproduct_gates():
    rng = np.random.default_rng(70)
    keys = [[70, trial] for trial in range(60)]
    for trial in range(60):
        n = int(rng.integers(2, 6))
        psi = PureState(n, qcore.haar_states(n, [keys[trial]])[0])
        spec = random_spec(rng, n)
        res = protocols.run_protocol(psi, spec)
        for j in range(2):
            want = byproduct_branch(psi, spec, j)
            assert qcore.phase_aligned_max_diff(
                res.ideal_branches[j], want
            ) < 1e-12


def test_branch_probability_sums():
    rng = np.random.default_rng(71)
    keys = [[71, trial] for trial in range(40)]
    for trial in range(40):
        n = int(rng.integers(2, 6))
        psi = PureState(n, qcore.haar_states(n, [keys[trial]])[0])
        res = protocols.run_protocol(psi, random_spec(rng, n))
        assert sum(res.ideal_probabilities) == pytest.approx(1.0, abs=1e-12)
        total = sum(float(np.vdot(x, x).real) for x in res.inaccurate_branches)
        assert total == pytest.approx(1.0, abs=1e-12)
        assert res.ideal_branches.shape == res.inaccurate_branches.shape == (2, 2**n)


def test_ideal_branch_equals_inaccurate_at_zero_tilt():
    rng = np.random.default_rng(72)
    keys = [[72, trial] for trial in range(20)]
    for trial in range(20):
        n = int(rng.integers(2, 5))
        psi = PureState(n, qcore.haar_states(n, [keys[trial]])[0])
        spec = random_spec(rng, n)
        spec = ProtocolSpec(spec.kind, spec.targets, u=spec.u, epsilon=0.0, delta=0.0)
        res = protocols.run_protocol(psi, spec)
        for j in range(2):
            xi_norm = res.inaccurate_branches[j] / np.linalg.norm(
                res.inaccurate_branches[j]
            )
            assert qcore.phase_aligned_max_diff(
                res.ideal_branches[j], xi_norm
            ) < 1e-12


# ------------------------------------------------------------- fidelity

def test_fidelity_is_one_without_tilt():
    rng = np.random.default_rng(73)
    keys = [[73, trial] for trial in range(20)]
    for trial in range(20):
        n = int(rng.integers(2, 6))
        psi = PureState(n, qcore.haar_states(n, [keys[trial]])[0])
        spec = random_spec(rng, n)
        spec = ProtocolSpec(spec.kind, spec.targets, u=spec.u, epsilon=0.0,
                            delta=spec.delta)
        res = protocols.run_protocol(psi, spec)
        assert protocols.mean_gate_fidelity(res) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_entangled_target_quarter_turn():
    bell = PureState.from_vector(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    spec = ProtocolSpec(
        ProtocolKind.ONEWAY_ROTATION, (0,), u=0.7, epsilon=np.pi / 2, delta=0.4
    )
    res = protocols.run_protocol(bell, spec)
    assert protocols.mean_gate_fidelity(res) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_product_input_is_one():
    for eps, delta in [(0.3, 0.0), (2.0, 1.1), (np.pi, 2.2)]:
        spec = ProtocolSpec(
            ProtocolKind.ADQC_ROTATION_CZSWAP, (0,), u=1.2, epsilon=eps, delta=delta
        )
        res = protocols.run_protocol(basis_state(2, 0), spec)
        assert protocols.mean_gate_fidelity(res) == pytest.approx(1.0, abs=1e-12)


_BRANCHES = np.full((2, 4), 0.5, dtype=complex)


@pytest.mark.parametrize("ideal, inaccurate, message", [
    ("a", "c", "ideal_branches is not an array of numbers"),
    (_BRANCHES, "c", "inaccurate_branches is not an array of numbers"),
    (np.full((2, 4), np.nan), _BRANCHES, "ideal_branches has non-finite entries"),
    (_BRANCHES, np.full((2, 4), np.inf), "inaccurate_branches has non-finite entries"),
    (_BRANCHES, np.zeros((2, 8)), r"inaccurate_branches shape \(2, 8\)"),
    (_BRANCHES, _BRANCHES[None], r"inaccurate_branches shape \(1, 2, 4\)"),
    (np.zeros(4), np.zeros(4), r"ideal_branches shape \(4,\)"),
    (np.zeros((3, 4)), np.zeros((3, 4)), r"ideal_branches shape \(3, 4\)"),
    (np.zeros((2, 3)), np.zeros((2, 3)), r"ideal_branches shape \(2, 3\)"),
    (np.zeros((1, 1, 2, 4)), np.zeros((1, 1, 2, 4)), r"ideal_branches shape \(1, 1, 2, 4\)"),
])
def test_mean_gate_fidelity_names_a_bad_branch_field(ideal, inaccurate, message):
    # junk, non-finite entries and mismatched or wrong shapes raise
    # ValueError naming the field; they used to raise TypeError or numpy's
    # broadcast error, or return nan
    with pytest.raises(ValueError, match=message):
        protocols.mean_gate_fidelity(protocols.ProtocolResult(ideal, np.ones(2), inaccurate))


def test_closed_form_examples():
    assert protocols.closed_form_fidelity(0.4, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert protocols.closed_form_fidelity(0.6, np.pi / 3) == pytest.approx(0.84, abs=1e-12)
    for eps in np.linspace(0, np.pi, 7):
        assert protocols.closed_form_fidelity(1.0, eps) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        protocols.closed_form_fidelity(1.5, 0.3)


def test_oracle_equality_randomized():
    rng = np.random.default_rng(74)
    keys = [[74, trial] for trial in range(150)]
    for trial in range(150):
        n = int(rng.integers(2, 6))
        psi = PureState(n, qcore.haar_states(n, [keys[trial]])[0])
        spec = random_spec(rng, n)
        rep = protocols.analyze(psi, spec)
        assert abs(rep.simulated_F - rep.closed_form_F) <= 1e-10


def test_delta_independence():
    rng = np.random.default_rng(75)
    keys = [[75, trial] for trial in range(10)]
    for trial in range(10):
        n = int(rng.integers(2, 5))
        psi = PureState(n, qcore.haar_states(n, [keys[trial]])[0])
        spec = random_spec(rng, n)
        vals = []
        for delta in (0.0, 0.7, 1.4, 2.3, np.pi, 4.4, 5.9):
            s = ProtocolSpec(spec.kind, spec.targets, u=spec.u,
                             epsilon=spec.epsilon, delta=delta)
            vals.append(protocols.mean_gate_fidelity(protocols.run_protocol(psi, s)))
        assert max(vals) - min(vals) <= 1e-10


def test_rotation_circuits_equivalent():
    rng = np.random.default_rng(76)
    keys = [[76, trial] for trial in range(100)]
    for trial in range(100):
        n = int(rng.integers(1, 6))
        psi = PureState(n, qcore.haar_states(n, [keys[trial]])[0])
        t = int(rng.integers(n))
        u, eps, delta = (float(x) for x in rng.uniform(0, np.pi, size=3))
        runs = [
            protocols.run_protocol(
                psi, ProtocolSpec(k, (t,), u=u, epsilon=eps, delta=delta)
            )
            for k in ROTATIONS
        ]
        for other in runs[1:]:
            for j in range(2):
                assert qcore.phase_aligned_max_diff(
                    runs[0].inaccurate_branches[j], other.inaccurate_branches[j]
                ) < 1e-12


def oneway_as_stated(states, targets, u, epsilon, delta):
    """The one-way rotation as the paper states it, row by row: CZ on
    (target, ancilla), measure the target, and move the ancilla, the last
    of the remaining qubits, into the target's slot.  Returns (B, 2, 2^n)
    ideal branches, (B, 2) probabilities and (B, 2, 2^n) tilted branches."""
    rows, dim = states.shape
    n = linalg.n_qubits_of(dim)
    ideal = np.empty((rows, 2, dim), dtype=complex)
    tilted = np.empty((rows, 2, dim), dtype=complex)
    for b in range(rows):
        t = targets[b]
        pre = reference.apply_matrix(np.kron(states[b], PLUS), qcore.gate("CZ"), (t, n))
        # axis 0 of the branches is the outcome, then the n remaining qubits
        axes = (0, *(1 + q for q in (*range(t), n - 1, *range(t, n - 1))))
        for out, eps in ((tilted, epsilon[b]), (ideal, 0.0)):
            basis = qcore.tilted_vectors(qcore.equatorial_pair(u[b]), eps, delta[b])
            branches = reference.measure_branch(pre, t, basis)
            out[b] = branches.reshape([2] * (n + 1)).transpose(axes).reshape(2, dim)
    probs = np.einsum("bjm,bjm->bj", ideal.conj(), ideal).real
    ideal /= np.sqrt(probs)[..., None]
    return ideal, probs, tilted


@pytest.mark.parametrize("n", range(1, protocols._MAX_REGISTER + 1))
@pytest.mark.parametrize("rows", [1, 17])
def test_oneway_rotation_is_the_circuit_the_paper_states_bit_for_bit(n, rows):
    # run_protocol writes the one-way rotation as CZSWAP(target, ancilla)
    # followed by a measurement of the ancilla; its branches are those of
    # the stated circuit to the last bit, on one register and on a stack
    assert np.array_equal(qcore.gate("CZSWAP"), qcore.gate("SWAP") @ qcore.gate("CZ"))
    rng = np.random.default_rng([81, n, rows])
    states = qcore.haar_states(n, [[81, n, rows, b] for b in range(rows)])
    targets = [int(t) for t in rng.integers(n, size=rows)]
    u, epsilon, delta = (rng.uniform(0, 2 * np.pi, size=rows).tolist() for _ in range(3))
    specs = [
        ProtocolSpec(ProtocolKind.ONEWAY_ROTATION, (t,), u=a, epsilon=e, delta=d)
        for t, a, e, d in zip(targets, u, epsilon, delta)
    ]
    want = oneway_as_stated(states, targets, u, epsilon, delta)
    got = (protocols.run_protocol(states[0], specs[0]) if rows == 1
           else protocols.run_protocol(states, specs))
    for field, expected in zip(got, want):
        assert field.tobytes() == (expected[0] if rows == 1 else expected).tobytes()


# --------------------------------------------------------- error operator

def test_error_operator_identity_at_zero():
    for j in range(2):
        assert np.allclose(
            protocols.error_operator(ErrorKind.X_TYPE, j, 0.0, 1.3), np.eye(2)
        )
        assert np.allclose(
            protocols.error_operator(ErrorKind.ZZ_TYPE, j, 0.0, 0.2), np.eye(4)
        )


def test_error_operator_pure_flip():
    op = protocols.error_operator(ErrorKind.X_TYPE, 0, np.pi, 0.0)
    assert np.max(np.abs(op - qcore.gate("X"))) < 1e-12


def test_error_operator_outcome_error():
    with pytest.raises(ValueError):
        protocols.error_operator(ErrorKind.X_TYPE, 2, 0.1, 0.1)


def test_error_operator_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown error kind"):
        protocols.error_operator("X_TYPE", 0, 0.1, 0.1)


def test_error_factorization_exact():
    # xi_j = sqrt(p_j) * A_j * ideal_j, as an exact vector identity
    rng = np.random.default_rng(77)
    keys = [[77, trial] for trial in range(80)]
    for trial in range(80):
        n = int(rng.integers(2, 6))
        psi = PureState(n, qcore.haar_states(n, [keys[trial]])[0])
        spec = random_spec(rng, n)
        res = protocols.run_protocol(psi, spec)
        if spec.kind in protocols.X_ERROR_KINDS:
            ekind, takes = ErrorKind.X_TYPE, (spec.targets[0],)
        else:
            ekind, takes = ErrorKind.ZZ_TYPE, spec.targets
        for j in range(2):
            a = protocols.error_operator(ekind, j, spec.epsilon, spec.delta)
            pred = np.sqrt(res.ideal_probabilities[j]) * reference.apply_matrix(
                res.ideal_branches[j], a, takes
            )
            assert np.max(np.abs(pred - res.inaccurate_branches[j])) < 1e-12


# ----------------------------------------------------------------- bounds

def test_bound_purity_examples():
    assert protocols.bound_purity(0.37, 0.0) == 1.0
    assert protocols.bound_purity(1.0, np.pi) == pytest.approx(0.0, abs=1e-15)
    assert protocols.bound_purity(0.8, np.pi / 3) == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(ValueError):
        protocols.bound_purity(1.2, 0.1)


def test_bound_sv_examples():
    for eps in (0.0, 0.9, np.pi):
        assert protocols.bound_sv(0.0, eps) == pytest.approx(1.0, abs=1e-12)
    assert protocols.bound_sv(1.0, np.pi) == pytest.approx(0.0, abs=1e-9)
    assert protocols.bound_sv(0.4690, np.pi / 2) == pytest.approx(0.82, abs=1e-3)


def test_bound_sv2_examples():
    for eps in (0.0, 0.9, np.pi):
        want = np.cos(eps / 2) ** 2
        assert protocols.bound_sv2(2.0, eps) == pytest.approx(want, abs=1e-12)
        assert protocols.bound_sv2(1.0, eps) == pytest.approx(1.0, abs=1e-12)
    assert protocols.bound_sv2(1.8113, np.pi / 2) == pytest.approx(0.625, abs=1e-3)
    with pytest.raises(entropy.BoundDomainError):
        protocols.bound_sv2(0.8, 0.3)


def test_bounds_hold_randomized():
    rng = np.random.default_rng(78)
    keys = [[78, trial] for trial in range(120)]
    for trial in range(120):
        n = int(rng.integers(2, 6))
        psi = PureState(n, qcore.haar_states(n, [keys[trial]])[0])
        spec = random_spec(rng, n)
        rep = protocols.analyze(psi, spec)
        for value in rep.bounds.values():
            assert rep.simulated_F <= value + 1e-9
        assert not rep.violations
        assert 0.0 <= rep.simulated_F <= 1.0 + 1e-10


# ---------------------------------------------------------------- analyze

def test_analyze_bell_saturation():
    bell = PureState.from_vector(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    spec = ProtocolSpec(
        ProtocolKind.ADQC_ROTATION_CZ, (0,), u=0.3, epsilon=np.pi / 2, delta=1.0
    )
    rep = protocols.analyze(bell, spec)
    want = np.cos(np.pi / 4) ** 2
    assert rep.simulated_F == pytest.approx(want, abs=1e-12)
    assert rep.closed_form_F == pytest.approx(want, abs=1e-12)
    assert rep.entanglement.purity_S == pytest.approx(1.0, abs=1e-12)
    assert rep.bounds["purity_bound"] == pytest.approx(want, abs=1e-12)
    assert abs(rep.simulated_F - rep.bounds["purity_bound"]) <= 1e-9
    assert not rep.violations


def test_analyze_product_input():
    spec = ProtocolSpec(ProtocolKind.ONEWAY_ROTATION, (0,), u=1.0, epsilon=2.0)
    rep = protocols.analyze(basis_state(3, 0), spec)
    assert rep.entanglement.purity_S == pytest.approx(0.0, abs=1e-12)
    assert rep.bounds["purity_bound"] == 1.0
    assert rep.simulated_F <= 1.0 + 1e-12


def test_analyze_czswap_on_maximally_mixed_pair():
    psi = verify.bell_pair_register()
    eps = 1.1
    spec = ProtocolSpec(ProtocolKind.ADQC_CZSWAP_GATE, (0, 1), epsilon=eps)
    rep = protocols.analyze(psi, spec)
    want = np.cos(eps / 2) ** 2
    assert rep.simulated_F == pytest.approx(want, abs=1e-12)
    assert rep.entanglement.von_neumann == pytest.approx(2.0, abs=1e-10)
    assert rep.bounds["sv2_bound"] == pytest.approx(want, abs=1e-9)
    assert abs(rep.simulated_F - rep.bounds["sv2_bound"]) <= 1e-9


def test_analyze_czswap_below_domain_has_no_sv2_bound():
    psi = verify.purified_rho_lambda(0.3)
    spec = ProtocolSpec(ProtocolKind.ADQC_CZSWAP_GATE, (0, 1), epsilon=0.8)
    rep = protocols.analyze(psi, spec)
    assert "sv2_bound" not in rep.bounds
    assert rep.correlator_used == pytest.approx(1.0, abs=1e-14)
    assert rep.simulated_F == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------ stacks

def _assert_reports_equal(got, want):
    # field by field, arrays bit for bit
    for name, value in want._asdict().items():
        if isinstance(value, protocols.ProtocolResult):
            _assert_reports_equal(getattr(got, name), value)
        elif isinstance(value, np.ndarray):
            assert getattr(got, name).tobytes() == value.tobytes(), name
        else:
            assert getattr(got, name) == value, name


def test_analyze_stack_mixes_error_kinds_bit_for_bit():
    # one simulation of both error kinds equals the two single-kind stacks
    rng = np.random.default_rng(83)
    n, rows = 4, 40
    states = list(qcore.haar_states(n, [[83, b] for b in range(rows)]))
    specs = [random_spec(rng, n) for _ in range(rows)]
    mixed = protocols.analyze(np.array(states), specs)
    x_type = [b for b, spec in enumerate(specs) if spec.kind in protocols.X_ERROR_KINDS]
    zz_type = [b for b in range(rows) if b not in x_type]
    assert len(x_type) >= 10 and len(zz_type) >= 5
    for part in (x_type, zz_type):
        alone = protocols.analyze(np.array([states[b] for b in part]), [specs[b] for b in part])
        picked = protocols.FidelityReport(*(
            protocols.ProtocolResult(*(a[part] for a in value))
            if isinstance(value, protocols.ProtocolResult)
            else value[part] if isinstance(value, np.ndarray)
            else [value[b] for b in part]
            for value in mixed
        ))
        _assert_reports_equal(picked, alone)
        for name in ("purity_bound", "sv_bound", "sv2_bound"):
            assert [mixed.bound(name)[b] for b in part] == alone.bound(name)


def test_tilted_branches_alone_are_run_protocols_bit_for_bit():
    # a caller that reads only the tilted branches (circuit_equivalence)
    # asks for them alone: they are run_protocol's inaccurate branches,
    # bit for bit, whatever the mix of kinds, targets and register size
    rng = np.random.default_rng(86)
    for trial in range(60):
        n = trial % 7 + 1
        rows = int(rng.integers(1, 41))
        kinds = ALL_KINDS if n >= 2 else ROTATIONS
        specs = [random_spec(rng, n, kinds) for _ in range(rows)]
        states = qcore.haar_states(n, [[86, trial, b] for b in range(rows)])
        _, columns, _ = protocols._runs(states, specs)
        tilted = protocols._branches(states, columns, protocols._bases(columns)[:, :2])
        result = protocols.run_protocol(states, specs)
        assert tilted.shape == result.inaccurate_branches.shape == (rows, 2, 2**n)
        assert tilted.tobytes() == result.inaccurate_branches.tobytes()


@pytest.mark.parametrize("rows", [1, 2, 7, 64, 1000])
def test_the_tilted_equatorial_bases_are_the_first_half_of_bases_bit_for_bit(rows):
    # circuit_equivalence builds only the tilted bases of its rotation
    # rows, as the equatorial pair at u tilted by (epsilon, delta): they
    # are the tilted half of _bases, whose ideal half it never reads
    rng = np.random.default_rng([87, rows])
    specs = [random_spec(rng, 3, ROTATIONS) for _ in range(rows)]
    _, columns, _ = protocols._runs(np.tile(basis_state(3, 0).amplitudes, (rows, 1)), specs)
    tilted = qcore._tilted(qcore._equatorial(columns.u), columns.epsilon, columns.delta)
    assert tilted.tobytes() == protocols._bases(columns)[:, :2].tobytes()


def test_pre_measurement_state_is_the_product_with_plus_bit_for_bit():
    # psi (x) |+> is built by repeating each amplitude times 1/sqrt(2),
    # which equals the product with |+> bit for bit as both entries of
    # _PLUS are equal; the gate step then follows as the reference's
    # apply_matrix does it, one matmul over the stack
    assert protocols._PLUS[0] == protocols._PLUS[1]
    rng = np.random.default_rng(87)
    n, rows = 4, 12
    amplitudes = rng.standard_normal((rows, 2**n)) + 1j * rng.standard_normal((rows, 2**n))
    amplitudes /= np.linalg.norm(amplitudes, axis=1, keepdims=True)
    specs = [random_spec(rng, n, (ProtocolKind.ADQC_ROTATION_CZ,)) for _ in range(rows)]
    plus = (amplitudes[:, :, None] * protocols._PLUS).reshape(rows, 2 ** (n + 1))
    ops = np.stack([qcore.gate("E_CZ")] * rows)
    want = reference.apply_matrix(plus, ops, [(s.targets[0], n) for s in specs])
    got = protocols.pre_measurement_state(amplitudes, specs)
    assert got.tobytes() == want.tobytes()


def test_stack_fidelities_and_bounds_match_the_scalar_formulas_bit_for_bit():
    # closed-form F and sin(e/2) are computed over the stack; each row
    # must equal the scalar formulas evaluated in the same order
    rng = np.random.default_rng(85)
    rows = 200
    states = qcore.haar_states(3, [[85, b] for b in range(rows)])
    specs = [random_spec(rng, 3) for _ in range(rows)]
    stack = protocols.analyze(states, specs)
    bounds = {name: stack.bound(name) for name in ("purity_bound", "sv_bound", "sv2_bound")}
    for row, spec in enumerate(specs):
        ce, se = np.cos(spec.epsilon / 2.0), np.sin(spec.epsilon / 2.0)
        c = float(stack.correlator_used[row])
        assert stack.closed_form_F[row] == float(ce * ce + c * c * se * se)
        entropies = stack.bound_entropies[row]
        want = dict.fromkeys(bounds)
        if "purity_bound" in entropies:
            want["purity_bound"] = float(1.0 - entropies["purity_bound"] * se * se)
            f = entropy.f_inverse(entropies["sv_bound"])
            want["sv_bound"] = float(1.0 - (1.0 - f * f) * se * se)
        if "sv2_bound" in entropies:
            g = entropy.g_inverse(entropies["sv2_bound"])
            want["sv2_bound"] = float(1.0 - (1.0 - g * g) * se * se)
        assert {name: values[row] for name, values in bounds.items()} == want


def test_one_kind_stack_reduces_only_its_own_shape(monkeypatch):
    # an all-X-type stack never hands a stack of no rows to the two-qubit
    # reduction, nor an all-ZZ-type one to the one-qubit reduction
    traces = linalg._reduce
    reduced = []

    def counted(states, keeps):
        reduced.append((len(states), len(keeps[0])))
        return traces(states, keeps)

    monkeypatch.setattr(linalg, "_reduce", counted)
    rng = np.random.default_rng(84)
    states = qcore.haar_states(3, [[84, b] for b in range(6)])
    for kinds, shape in ((protocols.X_ERROR_KINDS, 1), ((ProtocolKind.ADQC_CZSWAP_GATE,), 2)):
        reduced.clear()
        protocols.analyze(states, [random_spec(rng, 3, kinds) for _ in range(6)])
        assert reduced == [(6, shape)]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_one_register_is_row_0_of_a_one_row_stack_bit_for_bit(kind):
    # a PureState and its raw vector give what a stack of that one row
    # gives in row 0, for each of the four functions
    rng = np.random.default_rng([86, ALL_KINDS.index(kind)])
    psi = PureState(3, qcore.haar_states(3, [[86, ALL_KINDS.index(kind)]])[0])
    spec = random_spec(rng, 3, (kind,))
    stack = psi.amplitudes[None]
    rows = protocols.analyze(stack, [spec])
    want = protocols.FidelityReport(*(
        protocols.ProtocolResult(*(a[0] for a in value))
        if isinstance(value, protocols.ProtocolResult)
        else float(value[0]) if isinstance(value, np.ndarray)
        else value[0]
        for value in rows
    ))
    for one in (psi, psi.amplitudes):
        pre = protocols.pre_measurement_state(one, spec)
        assert pre.shape == (16,)
        assert pre.tobytes() == protocols.pre_measurement_state(stack, [spec])[0].tobytes()
        result = protocols.run_protocol(one, spec)
        stacked = protocols.run_protocol(stack, [spec])
        for got, rows_of in zip(result, stacked):
            assert got.shape == rows_of.shape[1:] and got.tobytes() == rows_of[0].tobytes()
        fidelity = protocols.mean_gate_fidelity(result)
        assert type(fidelity) is float
        assert fidelity == protocols.mean_gate_fidelity(stacked)[0]
        report = protocols.analyze(one, spec)
        _assert_reports_equal(report, want)
        assert type(report.simulated_F) is float and isinstance(report.bound_entropies, dict)
        for name in ("purity_bound", "sv_bound", "sv2_bound"):
            assert report.bound(name) == rows.bound(name)[0]


@pytest.mark.parametrize("fn", ["pre_measurement_state", "run_protocol", "analyze"])
def test_a_register_takes_one_spec_and_a_stack_one_spec_per_row(fn):
    run = getattr(protocols, fn)
    psi = basis_state(2, 0)
    spec = ProtocolSpec(ProtocolKind.ADQC_ROTATION_CZ, (1,), u=0.2, epsilon=0.3)
    for one in (psi, psi.amplitudes):
        with pytest.raises(ValueError, match="one ProtocolSpec"):
            run(one, [spec])
    with pytest.raises(ValueError, match="one ProtocolSpec"):
        run(psi.amplitudes[None], spec)
    with pytest.raises(ValueError, match="2 specs for 1 rows"):
        run(psi.amplitudes[None], [spec, spec])
    with pytest.raises(ValueError, match="stack"):
        run(psi.amplitudes[None, None], [spec])
    with pytest.raises(ValueError, match="target 2 out of range"):
        run(psi, ProtocolSpec(ProtocolKind.ADQC_CZ_GATE, (0, 2)))


@pytest.mark.parametrize("fn", ["pre_measurement_state", "run_protocol", "analyze"])
@pytest.mark.parametrize("register, message", [
    (np.zeros(2), "not normalized"),
    (np.array([1.0, 1.0]), "not normalized"),
    (np.array([1e300, 1e300j]), "not normalized"),  # |psi|^2 overflows to inf
    (np.array([np.nan, 0.0]), "states has non-finite entries"),
    (np.array([np.nan, 1.0]), "states has non-finite entries"),
    (np.array([np.inf, 0.0]), "states has non-finite entries"),
])
def test_a_register_must_be_finite_and_normalized(fn, register, message):
    # a zero or NaN register used to emit a RuntimeWarning, and
    # pre_measurement_state returned NaN; a bad row of a stack fails it
    run = getattr(protocols, fn)
    spec = ProtocolSpec(ProtocolKind.ADQC_ROTATION_CZ, (0,), u=0.2, epsilon=0.3)
    with pytest.raises(ValueError, match=message):
        run(register, spec)
    stack = np.array([basis_state(1, 1).amplitudes, register])
    with pytest.raises(ValueError, match=message):
        run(stack, [spec, spec])
    run(stack[:1], [spec])  # the good row alone runs


def test_bounds_and_violations_describe_one_run():
    # a stack's bounds are read by name, one value per row
    states = np.array([basis_state(4, 0).amplitudes, verify.bell_pair_register().amplitudes])
    specs = [
        ProtocolSpec(ProtocolKind.ONEWAY_ROTATION, (0,), u=1.0, epsilon=2.0),
        ProtocolSpec(ProtocolKind.ADQC_CZSWAP_GATE, (0, 1), epsilon=1.0),
    ]
    stack = protocols.analyze(states, specs)
    for name in ("bounds", "violations"):
        with pytest.raises(ValueError, match="one run"):
            getattr(stack, name)
    for name in ("purity_bound", "sv_bound", "sv2_bound"):
        assert stack.bound(name) == [
            protocols.analyze(state, spec).bound(name) for state, spec in zip(states, specs)
        ]
    assert stack.bound("purity_bound")[0] == 1.0 and stack.bound("purity_bound")[1] is None
    assert stack.bound("sv2_bound")[0] is None and stack.bound("sv2_bound")[1] is not None


def test_stacks_of_no_rows_give_no_rows():
    empty = np.zeros((0, 8), dtype=complex)
    assert protocols.pre_measurement_state(empty, []).shape == (0, 16)
    result = protocols.run_protocol(empty, [])
    assert isinstance(result, protocols.ProtocolResult)
    ideal, probs, inaccurate = result
    assert (ideal.shape, probs.shape, inaccurate.shape) == ((0, 2, 8), (0, 2), (0, 2, 8))
    assert protocols.mean_gate_fidelity(result).shape == (0,)
    report = protocols.analyze(empty, [])
    assert report.simulated_F.shape == report.closed_form_F.shape == report.sin_half.shape == (0,)
    assert report.entanglement == report.bound_entropies == []
    assert report.result.inaccurate_branches.shape == (0, 2, 8)
    assert report.bound("purity_bound") == []


# --------------------------------------------- pre-measurement expansions

def expected_cz_gate_pre_measurement(spect_vecs, t1, t2, n):
    """The displayed four-term expansion for the CZ-interaction gate."""
    signs = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): -1.0}
    pm = {0: PLUS, 1: MINUS}
    total = np.zeros(2 ** (n + 1), dtype=complex)
    for (z2, z1), spect in spect_vecs.items():
        factors = [None] * (n + 1)
        spect_axes = [q for q in range(n) if q not in (t1, t2)]
        for axis, comp in zip(spect_axes, spect):
            factors[axis] = comp
        factors[t1] = pm[z1]
        factors[t2] = pm[z2]
        factors[n] = pm[z1]
        term = np.array([signs[(z2, z1)]], dtype=complex)
        for fac in factors:
            term = np.kron(term, fac)
        total += term
    return total


def expected_czswap_gate_pre_measurement(spect_vecs, t1, t2, n):
    """The displayed four-term expansion for the CZSWAP-interaction gate."""
    pm = {0: PLUS, 1: MINUS}
    basis = {0: E0, 1: E1}
    total = np.zeros(2 ** (n + 1), dtype=complex)
    for (z2, z1), spect in spect_vecs.items():
        factors = [None] * (n + 1)
        spect_axes = [q for q in range(n) if q not in (t1, t2)]
        for axis, comp in zip(spect_axes, spect):
            factors[axis] = comp
        factors[t1] = basis[z2]  # the gate swaps the pair
        factors[t2] = basis[z1]
        factors[n] = pm[(z1 + z2) % 2]
        sign = -1.0 if (z1, z2) == (1, 1) else 1.0
        term = np.array([sign], dtype=complex)
        for fac in factors:
            term = np.kron(term, fac)
        total += term
    return total


@pytest.mark.parametrize("kind,builder", [
    (ProtocolKind.ADQC_CZ_GATE, expected_cz_gate_pre_measurement),
    (ProtocolKind.ADQC_CZSWAP_GATE, expected_czswap_gate_pre_measurement),
])
@pytest.mark.parametrize("n,t1,t2", [(2, 0, 1), (3, 1, 2), (3, 2, 0), (4, 3, 1)])
def test_pre_measurement_expansions(kind, builder, n, t1, t2):
    rng = np.random.default_rng([80, n, t1, t2])
    # basis inputs with random spectators: each eta term in isolation
    for z2 in range(2):
        for z1 in range(2):
            comps = [
                rng.standard_normal(2) + 1j * rng.standard_normal(2)
                for _ in range(n - 2)
            ]
            factors = [None] * n
            spect_axes = [q for q in range(n) if q not in (t1, t2)]
            for axis, comp in zip(spect_axes, comps):
                factors[axis] = comp
            factors[t1] = E1 if z1 else E0
            factors[t2] = E1 if z2 else E0
            vec = np.array([1.0], dtype=complex)
            for fac in factors:
                vec = np.kron(vec, fac)
            vec /= np.linalg.norm(vec)
            normed = [c / np.linalg.norm(c) for c in comps]
            psi = PureState(n, vec)
            spec = ProtocolSpec(kind, (t1, t2), epsilon=0.9, delta=2.1)
            got = protocols.pre_measurement_state(psi, spec)
            want = builder({(z2, z1): normed}, t1, t2, n)
            assert np.max(np.abs(got - want)) < 1e-12


def test_pre_measurement_superposition():
    # random eta amplitudes spread across all four pair settings
    rng = np.random.default_rng(81)
    n, t1, t2 = 3, 0, 2
    spect_axes = [1]
    spect_vecs = {}
    vec = np.zeros(2**n, dtype=complex)
    for z2 in range(2):
        for z1 in range(2):
            comp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            spect_vecs[(z2, z1)] = [comp]
            factors = [None] * n
            factors[spect_axes[0]] = comp
            factors[t1] = E1 if z1 else E0
            factors[t2] = E1 if z2 else E0
            term = np.array([1.0], dtype=complex)
            for fac in factors:
                term = np.kron(term, fac)
            vec += term
    norm = np.linalg.norm(vec)
    vec /= norm
    spect_vecs = {k: [v[0] / norm] for k, v in spect_vecs.items()}
    psi = PureState(n, vec)
    for kind, builder in (
        (ProtocolKind.ADQC_CZ_GATE, expected_cz_gate_pre_measurement),
        (ProtocolKind.ADQC_CZSWAP_GATE, expected_czswap_gate_pre_measurement),
    ):
        spec = ProtocolSpec(kind, (t1, t2), epsilon=0.3, delta=0.7)
        got = protocols.pre_measurement_state(psi, spec)
        want = builder(spect_vecs, t1, t2, n)
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("field", ["epsilon", "delta"])
@pytest.mark.parametrize("kind", [ProtocolKind.ADQC_ROTATION_CZ, ProtocolKind.ADQC_CZSWAP_GATE])
def test_spec_takes_none_for_u_only(kind, field):
    # delta=None used to give analyze's simulated_F = nan with a
    # RuntimeWarning, and epsilon=None a TypeError from the bases
    rotation = kind in protocols.ROTATION_KINDS
    angles = {"u": 0.3 if rotation else None, field: None}
    with pytest.raises(ValueError, match=f"{field} None is not a real"):
        ProtocolSpec(kind, (0,) if rotation else (0, 1), **angles)


@pytest.mark.parametrize("targets", [True, None, 0.5, 1j, object()])
def test_spec_targets_must_be_a_sequence(targets):
    # each of these used to raise TypeError: '...' object is not iterable
    with pytest.raises(ValueError, match="targets .* is not a sequence"):
        ProtocolSpec(ProtocolKind.ADQC_ROTATION_CZ, targets, u=0.1)


def test_error_operator_rejects_an_unhashable_kind():
    # [] used to raise TypeError: unhashable type
    with pytest.raises(ValueError, match="unknown error kind"):
        protocols.error_operator([], 0, 0.3, 0.2)


def _column_rows(rng, n, count):
    # (kind code, targets, u or None, epsilon, delta) rows, drawn as a
    # campaign draws them, with no ProtocolSpec
    rows = []
    for _ in range(count):
        spec = random_spec(rng, n, ALL_KINDS if n >= 2 else ROTATIONS)
        code = protocols._KINDS.index(spec.kind)
        rows.append((code, tuple(spec.targets), spec.u, spec.epsilon, spec.delta))
    return rows


def test_public_calls_equal_the_column_path_bit_for_bit():
    # analyze, run_protocol and pre_measurement_state on spec lists are
    # the column path on columns built from plain rows, for mixed kinds and
    # register sizes in one analysis pass, and for a stack of no rows:
    # analyze's report of a stack is its rows of the pass's columns
    rng = np.random.default_rng(89)
    stacks, rows = [], []
    for n in (1, 2, 3, 5, 7):
        count = int(rng.integers(1, 16))
        stacks.append(qcore.haar_states(n, [[89, n, b] for b in range(count)]))
        rows.append(_column_rows(rng, n, count))
    stacks.append(np.zeros((0, 8), dtype=complex))
    rows.append([])
    columns = protocols._columns([r for part in rows for r in part])
    checks = protocols._analyses(stacks, columns, correlators=True, entropies=True)
    names = ("purity_bound", "sv_bound", "sv2_bound")
    bounds = {name: dict(zip(*(a.tolist() for a in protocols._checked_bounds(name, checks))))
              for name in names}
    start = 0
    for states, part, result in zip(stacks, rows, checks.results):
        at = slice(start, start + len(part))
        start = at.stop
        specs = [ProtocolSpec(protocols._KINDS[code], *fields) for code, *fields in part]
        report = protocols.analyze(states, specs)
        for field, column in (
            ("simulated_F", checks.fidelity), ("closed_form_F", checks.closed),
            ("correlator_used", checks.correlator), ("sin_half", checks.sin_half),
        ):
            assert getattr(report, field).tobytes() == column[at].tobytes(), field
        _assert_reports_equal(report.result, result)
        assert [e.von_neumann for e in report.entanglement] == checks.von_neumann[at].tolist()
        assert [e.correlator for e in report.entanglement] == checks.expectations[-1, at].tolist()
        for name in names:
            assert report.bound(name) == [bounds[name].get(b) for b in range(at.start, at.stop)]
        part_columns = protocols._columns(part)
        want = protocols._run(states, part_columns, protocols._bases(part_columns))
        _assert_reports_equal(protocols.run_protocol(states, specs), want)
        # the chain ends in the measurement's order, the ancilla first
        pre = protocols.pre_measurement_state(states, specs)
        chained = protocols._chain(states, part_columns)
        ancilla_first = pre.reshape(len(part), pre.shape[1] // 2, 2).swapaxes(1, 2)
        assert ancilla_first.reshape(pre.shape).tobytes() == chained.tobytes()
        assert len(report.simulated_F) == len(part)


# ------------------------------------------------------------- gate chain

def _stepwise(states, specs, bases):
    # the reference of the gate chain, step by step through
    # tests/reference.py, which moves qubits by numpy's transpose and
    # shares no index table with linalg: psi (x) |+>, then gate step k of
    # each row's _PROTOCOLS gate list applied by reference.apply_matrix to
    # the rows that have one, then the ancilla measured by
    # reference.measure_branch.  Returns the state before the measurement
    # and the branches.
    rows, dim = states.shape
    n = dim.bit_length() - 1
    vec = (states[:, :, None] * protocols._PLUS).reshape(rows, 2 * dim)
    gates = [protocols._PROTOCOLS[spec.kind].gates for spec in specs]
    for k in range(max(map(len, gates), default=0)):
        at = [b for b, steps in enumerate(gates) if len(steps) > k]
        ops = np.array([qcore.gate(gates[b][k][0]) for b in at])
        wires = [{0: specs[b].targets[0], 1: specs[b].targets[-1], 2: n} for b in at]
        qubits = [[w[x] for x in gates[b][k][1]] for b, w in zip(at, wires)]
        vec[at] = reference.apply_matrix(vec[at], ops, qubits)
    return vec, reference.measure_branch(vec, n, bases)


def _every_target(rng, n, kind):
    # one spec for each valid target tuple of the kind on n qubits
    targets = [(t,) for t in range(n)] if kind in protocols.ROTATION_KINDS else [
        (a, b) for a in range(n) for b in range(n) if a != b
    ]
    u = kind in protocols.ROTATION_KINDS
    return [
        ProtocolSpec(kind, t, u=float(rng.uniform(0, 2 * np.pi)) if u else None,
                     epsilon=float(rng.uniform(0, np.pi)), delta=float(rng.uniform(0, 2 * np.pi)))
        for t in targets
    ]


@pytest.mark.parametrize("n", range(1, protocols._MAX_REGISTER + 1))
def test_the_gate_chain_is_the_stepwise_circuit_bit_for_bit(n):
    # _branches, run_protocol and pre_measurement_state on every kind and
    # every valid target tuple, each kind alone and all kinds mixed in a
    # shuffled row order, equal the stepwise reference bit for bit
    rng = np.random.default_rng([90, n])
    kinds = ALL_KINDS if n >= 2 else ROTATIONS
    alone = [_every_target(rng, n, kind) for kind in kinds]
    mixed = [spec for specs in alone for spec in specs]
    mixed = [mixed[b] for b in rng.permutation(len(mixed))]
    for specs in (*alone, mixed):
        keys = [[90, n, len(specs), b] for b in range(len(specs))]
        states = qcore.haar_states(n, keys)
        columns = protocols._columns(
            [(protocols._CODES[s.kind], s.targets, s.u, s.epsilon, s.delta) for s in specs]
        )
        bases = protocols._bases(columns)
        pre, branches = _stepwise(states, specs, bases)
        assert protocols._branches(states, columns, bases).tobytes() == branches.tobytes()
        assert protocols.pre_measurement_state(states, specs).tobytes() == pre.tobytes()
        ideal = branches[:, 2:]
        probs = np.einsum("bjm,bjm->bj", ideal.conj(), ideal).real
        want = (ideal / np.sqrt(probs)[..., None], probs, branches[:, :2])
        got = protocols.run_protocol(states, specs)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("targets, message", [
    ((1, 1), "repeats its target"),
    ((0, 3), "target 3 out of range"),
    ((-1, 0), "target -1 out of range"),
])
@pytest.mark.parametrize("kind", [ProtocolKind.ADQC_CZ_GATE, ProtocolKind.ADQC_CZSWAP_GATE])
def test_the_gate_chain_rejects_targets_it_has_no_table_for(kind, targets, message):
    # columns built past ProtocolSpec and _runs: a two-target kind that
    # repeats its target, or a target outside the register, raises where
    # it reaches the chain instead of reading another row's tables
    states = qcore.haar_states(3, [[91, 0], [91, 1]])
    good = (protocols._CODES[kind], (0, 2), None, 0.3, 0.2)
    columns = protocols._columns([good, (protocols._CODES[kind], targets, None, 0.3, 0.2)])
    with pytest.raises(ValueError, match=message):
        protocols._chain(states, columns)
    with pytest.raises(ValueError, match=message):
        protocols._branches(states, columns, protocols._bases(columns))
    rotation = (protocols._CODES[ProtocolKind.ADQC_ROTATION_CZ], (3,), 0.1, 0.3, 0.2)
    with pytest.raises(ValueError, match="target 3 out of range"):
        protocols._chain(states[:1], protocols._columns([rotation]))


def test_the_chain_tables_hold_one_int32_table_per_pair_of_frames():
    # per register size n, one table per distinct (from-frame, to-frame)
    # pair a valid row reaches: n from the register into (t, ancilla) and
    # n into (ancilla, t), n(n - 1) between the CZ gate's frames and as
    # many between the CZSWAP gate's, and n into the end frame from each
    # of the two frames a chain ends in, so 2n(n + 1) for n >= 2 (2 for
    # n = 1, which runs rotations alone); 2^(n+1) int32 entries each,
    # 180128 bytes over n = 1..7, and every table is some entry's
    total = 0
    for n in range(1, protocols._MAX_REGISTER + 1):
        tables, where = linalg._chain_tables(n, protocols._CHAINS.wirings)
        assert tables.dtype == np.int32 and tables.shape[1] == 2 ** (n + 1)
        assert where.shape == (4, len(ALL_KINDS), n, n)
        assert len(tables) == (2 * n * (n + 1) if n >= 2 else 2)
        assert np.array_equal(np.unique(where[where >= 0]), np.arange(len(tables)))
        total += tables.nbytes
    assert total == 180128


@pytest.mark.parametrize("n", range(1, protocols._MAX_REGISTER + 1))
def test_the_chain_lookup_is_minus_one_exactly_where_no_row_reaches(n):
    # -1 at every round a kind lacks (the longest chain has three steps,
    # so round 3 is every kind's last) and at q0 == q1 of a two-target
    # kind; a table everywhere else
    _, where = linalg._chain_tables(n, protocols._CHAINS.wirings)
    distinct = ~np.eye(n, dtype=bool)
    for kind in ALL_KINDS:
        steps = len(protocols._PROTOCOLS[kind].gates)
        for r in range(4):
            entries = where[r, protocols._CODES[kind]]
            if steps <= r < 3:
                assert (entries == -1).all()
            elif kind in ROTATIONS:
                assert (entries >= 0).all()
            else:
                assert (entries[~distinct] == -1).all() and (entries[distinct] >= 0).all()


@pytest.mark.parametrize("n", range(2, protocols._MAX_REGISTER + 1))
def test_kinds_whose_steps_share_a_frame_pair_share_its_table(n):
    # the four kinds whose first step is on (target, ancilla) gather the
    # register into one frame, so they share their round-0 tables; a
    # rotation names no second target, so its entries are constant in q1
    _, where = linalg._chain_tables(n, protocols._CHAINS.wirings)
    first = [protocols._CODES[kind] for kind, row in protocols._PROTOCOLS.items()
             if row.gates[0][1] == (0, protocols._ANCILLA)]
    assert len(first) == 4
    distinct = ~np.eye(n, dtype=bool)
    round_0 = where[0, first][:, distinct]
    assert (round_0 == round_0[0]).all()
    for kind in ROTATIONS:
        entries = where[:, protocols._CODES[kind]]
        assert (entries == entries[..., :1]).all()


def test_the_chain_tables_of_a_register_size_are_built_on_its_first_run():
    # one compilation per register size, on its first run, kept after
    linalg._chain_tables.cache_clear()
    spec = ProtocolSpec(ProtocolKind.ADQC_CZ_GATE, (0, 2), epsilon=0.3)
    for n in (3, 4, 3):
        protocols.run_protocol(basis_state(n, 0), spec)
    info = linalg._chain_tables.cache_info()
    assert (info.currsize, info.misses, info.hits) == (2, 2, 1)
