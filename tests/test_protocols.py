import numpy as np
import pytest

from adqcsim import entropy, linalg, protocols, qcore, verify
from adqcsim.protocols import ErrorKind, ProtocolKind, ProtocolSpec
from adqcsim.qcore import PureState, basis_state

ALL_KINDS = tuple(ProtocolKind)
ROTATIONS = tuple(k for k in ProtocolKind if k in protocols.ROTATION_KINDS)
ZZ = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)
E0 = np.array([1, 0], dtype=complex)
E1 = np.array([0, 1], dtype=complex)


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
    n = psi.n_qubits
    vec = psi.amplitudes
    if spec.kind in protocols.ROTATION_KINDS:
        op = np.linalg.matrix_power(qcore.gate("X"), j) @ qcore.j_gate(spec.u)
        return qcore.apply_matrix(vec, op, spec.targets, n)
    vec = qcore.apply_matrix(vec, qcore.gate("CZ"), spec.targets, n)
    if spec.kind is ProtocolKind.ADQC_CZ_GATE:
        vec = qcore.apply_matrix(vec, qcore.gate("H"), (spec.targets[0],), n)
        vec = qcore.apply_matrix(vec, qcore.gate("H"), (spec.targets[1],), n)
        if j:
            vec = qcore.apply_matrix(vec, qcore.gate("X"), (spec.targets[0],), n)
    else:
        vec = qcore.apply_matrix(vec, qcore.gate("SWAP"), spec.targets, n)
        if j:
            vec = qcore.apply_matrix(vec, ZZ, spec.targets, n)
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
        assert not row.measures_target or row.rotation


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["u", "epsilon", "delta"])
def test_spec_rejects_non_finite_angles(field, bad):
    angles = {"u": 0.4, "epsilon": 0.3, "delta": 0.2, field: bad}
    with pytest.raises(ValueError, match="not finite"):
        ProtocolSpec(ProtocolKind.ADQC_ROTATION_CZ, (0,), **angles)
    if field != "u":
        angles.pop("u")
        with pytest.raises(ValueError, match="not finite"):
            ProtocolSpec(ProtocolKind.ADQC_CZSWAP_GATE, (0, 1), **angles)


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
    assert qcore.phase_aligned_max_diff(res.ideal_branches[0].amplitudes, PLUS) < 1e-12


def test_cz_gate_on_00():
    spec = ProtocolSpec(ProtocolKind.ADQC_CZ_GATE, (0, 1), epsilon=0.0)
    res = protocols.run_protocol(basis_state(2, 0), spec)
    expected = np.kron(PLUS, PLUS)  # H1 H2 CZ |00>
    assert qcore.phase_aligned_max_diff(res.ideal_branches[0].amplitudes, expected) < 1e-12


def test_czswap_gate_on_10():
    spec = ProtocolSpec(ProtocolKind.ADQC_CZSWAP_GATE, (0, 1), epsilon=0.0)
    res = protocols.run_protocol(basis_state(2, 0b10), spec)
    assert qcore.phase_aligned_max_diff(
        res.ideal_branches[0].amplitudes, basis_state(2, 0b01).amplitudes
    ) < 1e-12


def test_ideal_branches_match_byproduct_gates():
    rng = np.random.default_rng(70)
    for trial in range(60):
        n = int(rng.integers(2, 6))
        psi = qcore.random_pure_state(n, [70, trial])
        spec = random_spec(rng, n)
        res = protocols.run_protocol(psi, spec)
        for j in range(2):
            want = byproduct_branch(psi, spec, j)
            assert qcore.phase_aligned_max_diff(
                res.ideal_branches[j].amplitudes, want
            ) < 1e-12


def test_branch_probability_sums():
    rng = np.random.default_rng(71)
    for trial in range(40):
        n = int(rng.integers(2, 6))
        psi = qcore.random_pure_state(n, [71, trial])
        res = protocols.run_protocol(psi, random_spec(rng, n))
        assert sum(res.ideal_probabilities) == pytest.approx(1.0, abs=1e-12)
        total = sum(float(np.vdot(x, x).real) for x in res.inaccurate_branches)
        assert total == pytest.approx(1.0, abs=1e-12)
        assert res.target_register_size == n


def test_ideal_branch_equals_inaccurate_at_zero_tilt():
    rng = np.random.default_rng(72)
    for trial in range(20):
        n = int(rng.integers(2, 5))
        psi = qcore.random_pure_state(n, [72, trial])
        spec = random_spec(rng, n)
        spec = ProtocolSpec(spec.kind, spec.targets, u=spec.u, epsilon=0.0, delta=0.0)
        res = protocols.run_protocol(psi, spec)
        for j in range(2):
            xi_norm = res.inaccurate_branches[j] / np.linalg.norm(
                res.inaccurate_branches[j]
            )
            assert qcore.phase_aligned_max_diff(
                res.ideal_branches[j].amplitudes, xi_norm
            ) < 1e-12


# ------------------------------------------------------------- fidelity

def test_fidelity_is_one_without_tilt():
    rng = np.random.default_rng(73)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        psi = qcore.random_pure_state(n, [73, trial])
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


def test_closed_form_examples():
    assert protocols.closed_form_fidelity(0.4, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert protocols.closed_form_fidelity(0.6, np.pi / 3) == pytest.approx(0.84, abs=1e-12)
    for eps in np.linspace(0, np.pi, 7):
        assert protocols.closed_form_fidelity(1.0, eps) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        protocols.closed_form_fidelity(1.5, 0.3)


def test_oracle_equality_randomized():
    rng = np.random.default_rng(74)
    for trial in range(150):
        n = int(rng.integers(2, 6))
        psi = qcore.random_pure_state(n, [74, trial])
        spec = random_spec(rng, n)
        rep = protocols.analyze(psi, spec)
        assert abs(rep.simulated_F - rep.closed_form_F) <= 1e-10


def test_delta_independence():
    rng = np.random.default_rng(75)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        psi = qcore.random_pure_state(n, [75, trial])
        spec = random_spec(rng, n)
        vals = []
        for delta in (0.0, 0.7, 1.4, 2.3, np.pi, 4.4, 5.9):
            s = ProtocolSpec(spec.kind, spec.targets, u=spec.u,
                             epsilon=spec.epsilon, delta=delta)
            vals.append(protocols.mean_gate_fidelity(protocols.run_protocol(psi, s)))
        assert max(vals) - min(vals) <= 1e-10


def test_rotation_circuits_equivalent():
    rng = np.random.default_rng(76)
    for trial in range(100):
        n = int(rng.integers(1, 6))
        psi = qcore.random_pure_state(n, [76, trial])
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


def test_error_factorization_exact():
    # xi_j = sqrt(p_j) * A_j * ideal_j, as an exact vector identity
    rng = np.random.default_rng(77)
    for trial in range(80):
        n = int(rng.integers(2, 6))
        psi = qcore.random_pure_state(n, [77, trial])
        spec = random_spec(rng, n)
        res = protocols.run_protocol(psi, spec)
        if spec.kind in protocols.X_ERROR_KINDS:
            ekind, takes = ErrorKind.X_TYPE, (spec.targets[0],)
        else:
            ekind, takes = ErrorKind.ZZ_TYPE, spec.targets
        for j in range(2):
            a = protocols.error_operator(ekind, j, spec.epsilon, spec.delta)
            pred = np.sqrt(res.ideal_probabilities[j]) * qcore.apply_matrix(
                res.ideal_branches[j].amplitudes, a, takes, n
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
    for trial in range(120):
        n = int(rng.integers(2, 6))
        psi = qcore.random_pure_state(n, [78, trial])
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
            got = protocols.pre_measurement_state(psi, spec).amplitudes
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
        got = protocols.pre_measurement_state(psi, spec).amplitudes
        want = builder(spect_vecs, t1, t2, n)
        assert np.max(np.abs(got - want)) < 1e-12
