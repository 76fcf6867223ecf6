import numpy as np
import pytest
from hypothesis import given, strategies as st

from adqcsim import entropy, linalg, protocols, qcore, verify

ZZ = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def random_densities(n_qubits, keys):
    """verify.random_density_matrix(n_qubits, key) for each key, the keys
    drawn in one qcore.haar_states call."""
    return [
        linalg.partial_trace(psi, list(range(n_qubits)))
        for psi in qcore.haar_states(2 * n_qubits, keys)
    ]


# ---------------------------------------------------------------- purity

def test_purity_maximally_mixed():
    assert entropy.purity_entanglement(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)


def test_purity_pure_state():
    assert entropy.purity_entanglement(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)


def test_purity_example():
    assert entropy.purity_entanglement(np.diag([0.9, 0.1])) == pytest.approx(0.36, abs=1e-12)


def test_purity_matches_direct_recomputation():
    for rho in random_densities(1, [[60, i] for i in range(30)]):
        direct = 2.0 * (1.0 - float(np.trace(rho @ rho).real))
        assert entropy.purity_entanglement(rho) == pytest.approx(direct, abs=1e-12)


def test_purity_rejects_bad_inputs():
    with pytest.raises(ValueError):
        entropy.purity_entanglement(np.diag([0.7, 0.7]))  # trace != 1
    with pytest.raises(ValueError):
        entropy.purity_entanglement(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        entropy.purity_entanglement(np.array([[0.5, 0.5], [0.0, 0.5]]))  # non-Hermitian
    with pytest.raises(ValueError):
        entropy.purity_entanglement(np.eye(4) / 4)  # not single-qubit


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_density_rejects_non_finite(bad):
    # NaN makes every Hermiticity, trace and positivity comparison false
    with pytest.raises(ValueError, match="non-finite"):
        entropy.validate_density([[0.5, bad], [bad, 0.5]])
    with pytest.raises(ValueError, match="non-finite"):
        entropy.von_neumann(np.diag([bad, 1.0]))
    with pytest.raises(ValueError, match="non-finite"):
        entropy.purity_entanglement(np.diag([bad, 1.0]))


def test_validate_density_returns_its_eigenpairs():
    rho = verify.random_density_matrix(2, [64, 0])
    w, v = linalg.jacobi_eigh(rho)
    d = entropy.validate_density(rho)
    assert np.array_equal(d.eigenvalues, w) and d.eigenvectors is None
    assert np.array_equal(d.matrix, rho)
    assert entropy.validate_density(d, dims=(4,)) is d
    with pytest.raises(ValueError):
        entropy.validate_density(d, dims=(2,))
    for e in (entropy.validate_density(x, vectors=True) for x in (rho, d)):
        assert np.array_equal(e.eigenvalues, w) and np.array_equal(e.eigenvectors, v)
        assert np.array_equal(e.matrix, rho)


def test_eigenvectors_requested_of_a_density_without_them_are_solved_once(monkeypatch):
    d = entropy.validate_density(verify.random_density_matrix(2, [64, 1]))
    solves = []
    original = linalg._jacobi_kernel

    def counted(n, vectors):
        kernel = original(n, vectors)

        def solve(*args):
            solves.append(vectors)
            return kernel(*args)

        return solve

    monkeypatch.setattr(linalg, "_jacobi_kernel", counted)
    e = entropy.validate_density(d, vectors=True)
    assert solves == [True] and e.eigenvectors is not None
    assert entropy.validate_density(e, vectors=True) is e
    assert entropy.validate_density(e) is e
    assert solves == [True]


def test_diagonal_spectrum_is_the_kernels_without_a_solve(monkeypatch):
    # a dephased state's eigenpairs are read off its diagonal, in the
    # values and order the kernel returns for a diagonal matrix
    mats = [np.diag([0.1, 0.4, 0.2, 0.3]), verify.rho_lambda(0.3), np.eye(4) / 4,
            np.diag([0.5 + 1e-12j, 0.5, 0.0, 0.0]), verify.random_density_matrix(2, [64, 2])]
    rhos = [entropy.validate_density(np.array(mats), vectors=v) for v in (False, True)]
    w, v = linalg.jacobi_eigh(verify._dephased(rhos[0]).matrix)
    monkeypatch.setattr(linalg, "jacobi_eigh", None)  # any solve would raise
    monkeypatch.setattr(linalg, "_jacobi_kernel", None)
    values, pairs = verify._dephased(rhos[0]), verify._dephased(rhos[1])
    assert values.eigenvalues.tobytes() == w.tobytes() and values.eigenvectors is None
    assert pairs.eigenvalues.tobytes() == w.tobytes()
    assert pairs.eigenvectors.tobytes() == v.tobytes()


def test_non_convergence_fails_closed(monkeypatch):
    # a dense matrix needs more than one sweep; with one allowed, the solve
    # and the validation built on it raise instead of returning a spectrum
    rho = verify.random_density_matrix(2, [64, 3])
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    for vectors in (True, False):
        with pytest.raises(ArithmeticError):
            linalg.jacobi_eigh(rho, vectors=vectors)
        for m in (rho, rho[None]):
            with pytest.raises(ArithmeticError):
                entropy.validate_density(m, vectors=vectors)
    # a diagonal matrix still stops before the first sweep
    diagonal = entropy.validate_density(np.diag([0.75, 0.25]))
    assert np.array_equal(diagonal.eigenvalues, [0.25, 0.75])


def test_validated_stack_is_checked_once(monkeypatch):
    # the finiteness, Hermiticity and trace checks run once per stack; the
    # eigensolves that follow do not repeat them per matrix
    rhos = np.array(random_densities(2, [[65, i] for i in range(5)]))
    calls = []
    defect = linalg.hermiticity_defect

    def counted(m):
        calls.append(np.shape(m))
        return defect(m)

    monkeypatch.setattr(linalg, "hermiticity_defect", counted)
    stack = entropy.validate_density(rhos, dims=(4,))
    assert calls == [(5, 4, 4)]
    assert stack.eigenvalues.shape == (5, 4) and stack.eigenvectors is None
    with_vectors = entropy.validate_density(rhos, dims=(4,), vectors=True)
    assert calls == [(5, 4, 4)] * 2
    assert np.array_equal(with_vectors.eigenvalues, stack.eigenvalues)
    assert with_vectors.eigenvectors.shape == (5, 4, 4)


# ----------------------------------------------------------- von Neumann

def test_von_neumann_maximally_mixed_two_qubit():
    assert entropy.von_neumann(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)


def test_von_neumann_binary_example():
    val = entropy.von_neumann(np.diag([0.9, 0.1]))
    assert val == pytest.approx(0.4690, abs=1e-3)
    oracle = -(0.9 * np.log2(0.9) + 0.1 * np.log2(0.1))
    assert val == pytest.approx(oracle, abs=1e-12)


def test_von_neumann_rho_lambda():
    val = entropy.von_neumann(verify.rho_lambda(0.3))
    assert val == pytest.approx(0.8813, abs=1e-3)


def test_von_neumann_pure_is_zero():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    assert entropy.von_neumann(np.outer(bell, bell.conj())) == pytest.approx(0.0, abs=1e-12)


def test_von_neumann_range():
    for rho in random_densities(2, [[61, i] for i in range(20)]):
        val = entropy.von_neumann(rho)
        assert -1e-12 <= val <= 2.0 + 1e-10


def test_von_neumann_rejects_eight_dim():
    with pytest.raises(ValueError):
        entropy.von_neumann(np.eye(8) / 8)


# ------------------------------------------------------------ correlator

def test_correlator_plus_state():
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(plus, plus.conj())
    assert entropy.correlator(rho, qcore.gate("Z")) == pytest.approx(0.0, abs=1e-14)


def test_correlator_bell_zz():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert entropy.correlator(rho, ZZ) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 0.9])
def test_correlator_rho_lambda_is_exactly_one(lam):
    assert entropy.correlator(verify.rho_lambda(lam), ZZ) == 1.0


def test_correlator_errors():
    with pytest.raises(ValueError):
        entropy.correlator(np.eye(2) / 2, np.eye(4))
    with pytest.raises(ValueError):
        entropy.correlator(np.eye(2) / 2, np.array([[0, 1], [0, 0]], dtype=complex))


def test_correlator_and_bloch_length_read_a_density():
    rhos = np.array(random_densities(1, [[66, i] for i in range(3)]))
    stack = entropy.validate_density(rhos, dims=(2,))
    z = qcore.gate("Z")
    assert np.array_equal(entropy.correlator(stack, z), entropy.correlator(rhos, z))
    assert np.array_equal(entropy.bloch_length(stack), entropy.bloch_length(rhos))
    one = entropy.validate_density(rhos[1], dims=(2,))
    assert entropy.correlator(one, z) == entropy.correlator(rhos[1], z)
    assert entropy.bloch_length(one) == entropy.bloch_length(rhos[1])


def test_bloch_length_pure_and_mixed():
    assert entropy.bloch_length(np.diag([1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)
    assert entropy.bloch_length(np.eye(2) / 2) == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------------------ f, g

def test_f_endpoints_and_value():
    assert entropy.f(0.0) == 1.0
    assert entropy.f(1.0) == 0.0
    assert entropy.f(0.5) == pytest.approx(0.8113, abs=1e-4)


def test_g_endpoints_and_value():
    assert entropy.g(0.0) == 2.0
    assert entropy.g(1.0) == 1.0
    assert entropy.g(0.5) == pytest.approx(1.8113, abs=1e-4)
    assert entropy.g(0.5) == pytest.approx(1.0 + entropy.f(0.5), abs=1e-15)


def test_g_is_one_plus_f_on_grid():
    for c in np.linspace(0.0, 1.0, 1001):
        assert abs(entropy.g(c) - 1.0 - entropy.f(c)) < 1e-12


def test_f_strictly_decreasing():
    grid = np.linspace(0.0, 1.0, 200)
    vals = [entropy.f(c) for c in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_f_domain_errors():
    with pytest.raises(ValueError):
        entropy.f(-0.1)
    with pytest.raises(ValueError):
        entropy.f(1.1)


# ---------------------------------------------------------------- inverses

def test_f_inverse_endpoints_exact():
    assert entropy.f_inverse(0.0) == 1.0
    assert entropy.f_inverse(1.0) == 0.0


def test_g_inverse_endpoints_exact():
    assert entropy.g_inverse(1.0) == 1.0
    assert entropy.g_inverse(2.0) == 0.0


def test_f_inverse_example():
    assert entropy.f_inverse(0.4690) == pytest.approx(0.8, abs=1e-3)


def test_g_inverse_example():
    assert entropy.g_inverse(1.8113) == pytest.approx(0.5, abs=1e-3)


def test_f_round_trip_grid():
    for s in np.linspace(0.0, 1.0, 1001):
        assert abs(entropy.f(entropy.f_inverse(s)) - s) <= 1e-9


def test_g_round_trip_grid():
    for s in np.linspace(1.0, 2.0, 1001):
        assert abs(entropy.g(entropy.g_inverse(s)) - s) <= 1e-9


@given(UNIT)
def test_f_round_trip_property(s):
    assert abs(entropy.f(entropy.f_inverse(s)) - s) <= 1e-9


def test_g_inverse_domain_restriction():
    with pytest.raises(entropy.BoundDomainError):
        entropy.g_inverse(0.5)
    with pytest.raises(entropy.BoundDomainError):
        entropy.g_inverse(0.999)
    with pytest.raises(ValueError):
        entropy.g_inverse(2.1)
    with pytest.raises(ValueError):
        entropy.f_inverse(1.2)


def test_inverse_monotone_bound_factors():
    fvals = [1.0 - entropy.f_inverse(s) ** 2 for s in np.linspace(0.0, 1.0, 400)]
    assert all(b - a >= -1e-12 for a, b in zip(fvals, fvals[1:]))
    gvals = [1.0 - entropy.g_inverse(s) ** 2 for s in np.linspace(1.0, 2.0, 400)]
    assert all(b - a >= -1e-12 for a, b in zip(gvals, gvals[1:]))


def test_f_inverse_evaluates_f_at_most_8_times(monkeypatch):
    # the inversion evaluates the unchecked _f on iterates in [0, 1], where
    # it is the checked f bit for bit
    calls, iterates = [], []
    f = entropy._f

    def counted(c):
        calls.append(c)
        return f(c)

    monkeypatch.setattr(entropy, "_f", counted)
    for s in [*np.linspace(0.0, 1.0, 1001), 1e-300, 1e-16, 1e-12, 1.0 - 1e-12, 1.0 - 1e-16]:
        calls.clear()
        c = entropy.f_inverse(float(s))
        assert (1 if 0.0 < s < 1.0 else 0) <= len(calls) <= 8, (s, len(calls))
        assert abs(f(c) - s) <= 1e-12
        iterates += calls
    monkeypatch.undo()
    assert all(0.0 <= c <= 1.0 and repr(f(c)) == repr(entropy.f(c)) for c in iterates)


@given(UNIT)
def test_f_round_trip_residual_property(s):
    assert abs(entropy.f(entropy.f_inverse(s)) - s) <= 1e-12


@given(st.floats(min_value=1.0, max_value=2.0, allow_nan=False))
def test_g_inverse_is_f_inverse_of_s_minus_one(s):
    assert entropy.g_inverse(s) == entropy.f_inverse(s - 1.0)


def test_f_inverse_non_increasing_on_fine_grid():
    # the fig6 and fig7 curves are 1 - c^2 over these inverses
    cs = [entropy.f_inverse(s) for s in np.linspace(0.0, 1.0, 10001)]
    assert all(a >= b for a, b in zip(cs, cs[1:]))


# --------------------------------------------------- inequality properties

def test_single_qubit_bound_chain():
    z = qcore.gate("Z")
    for rho in random_densities(1, [[62, i] for i in range(200)]):
        s = entropy.purity_entanglement(rho)
        cz = entropy.correlator(rho, z)
        r = entropy.bloch_length(rho)
        sv = entropy.von_neumann(rho)
        assert cz * cz <= 1.0 - s + 1e-12
        assert abs((1.0 - s) - r * r) < 1e-10
        assert sv <= entropy.f(min(abs(cz), 1.0)) + 1e-10


def test_two_qubit_entropy_bound():
    for rho in random_densities(2, [[63, i] for i in range(200)]):
        czz = min(abs(entropy.correlator(rho, ZZ)), 1.0)
        assert entropy.von_neumann(rho) <= entropy.g(czz) + 1e-10


def test_report_parts_are_the_public_measures_bit_for_bit():
    # the two parts the protocols' analysis reads, _mixedness (one
    # validation and clamped spectrum) and _expectations (one pass over
    # the entries), give each matrix's public measures bit for bit, on a
    # one-qubit stack and on a two-qubit stack
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    ones = [linalg.partial_trace(bell, [0]), np.diag([0.9, 0.1]).astype(complex)]
    ones += random_densities(1, [[64, i] for i in range(20)])
    twos = [np.eye(4, dtype=complex) / 4] + random_densities(2, [[65, i] for i in range(20)])
    for rhos in (np.stack(ones), np.stack(twos)):
        density = entropy.validate_density(rhos)
        purity, sv = entropy._mixedness(rhos)
        values = entropy._expectations(rhos)
        assert sv.tobytes() == entropy.von_neumann(density).tobytes()
        if rhos.shape[-1] == 2:
            assert purity.tobytes() == entropy.purity_entanglement(density).tobytes()
            assert values[2].tobytes() == entropy.correlator(density, qcore.gate("Z")).tobytes()
            assert entropy._length(values).tobytes() == entropy.bloch_length(density).tobytes()
        else:
            assert purity is None and len(values) == 1
            assert values[0].tobytes() == entropy.correlator(density, ZZ).tobytes()
    with pytest.raises(ValueError):  # too large for either measure
        entropy._mixedness(np.eye(8)[None] / 8)


# every check of a value in a unit interval (or [1, 2]) takes a real number
_UNIT_INTERVAL_INPUTS = {
    "f": entropy.f,
    "f_inverse": entropy.f_inverse,
    "g": entropy.g,
    "g_inverse": entropy.g_inverse,
    "rho_lambda": verify.rho_lambda,
    "purified_rho_lambda": verify.purified_rho_lambda,
    "saturating_single_qubit_register": lambda s: verify.saturating_single_qubit_register(s, 2),
    "bound_purity": lambda s: protocols.bound_purity(s, 0.5),
    "closed_form_fidelity": lambda c: protocols.closed_form_fidelity(c, 0.3),
}


@pytest.mark.parametrize("value", [True, False, "0.3"])
@pytest.mark.parametrize("name", list(_UNIT_INTERVAL_INPUTS))
def test_unit_interval_inputs_reject_a_bool_or_a_string(name, value):
    # True used to run as 1 (f(True) gave -0.0) and "0.3" raised TypeError
    with pytest.raises(ValueError, match="not a real number"):
        _UNIT_INTERVAL_INPUTS[name](value)
