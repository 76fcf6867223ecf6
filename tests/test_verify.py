import json
import math

import numpy as np
import pytest

from adqcsim import entropy, linalg, stateio, verify

ZZ = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
MAX_MIXED = np.eye(4, dtype=complex) / 4.0

BELL = np.zeros(4, dtype=complex)
BELL[0] = BELL[3] = 1 / np.sqrt(2)
BELL_RHO = np.outer(BELL, BELL.conj())


# -------------------------------------------------------- relative entropy

def test_relative_entropy_self_is_zero():
    for i in range(10):
        rho = verify.random_density_matrix(2, [90, i])
        assert abs(verify.relative_entropy(rho, rho)) < 1e-10


def test_relative_entropy_vs_maximally_mixed():
    for i in range(20):
        rho = verify.random_density_matrix(2, [91, i])
        want = 2.0 - entropy.von_neumann(rho)
        assert verify.relative_entropy(rho, MAX_MIXED) == pytest.approx(want, abs=1e-10)


def test_relative_entropy_disjoint_support():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert verify.relative_entropy(zero, one) == math.inf


def test_relative_entropy_nonnegative():
    for i in range(30):
        rho = verify.random_density_matrix(2, [92, i])
        sigma = verify.random_density_matrix(2, [93, i])
        assert verify.relative_entropy(rho, sigma) >= -1e-10


def test_relative_entropy_dimension_mismatch():
    with pytest.raises(ValueError):
        verify.relative_entropy(np.eye(2) / 2, MAX_MIXED)


# ------------------------------------------------------------- dephasing

def test_dephasing_fixes_diagonal_states():
    rho = verify.rho_lambda(0.4)
    assert np.array_equal(verify.dephasing_map(rho), rho)


def test_dephasing_plus_plus():
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    psi = np.kron(plus, plus)
    rho = np.outer(psi, psi.conj())
    assert np.allclose(verify.dephasing_map(rho), MAX_MIXED, atol=1e-14)


def test_dephasing_bell():
    out = verify.dephasing_map(BELL_RHO)
    assert np.allclose(out, np.diag([0.5, 0, 0, 0.5]), atol=1e-14)
    assert np.trace(out) == np.trace(BELL_RHO)  # diagonal copied verbatim


def test_dephasing_requires_two_qubits():
    with pytest.raises(ValueError):
        verify.dephasing_map(np.eye(2) / 2)


# ----------------------------------------------------------- check slacks

def test_monotonicity_examples():
    assert abs(verify.check_monotonicity(verify.rho_lambda(0.3), MAX_MIXED)) < 1e-10
    assert verify.check_monotonicity(BELL_RHO, MAX_MIXED) == pytest.approx(1.0, abs=1e-10)


def test_interm_examples():
    assert abs(verify.check_interm(verify.rho_lambda(0.25))) < 1e-12
    assert verify.check_interm(BELL_RHO) == pytest.approx(1.0, abs=1e-10)


def test_jonas_examples():
    assert abs(verify.check_jonas(MAX_MIXED)) < 1e-12
    assert verify.check_jonas(BELL_RHO) == pytest.approx(1.0, abs=1e-10)


def test_slacks_nonnegative_randomized():
    for i in range(150):
        rho = verify.random_density_matrix(2, [94, i])
        assert verify.check_jonas(rho) >= -1e-9
        assert verify.check_interm(rho) >= -1e-9
        assert verify.check_monotonicity(rho, MAX_MIXED) >= -1e-9


def test_reduction_chain():
    # against sigma = 1/4: monotonicity slack == interm slack <= jonas slack
    for i in range(100):
        rho = verify.random_density_matrix(2, [95, i])
        s_mono = verify.check_monotonicity(rho, MAX_MIXED)
        s_interm = verify.check_interm(rho)
        s_jonas = verify.check_jonas(rho)
        assert abs(s_mono - s_interm) < 1e-10
        assert s_interm <= s_jonas + 1e-10


# ----------------------------------------------------- engineered states

@pytest.mark.parametrize("s_val", [0.0, 0.25, 0.36, 0.5, 0.75, 1.0])
def test_saturating_register_reduction(s_val):
    psi = verify.saturating_single_qubit_register(s_val, 3)
    rho = linalg.partial_trace(psi.amplitudes, [0])
    r = math.sqrt(1.0 - s_val)
    want = np.diag([(1 + r) / 2, (1 - r) / 2])
    assert np.max(np.abs(rho - want)) < 1e-12


def test_saturating_register_examples():
    bell = verify.saturating_single_qubit_register(1.0, 2)
    assert np.allclose(np.abs(bell.amplitudes) ** 2, [0.5, 0, 0, 0.5], atol=1e-14)
    prod = verify.saturating_single_qubit_register(0.0, 2)
    assert np.allclose(prod.amplitudes, [1, 0, 0, 0], atol=1e-14)
    rho = linalg.partial_trace(
        verify.saturating_single_qubit_register(0.36, 2).amplitudes, [0]
    )
    assert np.max(np.abs(rho - np.diag([0.9, 0.1]))) < 1e-12


def test_saturating_register_errors():
    with pytest.raises(ValueError):
        verify.saturating_single_qubit_register(1.5, 2)
    with pytest.raises(ValueError):
        verify.saturating_single_qubit_register(0.5, 1)


def test_bell_pair_register_reduction():
    rho = linalg.partial_trace(verify.bell_pair_register().amplitudes, [0, 1])
    assert np.array_equal(rho, MAX_MIXED)


def test_rho_lambda_correlator_exact_on_grid():
    for lam in np.linspace(0.0, 1.0, 21):
        assert entropy.correlator(verify.rho_lambda(float(lam)), ZZ) == 1.0


def test_rho_lambda_entropies():
    assert entropy.von_neumann(verify.rho_lambda(0.5)) == pytest.approx(1.0, abs=1e-12)
    assert entropy.von_neumann(verify.rho_lambda(0.3)) == pytest.approx(0.8813, abs=1e-3)
    assert entropy.von_neumann(verify.rho_lambda(0.0)) == pytest.approx(0.0, abs=1e-12)


def test_rho_lambda_domain():
    with pytest.raises(ValueError):
        verify.rho_lambda(-0.1)
    with pytest.raises(ValueError):
        verify.rho_lambda(1.0001)


def test_purified_rho_lambda():
    psi = verify.purified_rho_lambda(0.3)
    rho = linalg.partial_trace(psi.amplitudes, [0, 1])
    assert np.max(np.abs(rho - verify.rho_lambda(0.3))) < 1e-14


# ---------------------------------------------------- random density matrix

def test_random_density_matrix_basic():
    rho = verify.random_density_matrix(2, 123)
    assert rho.shape == (4, 4)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert linalg.hermiticity_defect(rho) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-12
    assert np.array_equal(rho, verify.random_density_matrix(2, 123))


def test_random_density_matrix_range():
    with pytest.raises(ValueError):
        verify.random_density_matrix(0, 1)
    with pytest.raises(ValueError):
        verify.random_density_matrix(4, 1)


def test_random_density_matrix_mean_purity():
    # induced ensemble with equal environment: E[Tr rho^2] = (d+K)/(dK+1) = 0.8
    total = 0.0
    n_samples = 5000
    for i in range(n_samples):
        rho = verify.random_density_matrix(1, [96, i])
        total += float(np.trace(rho @ rho).real)
    assert abs(total / n_samples - 0.8) < 0.02


# ---------------------------------------------------------------- campaigns

def test_default_config_unknown_name():
    with pytest.raises(ValueError):
        verify.default_config("nosuch")


def test_config_invariants():
    with pytest.raises(ValueError):
        verify.CampaignConfig("jonas", 0, 1, (0.1,), (0.0,), (2,), 1e-9)
    with pytest.raises(ValueError):
        verify.CampaignConfig("jonas", 10, 1, (0.1,), (0.0,), (2,), 0.0)
    with pytest.raises(ValueError):
        verify.CampaignConfig("jonas", 10, -1, (0.1,), (0.0,), (2,), 1e-9)
    for tolerance in (math.nan, math.inf):
        with pytest.raises(ValueError):
            verify.CampaignConfig("jonas", 10, 1, (0.1,), (0.0,), (2,), tolerance)


# (checks_run, max_violation, stats) of every campaign at samples=25, seed=11,
# so that a refactor which changes what a campaign draws or computes shows
_REPORTS_25_11 = {
    "bound_main": (25, -7.719272148876133e-05, {}),
    "bound_main2": (25, -0.0010351576521147043, {"min_sv2": 1.0756114426154695}),
    "bound_sv": (25, -7.719272148876133e-05, {}),
    "circuit_equivalence": (25, 3.376611507232129e-16, {}),
    "counterexample": (25, 0.0, {
        "max_sv2": 1.0,
        "min_sv2": 0.0,
        "note": "pair correlator is 1 for the whole family while its entropy "
        "sweeps [0, 1]: no entropy bound below 1 constrains the fidelity",
    }),
    "equality_oracle": (25, 1.2212453270876722e-15, {}),
    "interm": (25, -0.2525430334258929, {}),
    "jonas": (25, -0.3602568650636573, {}),
    "monotonicity": (25, -0.2525430334258929, {"random_sigma_checks": 25}),
    "saturation": (750, 1.1102230246251565e-15, {}),
}


@pytest.mark.parametrize("name", verify.CAMPAIGN_NAMES)
def test_campaigns_pass(name):
    config = verify.default_config(name, samples=25, seed=11)
    report = verify.run_campaign(config)
    assert report.passed, (name, report.max_violation)
    assert report.checks_run >= 1
    assert report.worst_case is None
    assert report.max_violation <= config.tolerance
    checks_run, max_violation, stats = _REPORTS_25_11[name]
    assert report.checks_run == checks_run
    assert report.stats == stats
    assert report.max_violation == pytest.approx(max_violation, rel=0, abs=1e-12)


def test_only_a_failing_worst_case_is_serialized(monkeypatch):
    dumped = []
    dumps = stateio.dumps_state

    def counted(*args, **kwargs):
        dumped.append(args)
        return dumps(*args, **kwargs)

    monkeypatch.setattr(stateio, "dumps_state", counted)
    assert verify.run_campaign(verify.default_config("bound_main", samples=10, seed=3)).passed
    assert dumped == []
    config = verify.default_config("equality_oracle", samples=10, seed=3, tolerance=1e-300)
    report = verify.run_campaign(config)
    assert not report.passed
    assert len(dumped) == 1
    assert report.worst_case["input_state"] == dumps(*dumped[0])


def _campaign_with(monkeypatch, bad_index, bad_value):
    """Swap in a campaign whose sample `bad_index` reports `bad_value`."""
    def sample(cfg, i):
        violation = bad_value if i == bad_index else -1.0 + 0.1 * i
        return verify._Sample(violation=violation, payload=lambda: {"sample_index": i})
    campaigns = dict(verify._CAMPAIGNS)
    campaigns["jonas"] = verify._Campaign(verify._by_samples, sample, {})
    monkeypatch.setattr(verify, "_CAMPAIGNS", campaigns)
    return verify.default_config("jonas", samples=8, seed=1, tolerance=1e-9)


@pytest.mark.parametrize("bad_value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("bad_index", [0, 3])
def test_campaign_fails_closed_on_non_finite_violation(monkeypatch, bad_index, bad_value):
    report = verify.run_campaign(_campaign_with(monkeypatch, bad_index, bad_value))
    assert not report.passed
    assert report.checks_run == 8
    assert report.worst_case == {"sample_index": bad_index}
    assert repr(report.max_violation) == repr(bad_value)
    data = json.loads(json.dumps(report.to_json_dict(), allow_nan=False))
    assert data["max_violation"] == repr(bad_value)
    assert data["passed"] is False


# Jacobi solves per campaign item: one per density matrix that is not
# already diagonal (dephased states, I/4, the rho_lambda family and the
# saturating registers are read off their diagonals).
SOLVES_PER_ITEM = {
    "bound_main": 1, "bound_sv": 1, "bound_main2": 1, "equality_oracle": 1,
    "interm": 1, "jonas": 1, "monotonicity": 2,
    "circuit_equivalence": 0, "counterexample": 0, "saturation": 0,
}


@pytest.mark.parametrize("name", verify.CAMPAIGN_NAMES)
def test_one_solve_per_density_matrix(monkeypatch, name):
    original = linalg.jacobi_eigh
    solves = []

    def counted(m, *args, **kwargs):
        solves.append(1)
        return original(m, *args, **kwargs)

    monkeypatch.setattr(linalg, "jacobi_eigh", counted)
    config = verify.default_config(name, samples=6, seed=13)
    report = verify.run_campaign(config)
    assert report.passed
    items = verify._CAMPAIGNS[name].item_count(config)
    assert len(solves) == SOLVES_PER_ITEM[name] * items


def test_campaign_unknown_name():
    config = verify.default_config("jonas")
    config.name = "bogus"
    with pytest.raises(ValueError):
        verify.run_campaign(config)


def test_campaign_deterministic_and_thread_invariant():
    config = verify.default_config("equality_oracle", samples=40, seed=5)
    a = verify.run_campaign(config, threads=1)
    b = verify.run_campaign(config, threads=1)
    c = verify.run_campaign(config, threads=4)
    dump = lambda r: json.dumps(r.to_json_dict(), sort_keys=True)
    assert dump(a) == dump(b) == dump(c)


def test_campaign_failure_reports_worst_case():
    config = verify.CampaignConfig(
        "equality_oracle", 30, 5, (0.3, 1.1), (0.0, 0.7), (2, 3), 1e-30
    )
    report = verify.run_campaign(config)
    assert not report.passed
    assert report.worst_case is not None
    assert "input_state" in report.worst_case
    # the serialized worst case is replayable
    from adqcsim import protocols, qcore, stateio
    state, _ = stateio.loads_state(report.worst_case["input_state"])
    spec = protocols.ProtocolSpec(
        protocols.ProtocolKind(report.worst_case["protocol"]),
        tuple(report.worst_case["targets"]),
        u=report.worst_case["u"],
        epsilon=report.worst_case["epsilon"],
        delta=report.worst_case["delta"],
    )
    rep = protocols.analyze(state, spec)
    replayed = abs(rep.simulated_F - rep.closed_form_F)
    assert replayed == pytest.approx(report.max_violation, abs=1e-12)


def test_bound_main2_filters_and_reports_min_sv2():
    config = verify.default_config("bound_main2", samples=60, seed=2)
    report = verify.run_campaign(config)
    assert report.passed
    assert report.stats["min_sv2"] >= 1.0
    assert report.checks_run + report.stats.get("filtered_below_domain", 0) == 60


def test_counterexample_campaign_stats():
    config = verify.default_config("counterexample", seed=8)
    report = verify.run_campaign(config)
    assert report.passed
    assert report.max_violation == 0.0
    assert report.checks_run == 21
    assert report.stats["min_sv2"] == pytest.approx(0.0, abs=1e-12)
    assert report.stats["max_sv2"] == pytest.approx(1.0, abs=1e-12)
    assert "note" in report.stats
