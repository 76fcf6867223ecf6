import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from adqcsim import cli, entropy, linalg, protocols, qcore, stateio, verify

import reference

ZZ = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
MAX_MIXED = np.eye(4, dtype=complex) / 4.0

BELL = np.zeros(4, dtype=complex)
BELL[0] = BELL[3] = 1 / np.sqrt(2)


def random_densities(n_qubits, keys):
    """verify.random_density_matrix(n_qubits, key) for each key, the keys
    drawn in one qcore.haar_states call."""
    return [
        linalg.partial_trace(psi, list(range(n_qubits)))
        for psi in qcore.haar_states(2 * n_qubits, keys)
    ]
BELL_RHO = np.outer(BELL, BELL.conj())


def dephased(rho):
    """E(rho) as check_monotonicity takes it: verify._dephased of the
    validated two-qubit state, the off-diagonal entries erased."""
    return verify._dephased(entropy.validate_density(rho, dims=(4,))).matrix


def density_row(given, b):
    """Row b of a stack given as an array or as a Density."""
    if not isinstance(given, entropy.Density):
        return given[b]
    vectors = None if given.eigenvectors is None else given.eigenvectors[b]
    return entropy.Density(given.matrix[b], given.eigenvalues[b], vectors)


# -------------------------------------------------------- relative entropy

def test_relative_entropy_self_is_zero():
    for rho in random_densities(2, [[90, i] for i in range(10)]):
        assert abs(verify.relative_entropy(rho, rho)) < 1e-10


def test_relative_entropy_vs_maximally_mixed():
    for rho in random_densities(2, [[91, i] for i in range(20)]):
        want = 2.0 - entropy.von_neumann(rho)
        assert verify.relative_entropy(rho, MAX_MIXED) == pytest.approx(want, abs=1e-10)


def test_relative_entropy_disjoint_support():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert verify.relative_entropy(zero, one) == math.inf


def test_relative_entropy_nonnegative():
    rhos = random_densities(2, [[92, i] for i in range(30)] + [[93, i] for i in range(30)])
    for rho, sigma in zip(rhos[:30], rhos[30:]):
        assert verify.relative_entropy(rho, sigma) >= -1e-10


def test_relative_entropy_dimension_mismatch():
    with pytest.raises(ValueError, match="different dimensions"):
        verify.relative_entropy(np.eye(2) / 2, MAX_MIXED)
    # one matrix pairs with a whole stack, two stacks row by row
    with pytest.raises(ValueError, match="different lengths"):
        verify.relative_entropy(np.stack([MAX_MIXED] * 2), np.stack([MAX_MIXED] * 3))


# ------------------------------------------------------------- dephasing

def test_dephasing_fixes_diagonal_states():
    rho = verify.rho_lambda(0.4)
    assert np.array_equal(dephased(rho), rho)


def test_dephasing_plus_plus():
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    psi = np.kron(plus, plus)
    rho = np.outer(psi, psi.conj())
    assert np.allclose(dephased(rho), MAX_MIXED, atol=1e-14)


def test_dephasing_bell():
    out = dephased(BELL_RHO)
    assert np.allclose(out, np.diag([0.5, 0, 0, 0.5]), atol=1e-14)
    assert np.trace(out) == np.trace(BELL_RHO)  # diagonal copied verbatim


def test_dephasing_requires_two_qubits():
    with pytest.raises(ValueError):
        dephased(np.eye(2) / 2)


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
    for rho in random_densities(2, [[94, i] for i in range(150)]):
        assert verify.check_jonas(rho) >= -1e-9
        assert verify.check_interm(rho) >= -1e-9
        assert verify.check_monotonicity(rho, MAX_MIXED) >= -1e-9


def test_reduction_chain():
    # against sigma = 1/4: monotonicity slack == interm slack <= jonas slack
    for rho in random_densities(2, [[95, i] for i in range(100)]):
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
    for i, rho in enumerate(random_densities(1, [[96, i] for i in range(n_samples)])):
        if i < 10:
            assert np.array_equal(rho, verify.random_density_matrix(1, [96, i]))
        total += float(np.trace(rho @ rho).real)
    assert abs(total / n_samples - 0.8) < 0.02


# ---------------------------------------------------------------- campaigns

def test_default_config_unknown_name():
    with pytest.raises(ValueError):
        verify.default_config("nosuch")


_DEFAULT_EPSILONS = tuple(float(x) for x in np.arange(0.0, np.pi, 0.1)) + (float(np.pi),)
_SATURATION_EPSILONS = (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi)

# (samples, tolerance, register_sizes, epsilon_grid) of every campaign's
# default config; every campaign draws delta from (0.0, 0.7, 2.3)
_DEFAULTS = {
    "equality_oracle": (1000, 1e-10, (2, 3, 4, 5), _DEFAULT_EPSILONS),
    "bound_main": (1000, 1e-9, (2, 3, 4, 5), _DEFAULT_EPSILONS),
    "bound_sv": (1000, 1e-9, (2, 3, 4, 5), _DEFAULT_EPSILONS),
    "bound_main2": (1000, 1e-9, (4, 5), _DEFAULT_EPSILONS),
    "circuit_equivalence": (200, 1e-12, (1, 2, 3, 4, 5), _DEFAULT_EPSILONS),
    "jonas": (1000, 1e-9, (2, 3, 4, 5), _DEFAULT_EPSILONS),
    "monotonicity": (1000, 1e-9, (2, 3, 4, 5), _DEFAULT_EPSILONS),
    "interm": (1000, 1e-9, (2, 3, 4, 5), _DEFAULT_EPSILONS),
    "saturation": (1, 1e-9, (2, 3, 4, 5), _SATURATION_EPSILONS),
    "counterexample": (21, 1e-15, (2, 3, 4, 5), _DEFAULT_EPSILONS),
}


@pytest.mark.parametrize("name", sorted(_DEFAULTS))
def test_default_config_is_pinned(name):
    config = verify.default_config(name)
    samples, tolerance, register_sizes, epsilon_grid = _DEFAULTS[name]
    assert config.name == name and config.seed == 42
    assert config.samples == samples
    assert config.tolerance == tolerance
    assert config.register_sizes == register_sizes
    assert config.epsilon_grid == epsilon_grid
    assert config.delta_grid == (0.0, 0.7, 2.3)


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


_VALID_CONFIG = dict(
    name="bound_main", samples=10, seed=1, epsilon_grid=(0.1,), delta_grid=(0.0,),
    register_sizes=(2,), tolerance=1e-9,
)


@pytest.mark.parametrize("field, value", [
    ("name", "nosuch"),
    ("name", None),
    ("epsilon_grid", 0.5),
    ("delta_grid", None),
    ("register_sizes", 2),
    ("seed", True),
    ("samples", True),
    ("samples", 2.5),
    ("register_sizes", ()),
    ("register_sizes", (2.5,)),
    ("register_sizes", (0,)),
    ("register_sizes", (linalg.MAX_QUBITS,)),
    ("delta_grid", ()),
    ("delta_grid", (0.0, math.nan)),
    ("epsilon_grid", (math.inf,)),
    ("epsilon_grid", (0.1, -math.inf)),
    ("seed", 1.9),
    ("tolerance", True),
    ("tolerance", "1e-9"),
    ("epsilon_grid", (True, "0.5")),
    ("epsilon_grid", ("0.5",)),
    ("delta_grid", (False,)),
    ("delta_grid", (0.0, 1j)),
])
def test_config_that_cannot_run_is_rejected_at_construction(field, value):
    # each of these used to be accepted and fail mid-run, some after
    # samples were drawn; a bool or string grid entry used to run as a
    # number
    with pytest.raises(ValueError, match=field):
        verify.CampaignConfig(**{**_VALID_CONFIG, field: value})
    if field in ("samples", "seed", "tolerance"):
        # default_config passes them on as given: it used to turn 2.5
        # samples into 2, and a seed of 1.9 or True into 1
        with pytest.raises(ValueError, match=field):
            verify.default_config("jonas", **{field: value})


def test_accepted_config_is_normalized():
    config = verify.CampaignConfig(**{
        **_VALID_CONFIG, "samples": np.int64(3), "seed": np.uint32(4),
        "register_sizes": [np.int8(1), 7], "epsilon_grid": [0], "delta_grid": np.array([0.5]),
    })
    assert (config.samples, config.seed, config.register_sizes) == (3, 4, (1, 7))
    assert type(config.samples) is int and type(config.seed) is int
    assert (config.epsilon_grid, config.delta_grid) == ((0.0,), (0.5,))
    assert verify.run_campaign(config).passed


# (checks_run, max_violation, stats) of every campaign at samples=25, seed=11,
# so that a refactor which changes what a campaign draws or computes shows
_REPORTS_25_11 = {
    "bound_main": (25, -8.881784197001252e-16, {}),
    "bound_main2": (25, -2.220446049250313e-16, {"min_sv2": 1.0257704399662324}),
    "bound_sv": (25, -8.881784197001252e-16, {}),
    "circuit_equivalence": (25, 2.779024842816778e-16, {}),
    "counterexample": (25, 0.0, {
        "max_sv2": 1.0,
        "min_sv2": 0.0,
        "note": "pair correlator is 1 for the whole family while its entropy "
        "sweeps [0, 1]: no entropy bound below 1 constrains the fidelity",
    }),
    "equality_oracle": (25, 7.771561172376096e-16, {}),
    "interm": (25, -0.25143198496654184, {}),
    "jonas": (25, -0.34281447225759387, {}),
    "monotonicity": (25, -0.6518852221179268, {}),
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


def _register(registers, p):
    """Item p's register from a chunk's (positions, stack) pairs."""
    (row,) = [stack[list(positions).index(p)] for positions, stack in registers if p in positions]
    return row


def _item(chunk, p) -> list:
    """Item p of a chunk, field by field, each array as its raw bytes: the
    index, its entry of every _Specs column, its register, or its row of
    each array field."""
    out = [chunk.indices[p]]
    for value in chunk[1:]:
        if isinstance(value, protocols._Specs):
            out.append([column[p].tobytes() for column in value])
        elif isinstance(value, list):
            out.append(_register(value, p).tobytes())
        elif value is not None:
            out.append(value[p].tobytes())
    return out


def _cut(chunk, p):
    """The chunk of item p alone, cut from a chunk's columns."""
    fields = [chunk.indices[p:p + 1]]
    for value in chunk[1:]:
        if isinstance(value, protocols._Specs):
            fields.append(value.take(slice(p, p + 1)))
        elif isinstance(value, list):
            fields.append([(np.array([0]), _register(value, p)[None])])
        else:
            fields.append(None if value is None else value[p:p + 1])
    return type(chunk)(*fields)


def _spec(specs, p) -> protocols.ProtocolSpec:
    """Row p of _Specs columns as a ProtocolSpec: a rotation's first target
    and u, a gate kind's two targets and no u."""
    kind, (first, second), u, eps, delta = (column[p].tolist() for column in specs)
    if protocols._ROTATION[kind]:
        return protocols.ProtocolSpec(protocols._KINDS[kind], (first,), u, eps, delta)
    return protocols.ProtocolSpec(protocols._KINDS[kind], (first, second), None, eps, delta)


def _campaign_with(monkeypatch, bad_index, bad_value):
    """Swap in a jonas campaign whose item `bad_index` evaluates to `bad_value`."""
    def evaluate(cfg, chunk):
        return [bad_value if i == bad_index else -1.0 + 0.1 * i for i in chunk.indices], {}
    campaign = dataclasses.replace(verify._CAMPAIGNS["jonas"], evaluate=evaluate)
    monkeypatch.setitem(verify._CAMPAIGNS, "jonas", campaign)
    return verify.default_config("jonas", samples=8, seed=1, tolerance=1e-9)


@pytest.mark.parametrize("bad_value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("bad_index", [0, 3])
def test_campaign_fails_closed_on_non_finite_violation(monkeypatch, bad_index, bad_value):
    config = _campaign_with(monkeypatch, bad_index, bad_value)
    report = verify.run_campaign(config)
    assert not report.passed
    assert report.checks_run == 8
    assert report.worst_case == verify._CAMPAIGNS["jonas"].draw(config, [bad_index]).payload()
    assert report.worst_case["sample_index"] == bad_index
    assert repr(report.max_violation) == repr(bad_value)
    data = json.loads(json.dumps(report.to_json_dict(), allow_nan=False))
    assert data["max_violation"] == repr(bad_value)
    assert data["passed"] is False


# Jacobi solves per campaign item: one per validated density matrix,
# diagonal ones (the rho_lambda family, the saturating registers) too;
# only the dephased states are read off their diagonals, and I/4 is solved
# once, at import.  equality_oracle reads no entropy, so it solves none.
# Every solve runs the rotation kernel through jacobi_eigh.
SOLVES_PER_ITEM = {
    "bound_main": 1, "bound_sv": 1, "bound_main2": 1, "equality_oracle": 0,
    "interm": 1, "jonas": 1, "monotonicity": 2,
    "circuit_equivalence": 0, "counterexample": 1, "saturation": 1,
}


def _count_solves(monkeypatch) -> list[bool]:
    # the `vectors` flag of every kernel solve from here on
    original = linalg._jacobi_kernel
    flags = []

    def counted(n, vectors):
        kernel = original(n, vectors)

        def solve(*args):
            flags.append(vectors)
            return kernel(*args)

        return solve

    monkeypatch.setattr(linalg, "_jacobi_kernel", counted)
    return flags


@pytest.mark.parametrize("name", verify.CAMPAIGN_NAMES)
def test_one_solve_per_density_matrix(monkeypatch, name):
    solves = _count_solves(monkeypatch)
    config = verify.default_config(name, samples=6, seed=13)
    report = verify.run_campaign(config)
    assert report.passed
    items = report.checks_run + report.stats.get("filtered_below_domain", 0)
    assert len(solves) == SOLVES_PER_ITEM[name] * items


# Kernel calls that build eigenvectors, per campaign item: only the random
# sigma of monotonicity, whose eigenvectors its cross term Tr(rho log2
# sigma) reads (I/4 is solved at import, the dephased states not at all).
VECTOR_SOLVES_PER_ITEM = {"monotonicity": 1}


@pytest.mark.parametrize("name", verify.CAMPAIGN_NAMES)
def test_eigenvectors_are_solved_only_where_read(monkeypatch, name):
    vector_flags = _count_solves(monkeypatch)
    report = verify.run_campaign(verify.default_config(name, samples=6, seed=13))
    assert report.passed
    items = report.checks_run + report.stats.get("filtered_below_domain", 0)
    assert sum(vector_flags) == VECTOR_SOLVES_PER_ITEM.get(name, 0) * items


# f inversions per campaign: one per check of the bound that inverts f or
# g, none where no check reads such a bound
@pytest.mark.parametrize("name", ["bound_main", "equality_oracle", "bound_sv", "bound_main2"])
def test_only_the_bounds_a_check_reads_are_computed(monkeypatch, name):
    original = entropy._solve_f
    inversions = []

    def counted(s):
        inversions.append(s)
        return original(s)

    monkeypatch.setattr(entropy, "_solve_f", counted)
    report = verify.run_campaign(verify.default_config(name, samples=40, seed=14))
    assert report.passed and report.checks_run > 0
    want = report.checks_run if name in ("bound_sv", "bound_main2") else 0
    assert len(inversions) == want
    if name == "bound_main2":
        assert report.stats["filtered_below_domain"] > 0


DENSITY_FUNCTIONS = {
    "validate_density": (lambda d: entropy.validate_density(d).eigenvalues, 2),
    "purity_entanglement": (entropy.purity_entanglement, 2),
    "von_neumann": (entropy.von_neumann, 4),
    "bloch_length": (entropy.bloch_length, 2),
    "relative_entropy rho": (lambda d: verify.relative_entropy(d, MAX_MIXED), 4),
    "relative_entropy sigma": (lambda d: verify.relative_entropy(MAX_MIXED, d), 4),
    "relative_entropy both": (lambda d: verify.relative_entropy(d, d), 2),
    "dephased": (dephased, 4),
    "check_monotonicity rho": (lambda d: verify.check_monotonicity(d, MAX_MIXED), 4),
    "check_monotonicity sigma": (lambda d: verify.check_monotonicity(MAX_MIXED, d), 4),
    "check_interm": (verify.check_interm, 4),
    "check_jonas": (verify.check_jonas, 4),
}


@pytest.mark.parametrize("rows", [0, 1, 3])
@pytest.mark.parametrize("name", sorted(DENSITY_FUNCTIONS))
def test_a_stack_gives_each_matrix_its_own_value(name, rows):
    # every measure and check takes one matrix or a stack, as an array or
    # a Density with or without eigenvectors, and gives a stack's rows the
    # values of its matrices taken one at a time
    fn, dim = DENSITY_FUNCTIONS[name]
    mats = random_densities(dim.bit_length() - 1, [[94, dim, i] for i in range(rows)])
    one = [fn(m) for m in mats]
    assert all(isinstance(v, float) for v in one) or name in ("validate_density", "dephased")
    stack = np.array(mats).reshape(rows, dim, dim)
    for given in (stack, *(entropy.validate_density(stack, vectors=v) for v in (False, True))):
        values = fn(given)
        assert isinstance(values, np.ndarray) and len(values) == rows
        for b, m in enumerate(mats):
            assert np.array_equal(values[b], one[b]), (name, b)
            assert np.array_equal(fn(entropy.validate_density(m)), one[b])
            assert np.array_equal(fn(density_row(given, b)), one[b])


@pytest.mark.parametrize("name", sorted(DENSITY_FUNCTIONS))
def test_density_functions_reject_bad_shapes_and_non_finite_entries(name):
    fn, dim = DENSITY_FUNCTIONS[name]
    good = np.eye(dim, dtype=complex) / dim
    non_finite = good.copy()
    non_finite[0, 0] = np.nan
    fn(good)
    for bad in (
        good[None, None],  # 4-d
        good[0],  # 1-d
        np.ones((dim, dim + 1)) / dim,  # not square
        np.eye(8) / 8,  # too large for every function
        non_finite,
        np.stack([good, non_finite]),
    ):
        with pytest.raises(ValueError):
            fn(bad)


@pytest.mark.parametrize("config", [None, "x", {}, object(), "jonas", verify.CampaignConfig])
def test_run_campaign_takes_a_campaign_config_only(config):
    # each of these used to raise AttributeError reading config.name
    with pytest.raises(ValueError, match="config .* is not a CampaignConfig"):
        verify.run_campaign(config)


def test_campaign_unknown_name():
    # rejected when the config is built, before any run
    with pytest.raises(ValueError, match="name"):
        dataclasses.replace(verify.default_config("jonas"), name="bogus")


_FROZEN = {
    "CampaignConfig": verify.default_config("jonas"),
    "ProtocolSpec": protocols.ProtocolSpec(
        protocols.ProtocolKind.ADQC_ROTATION_CZ, (0,), u=0.4, epsilon=0.3
    ),
}


@pytest.mark.parametrize("cls, field", [
    (name, f.name) for name, obj in _FROZEN.items() for f in dataclasses.fields(obj)
])
def test_checked_config_and_spec_are_frozen(cls, field):
    # a field set after construction would skip the checks of __post_init__
    obj = _FROZEN[cls]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, field, getattr(obj, field))


def test_campaign_deterministic():
    config = verify.default_config("equality_oracle", samples=40, seed=5)
    dump = lambda r: json.dumps(r.to_json_dict(), sort_keys=True)
    assert dump(verify.run_campaign(config)) == dump(verify.run_campaign(config))


def test_a_report_is_the_same_cold_and_after_every_other_campaign():
    # each campaign at --samples 5 --seed 11, at its tolerance and at 1e-300
    # (which draws the failing ones' worst cases again), run first with the
    # caches of a fresh process (no gather table, no compiled kernel),
    # then after all the others, forward and reversed
    configs = [
        verify.default_config(name, samples=5, seed=11, tolerance=tolerance)
        for name in verify.CAMPAIGN_NAMES for tolerance in (None, 1e-300)
    ]
    cold = []
    for config in configs:
        linalg._index_table.cache_clear()
        linalg._chain_tables.cache_clear()
        linalg._jacobi_kernel.cache_clear()
        cold.append(verify.run_campaign(config).to_json_dict())
    assert any(report["worst_case"] for report in cold)
    for order in (range(len(configs)), reversed(range(len(configs)))):
        for i in order:
            assert verify.run_campaign(configs[i]).to_json_dict() == cold[i], configs[i]


@pytest.mark.parametrize("name", verify.CAMPAIGN_NAMES)
def test_samples_are_independent_of_evaluation_order(name):
    # item i depends on (seed, i) alone, so drawing and evaluating the
    # chunks in reverse index order (each chunk drawn in reverse), or each
    # item alone in reverse, gives the same violations, items, payloads and
    # merged stats as evaluating the chunks forward
    config = verify.default_config(name, samples=6, seed=5)
    campaign = verify._CAMPAIGNS[name]
    count = campaign.items(config)
    chunks = [range(a, min(a + 4, count)) for a in range(0, count, 4)]

    def evaluate(chunk_order):
        out, stats = {}, {}
        for indices in chunk_order:
            chunk = campaign.draw(config, indices)
            violations, chunk_stats = campaign.evaluate(config, chunk)
            assert list(chunk.indices) == list(indices) and len(violations) == len(indices)
            verify._merge_stats(stats, chunk_stats)
            for p, (i, violation) in enumerate(zip(indices, violations)):
                out[i] = (violation, _item(chunk, p), _cut(chunk, p).payload())
        return [out[i] for i in range(count)], stats

    forward = evaluate(chunks)
    assert forward == evaluate([chunk[::-1] for chunk in reversed(chunks)])
    assert forward == evaluate([[i] for i in reversed(range(count))])
    assert len(forward[0]) == count >= 6
    assert [payload["sample_index"] for *_, payload in forward[0]] == list(range(count))


@pytest.mark.parametrize("name", verify.CAMPAIGN_NAMES)
def test_a_chunk_draw_is_each_item_drawn_alone(name):
    # a chunk's keys are hashed as arrays, and item i is still built from
    # its own streams: the same columns and register, bit for bit, as
    # drawing [i] alone, and a chunk of [i] cut from the chunk's columns
    # has the payload of [i] drawn alone
    config = verify.default_config(name, samples=12, seed=9)
    campaign = verify._CAMPAIGNS[name]
    a, b = 3, min(campaign.items(config), 40)  # saturation's first 40 of 360
    chunk = campaign.draw(config, range(a, b))
    assert list(chunk.indices) == list(range(a, b))
    for p, i in enumerate(range(a, b)):
        alone = campaign.draw(config, [i])
        assert _item(chunk, p) == _item(alone, 0)
        assert _cut(chunk, p).payload() == alone.payload()
    empty = campaign.draw(config, [])
    assert len(empty.indices) == 0
    for value in empty[1:]:
        if isinstance(value, protocols._Specs):
            assert all(len(column) == 0 for column in value)
        elif value is not None:
            assert len(value) == 0



@pytest.mark.parametrize("name", verify.CAMPAIGN_NAMES)
def test_each_item_is_drawn_once_and_a_failing_worst_case_once_more(monkeypatch, name):
    # each chunk is drawn in one call; the report keeps only the worst
    # index and draws that item again, alone, for the payload of a failing
    # report; a passing report draws nothing more
    campaign = verify._CAMPAIGNS[name]
    drawn = []

    def draw(cfg, indices):
        drawn.append(list(indices))
        return campaign.draw(cfg, indices)

    monkeypatch.setitem(verify._CAMPAIGNS, name, dataclasses.replace(campaign, draw=draw))
    # at a tolerance of 1e-300 the campaigns whose violation is an
    # absolute difference fail on roundoff; the others stay at or below 0
    failing = {"equality_oracle", "circuit_equivalence", "saturation"}
    for tolerance, passes in ((None, True), (1e-300, name not in failing)):
        config = verify.default_config(name, samples=6, seed=13, tolerance=tolerance)
        drawn.clear()
        report = verify.run_campaign(config)
        assert report.passed == passes
        count = campaign.items(config)
        chunks = [
            list(range(a, min(a + verify._CHUNK, count))) for a in range(0, count, verify._CHUNK)
        ]
        if passes:
            assert drawn == chunks and report.worst_case is None
        else:
            worst = report.worst_case["sample_index"]
            assert drawn == chunks + [[worst]]
            assert report.worst_case == campaign.draw(config, [worst]).payload()


def test_a_chunk_draw_hashes_only_its_seed_and_draws_a_register_size_once(monkeypatch):
    # a chunk's keys are hashed as arrays from its seed's hash, and its
    # registers of one size come from one qcore._haar call: a passing
    # bound_main run of 300 samples (three chunk draws, four register sizes
    # each) hashes one key, [seed], per chunk and no key per item
    hashed, registers = [], []
    keys, haar = qcore._keys, qcore._haar

    def counted_keys(given):
        hashed.append([list(key) for key in given])
        return keys(given)

    def counted_haar(n, given):
        registers.append(n)
        return haar(n, given)

    monkeypatch.setattr(qcore, "_keys", counted_keys)
    monkeypatch.setattr(qcore, "_haar", counted_haar)
    config = verify.default_config("bound_main", samples=300)
    report = verify.run_campaign(config)
    assert report.passed and report.checks_run == 300
    assert hashed == [[[config.seed]]] * 3  # once per chunk
    assert sorted(registers) == sorted([2, 3, 4, 5] * 3)


# (samples, runs of (chunk size, stack amplitudes)) whose reports must
# agree; None stands for every item in one chunk
_CHUNK_RUNS = [
    (40, [(1, 2**13), (7, 2**13), (32, 2**13), (None, 2**13)]),
    # crosses the default chunk boundary; the last run cuts every protocol
    # stack down to one draw
    (130, [(32, 2**13), (128, 2**13), (None, 2**13), (128, 1)]),
]


@pytest.mark.parametrize("name", verify.CAMPAIGN_NAMES)
def test_reports_do_not_depend_on_chunk_size(monkeypatch, name):
    # the tolerance fails every campaign that has a positive violation, so
    # the worst-case payload is compared too
    assert (verify._CHUNK, verify._STACK_AMPLITUDES) == (128, 2**13)
    for samples, runs in _CHUNK_RUNS:
        if name == "saturation":
            samples = -(-samples // 30)  # items are whole sweeps of 30
        config = verify.default_config(name, samples=samples, seed=7, tolerance=1e-300)
        items = verify._CAMPAIGNS[name].items(config)
        reports = []
        for chunk, amplitudes in runs:
            monkeypatch.setattr(verify, "_CHUNK", chunk or items)
            monkeypatch.setattr(verify, "_STACK_AMPLITUDES", amplitudes)
            report = verify.run_campaign(config).to_json_dict()
            reports.append(json.dumps(report, sort_keys=True))
        assert reports == [reports[0]] * len(runs), samples


# simulations of a campaign run, per register size: one per chunk and
# slice of at most _STACK_AMPLITUDES = 2^13 amplitudes, rows x 2^(n+1);
# circuit_equivalence's slices are sized for the two rows per draw its
# stacks hold, one per distinct gate list of the rotation kinds.
# Chunks hold 128 items.  Every simulation, run_protocol's and
# circuit_equivalence's tilted-only one, is one call of protocols._branches.
@pytest.mark.parametrize("name, sizes, samples, calls", [
    # each chunk of 128 + 128 + 44 items holds every default size
    ("bound_main", None, 300, {2: 3, 3: 3, 4: 3, 5: 3}),
    # every kind, both error kinds, in one stack per chunk: 128 + 72 items
    ("equality_oracle", (5,), 200, {5: 2}),
    # up to 32 registers of 7 qubits per stack: 32 + 32 + 32 + 4 draws
    ("equality_oracle", (7,), 100, {7: 4}),
    # 64 registers of 6 qubits per stack: 64 + 36 draws
    ("bound_main2", (6,), 100, {6: 2}),
    # 2^13 / (2 x 2^6) = 64 draws per stack: all 60 in one
    ("circuit_equivalence", (5,), 60, {5: 1}),
    # 16 draws per stack at 7 qubits: 16 + 9
    ("circuit_equivalence", (7,), 25, {7: 2}),
    # the purity registers hold 2 qubits, the Bell pairs 4: one chunk of 30 items
    ("saturation", None, 1, {2: 1, 4: 1}),
])
def test_one_simulation_per_register_size_and_slice(monkeypatch, name, sizes, samples, calls):
    original = protocols._branches
    stacks = []

    def counted(amplitudes, specs, bases):
        stacks.append(amplitudes.shape)
        return original(amplitudes, specs, bases)

    monkeypatch.setattr(protocols, "_branches", counted)
    config = verify.default_config(name, samples=samples, seed=13)
    if sizes is not None:
        config = dataclasses.replace(config, register_sizes=sizes)
    assert verify.run_campaign(config).checks_run > 0
    per_size = {}
    for rows, dim in stacks:
        assert rows * 2 * dim <= verify._STACK_AMPLITUDES
        n = linalg.n_qubits_of(dim)
        per_size[n] = per_size.get(n, 0) + 1
    assert per_size == calls


def _swap_czswap_wires(monkeypatch):
    # ADQC_ROTATION_CZSWAP's gate written as CZSWAP(ancilla, target), the
    # same circuit (CZ and SWAP are symmetric) but another gate list
    kind = protocols.ProtocolKind.ADQC_ROTATION_CZSWAP
    gates = (("CZSWAP", (protocols._ANCILLA, 0)),)
    row = dataclasses.replace(protocols._PROTOCOLS[kind], gates=gates)
    monkeypatch.setitem(protocols._PROTOCOLS, kind, row)
    chains = protocols._chains(list(protocols._PROTOCOLS.values()))
    monkeypatch.setattr(protocols, "_CHAINS", chains)
    monkeypatch.setattr(verify, "_EQUIVALENCE_RUNS", verify._shared_runs(verify._ROTATION_CODES))


@pytest.mark.parametrize("swapped, runs", [
    # ONEWAY_ROTATION is written as CZSWAP: its run is ADQC_ROTATION_CZSWAP's
    (False, ["ONEWAY_ROTATION", "ADQC_ROTATION_CZ"]),
    # a kind whose gate list differs gets its own run
    (True, ["ONEWAY_ROTATION", "ADQC_ROTATION_CZ", "ADQC_ROTATION_CZSWAP"]),
])
def test_kinds_that_share_a_gate_list_share_one_run(monkeypatch, swapped, runs):
    if swapped:
        _swap_czswap_wires(monkeypatch)
    original = protocols._branches
    stacks = []

    def counted(amplitudes, specs, bases):
        stacks.append(np.bincount(specs.kind, minlength=len(protocols._KINDS)))
        return original(amplitudes, specs, bases)

    monkeypatch.setattr(protocols, "_branches", counted)
    config = verify.default_config("circuit_equivalence", samples=60, seed=5)
    chunk = verify._draw_equivalence(config, range(60))
    worst, _ = verify._evaluate_equivalence(config, chunk)
    # every stack holds each run's rows, as many per run as it has items
    codes = [protocols._CODES[protocols.ProtocolKind(name)] for name in runs]
    assert sum(int(rows[codes[0]]) for rows in stacks) == len(worst) == 60
    for rows in stacks:
        assert rows.nonzero()[0].tolist() == codes and len(set(rows[codes].tolist())) == 1
    slices = len(stacks)
    # each item's worst distance is the largest over the pairs of distinct
    # gate lists, each run alone
    for p, value in enumerate(worst):
        spec, state = _spec(chunk.specs, p), _register(chunk.registers, p)
        branches = [
            protocols.run_protocol(state, dataclasses.replace(spec, kind=protocols._KINDS[code]))
            .inaccurate_branches for code in codes
        ]
        assert value == max(
            float(qcore.phase_aligned_max_diff(a, b).max())
            for a, b in itertools.combinations(branches, 2)
        )

    # with each row's branches replaced by its kind's code, the arrays that
    # qcore._aligned_diff compares show which runs they pair: every pair of
    # distinct runs once, in each stack, and no run with itself
    def tagged(amplitudes, specs, bases):
        out = original(amplitudes, specs, bases)
        return np.broadcast_to(specs.kind.reshape(-1, *[1] * (out.ndim - 1)), out.shape) + 0j

    aligned_diff, calls = qcore._aligned_diff, []

    def compared(a, b):
        calls.append([(set(x.real.flat), set(y.real.flat)) for x, y in zip(a, b)])
        return aligned_diff(a, b)

    monkeypatch.setattr(protocols, "_branches", tagged)
    monkeypatch.setattr(qcore, "_aligned_diff", compared)
    verify._evaluate_equivalence(config, chunk)
    pairs = [({a}, {b}) for a, b in itertools.combinations(codes, 2)]
    assert calls == [pairs] * slices


@pytest.mark.parametrize("kind", list(protocols.ProtocolKind))
def test_analyze_matches_the_chunked_evaluation(kind):
    # analyze of one register is its row of the chunk pass's columns, bit
    # for bit, its bounds those the chunk evaluates on their columns
    config = verify.default_config("equality_oracle", samples=40, seed=3)
    chunk = verify._draw_protocol(config, range(40), kinds=(kind,))
    order, checks = verify._analyze_draws(chunk, correlators=True, entropies=True)
    bounds = {}
    for name in ("purity_bound", "sv_bound", "sv2_bound"):
        rows, values = protocols._checked_bounds(name, checks)
        bounds[name] = dict(zip(rows.tolist(), values.tolist()))
    lengths = entropy._length(checks.expectations)
    for row, p in enumerate(order.tolist()):
        state = qcore.PureState.from_vector(_register(chunk.registers, p))
        rep = protocols.analyze(state, _spec(chunk.specs, p))
        assert rep.simulated_F == checks.fidelity[row]
        assert rep.closed_form_F == checks.closed[row]
        assert rep.correlator_used == checks.correlator[row]
        assert rep.sin_half == checks.sin_half[row]
        assert rep.bounds == {name: on[row] for name, on in bounds.items() if row in on}
        one_qubit = not math.isnan(checks.purity[row])
        assert one_qubit == (kind in protocols.X_ERROR_KINDS)
        assert rep.entanglement == entropy.EntanglementReport(
            checks.purity[row] if one_qubit else None, checks.von_neumann[row],
            checks.expectations[-1, row], lengths[row] if one_qubit else None,
        )


@pytest.mark.parametrize("name, samples, calls", [
    # three chunks of every default size (2-5), each holding both error
    # kinds; the closed form reads no entropy, so nothing is validated
    ("equality_oracle", 300, 0),
    # bit-flip kinds only: one call per chunk
    ("bound_sv", 300, 3),
    # both error kinds, the purity registers (2 qubits) and the Bell pairs
    # (4), in one chunk
    ("saturation", 1, 2),
])
def test_a_chunk_makes_one_report_call_per_error_kind(monkeypatch, name, samples, calls):
    # the reductions of every register size of a chunk are validated and
    # solved in one entropy._mixedness call per error kind, whatever its
    # stacks, where the campaign reads an entropy
    original = entropy._mixedness
    shapes = []

    def counted(rhos):
        shapes.append(rhos.shape)
        return original(rhos)

    monkeypatch.setattr(entropy, "_mixedness", counted)
    report = verify.run_campaign(verify.default_config(name, samples=samples, seed=21))
    assert len(shapes) == calls
    assert sum(rows for rows, _, _ in shapes) == (report.checks_run if calls else 0)


@pytest.mark.parametrize("name, samples, calls", [
    # three chunks, each holding both error kinds
    ("equality_oracle", 300, 6),
    # the bound campaigns and saturation read entropies, never a correlator
    ("bound_main", 300, 0),
    ("bound_sv", 300, 0),
    ("bound_main2", 300, 0),
    ("saturation", 1, 0),
])
def test_correlators_are_taken_once_per_chunk_and_error_kind_where_read(
    monkeypatch, name, samples, calls
):
    # entropy._expectations runs once per chunk and error kind where the
    # closed form reads a correlator, over every row of that kind
    original = entropy._expectations
    shapes = []

    def counted(rhos):
        shapes.append(rhos.shape)
        return original(rhos)

    monkeypatch.setattr(entropy, "_expectations", counted)
    report = verify.run_campaign(verify.default_config(name, samples=samples, seed=21))
    assert report.passed
    assert len(shapes) == calls
    assert sum(rows for rows, _, _ in shapes) == (report.checks_run if calls else 0)


@pytest.mark.parametrize("defect", ["trace", "nan"])
def test_the_oracle_fails_closed_on_a_reduction_it_does_not_validate(monkeypatch, defect):
    # equality_oracle solves no reduction, so no validate_density reads
    # one: a reduction whose trace is 1 + 1e-6, or one with a NaN entry,
    # must still raise or fail the report
    original = linalg._reduce

    def bad(rows, keeps):
        rho = original(rows, keeps)
        if defect == "trace":
            return rho * (1.0 + 1e-6)
        rho[0, 0, 0] = math.nan
        return rho

    monkeypatch.setattr(linalg, "_reduce", bad)
    try:
        report = verify.run_campaign(verify.default_config("equality_oracle", samples=40, seed=5))
    except ValueError:
        return
    assert not report.passed and report.max_violation > report.config.tolerance


def test_monotonicity_checks_its_random_sigma_in_one_call(monkeypatch):
    # each chunk's B rows meet their own random sigma in one
    # check_monotonicity call; sigma = I/4 is not checked again, as its
    # slack is interm's (tests/test_symbolic.py proves the identity)
    campaign = verify._CAMPAIGNS["monotonicity"]
    assert campaign.evaluate.func is verify._evaluate_density
    assert campaign.evaluate.keywords == {"slacks": verify.check_monotonicity}
    config = verify.default_config("monotonicity", samples=200, seed=3)
    report = verify.run_campaign(config)
    calls = []

    def counted(rho, sigma):
        calls.append((rho.matrix, sigma.matrix))
        return verify.check_monotonicity(rho, sigma)

    def evaluate(cfg, chunk):
        return verify._evaluate_density(cfg, chunk, slacks=counted)

    monkeypatch.setitem(verify._CAMPAIGNS, "monotonicity", dataclasses.replace(campaign, evaluate=evaluate))
    assert verify.run_campaign(config) == report and report.stats == {}
    assert [len(rho) for rho, _ in calls] == [128, 72]
    for a, (rho, sigma) in zip((0, 128), calls):
        chunk = campaign.draw(config, range(a, a + len(rho)))
        states = np.concatenate([chunk.purifications, chunk.sigmas])
        reduced = linalg.partial_trace(states, [(0, 1)] * len(states))
        assert np.array_equal(rho, reduced[:len(rho)]) and np.array_equal(sigma, reduced[len(rho):])


@pytest.mark.parametrize("seed", [42, 108])
def test_monotonicity_at_the_maximally_mixed_state_is_interm_on_every_item(seed):
    # the identity tests/test_symbolic.py proves, D(rho||I/4) -
    # D(E(rho)||I/4) = H(diag rho) - S(rho), within float error on every
    # item of the monotonicity campaign's chunks at its default count
    config = verify.default_config("monotonicity", seed=seed)
    campaign = verify._CAMPAIGNS["monotonicity"]
    for a in range(0, config.samples, verify._CHUNK):
        chunk = campaign.draw(config, range(a, min(a + verify._CHUNK, config.samples)))
        rhos = linalg.partial_trace(chunk.purifications, [(0, 1)] * len(chunk.indices))
        rho = entropy.validate_density(rhos, dims=(4,))
        gap = verify.check_monotonicity(rho, MAX_MIXED) - verify.check_interm(rho)
        assert abs(gap).max() <= 1e-14


def test_saturation_builds_its_registers_once_per_process(monkeypatch):
    # the six fixed registers are read-only arrays built at import, the
    # purity registers as one (5, 4) table; no item builds one, and a
    # chunk's rows are the table's rows and the Bell pair
    want = [verify.saturating_single_qubit_register(s, 2).amplitudes for s in verify._SATURATION_S]
    bell = verify.bell_pair_register().amplitudes

    def built(*args):
        raise AssertionError("a register was built for an item")

    monkeypatch.setattr(verify, "saturating_single_qubit_register", built)
    monkeypatch.setattr(verify, "bell_pair_register", built)
    table = verify._SATURATION_REGISTERS
    assert table.shape == (5, 4) and table.tobytes() == np.array(want).tobytes()
    assert verify._BELL_PAIR.tobytes() == bell.tobytes()
    assert not table.flags.writeable and not verify._BELL_PAIR.flags.writeable
    config = verify.default_config("saturation", samples=2, seed=3)
    assert verify.run_campaign(config).passed
    sweep = verify._saturation_sweep(config)
    chunk = verify._draw_saturation(config, range(sweep))
    rows = {_register(chunk.registers, p).tobytes() for p in range(sweep)}
    assert rows == {r.tobytes() for r in table} | {bell.tobytes()}
    # a failing report serializes its worst item from the shared register
    failing = verify.run_campaign(dataclasses.replace(config, tolerance=1e-300))
    assert not failing.passed and failing.worst_case["input_state"]


def test_density_checks_match_the_chunked_evaluation():
    # a density campaign's chunk calls the public checks on its stacks
    config = verify.default_config("monotonicity", samples=40, seed=3)
    chunk = verify._draw_density(config, range(40), with_sigma=True)
    states = np.concatenate([chunk.purifications, chunk.sigmas])
    rhos = linalg.partial_trace(states, [(0, 1)] * 80)
    stack = entropy.validate_density(rhos, dims=(4,), vectors=True)
    values = entropy.validate_density(rhos, dims=(4,))
    assert values.eigenvectors is None
    assert np.array_equal(values.eigenvalues, stack.eigenvalues)
    for m, w, v in zip(rhos, stack.eigenvalues, stack.eigenvectors):
        one = entropy.validate_density(m, vectors=True)
        assert np.array_equal(one.eigenvalues, w) and np.array_equal(one.eigenvectors, v)
        one = entropy.validate_density(m)
        assert np.array_equal(one.eigenvalues, w) and one.eigenvectors is None
    # as in a monotonicity chunk: rho values only, sigma with eigenvectors
    rho = entropy.validate_density(rhos[:40], dims=(4,))
    sigma = entropy.validate_density(rhos[40:], dims=(4,), vectors=True)
    assert np.array_equal(rho.eigenvalues, values.eigenvalues[:40])
    assert np.array_equal(sigma.eigenvectors, stack.eigenvectors[40:])
    chunked = {
        "interm": verify.check_interm(rho),
        "jonas": verify.check_jonas(rho),
        "sigma": verify.check_monotonicity(rho, sigma),
        "relative": verify.relative_entropy(rho, sigma),
    }
    for b in range(40):
        r, s = rhos[b], rhos[40 + b]
        single = {
            "interm": verify.check_interm(r),
            "jonas": verify.check_jonas(r),
            "sigma": verify.check_monotonicity(r, s),
            "relative": verify.relative_entropy(r, s),
        }
        for name, value in single.items():
            assert abs(value - chunked[name][b]) <= 1e-15, (name, b)
    # a campaign's samples are its chunk's negated slacks
    for name, slacks in (
        ("interm", chunked["interm"]),
        ("jonas", chunked["jonas"]),
        ("monotonicity", chunked["sigma"]),
    ):
        cfg = verify.default_config(name, samples=40, seed=3)
        campaign = verify._CAMPAIGNS[name]
        violations, _ = campaign.evaluate(cfg, campaign.draw(cfg, range(40)))
        assert violations == (-np.asarray(slacks)).tolist()


def test_counterexample_draws_lambda_without_a_grid(monkeypatch):
    # a huge sample count costs nothing before the first check; only
    # three items are evaluated, never the campaign
    def no_grid(*args, **kwargs):
        raise AssertionError("np.linspace called")

    monkeypatch.setattr(np, "linspace", no_grid)
    samples = 10**12
    config = verify.default_config("counterexample", samples=samples, seed=1)
    campaign = verify._CAMPAIGNS["counterexample"]
    ends = campaign.draw(config, [0, samples - 1])
    assert ends.lam.tolist() == [0.0, 1.0]
    alone = [campaign.draw(config, [i]) for i in ends.indices]
    assert [campaign.evaluate(config, end)[1] for end in alone] == [
        {"min_sv2": 0.0, "max_sv2": 0.0}
    ] * 2
    assert [end.payload()["sample_index"] for end in alone] == [0, samples - 1]
    violations, stats = campaign.evaluate(config, campaign.draw(config, [1]))
    assert violations == [0.0]
    assert 0.0 < stats["min_sv2"] == stats["max_sv2"] < 1e-10
    assert campaign.draw(config, [1, samples - 1]).lam.tolist() == [1.0 / (samples - 1), 1.0]


def test_counterexample_lambda_is_linspace_bit_for_bit():
    for samples in (1, *range(2, 400), 1000, 4097, 65536):
        grid = np.linspace(0.0, 1.0, max(samples, 2))
        config = verify.default_config("counterexample", samples=samples)
        got = verify._draw_lambda(config, range(len(grid))).lam
        assert got.tobytes() == grid.tobytes(), samples


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


def test_campaign_without_checks_fails():
    # the one sample falls below the S_v2 >= 1 domain and is filtered out
    report = verify.run_campaign(verify.default_config("bound_main2", samples=1, seed=16))
    assert report.stats == {"filtered_below_domain": 1}
    assert report.checks_run == 0
    assert not report.passed
    assert report.worst_case is None


@pytest.mark.parametrize("name", verify.CAMPAIGN_NAMES)
def test_campaign_with_empty_grid_fails(name):
    # an empty epsilon_grid is rejected when the config is built, as an
    # empty delta_grid is; a campaign that draws from it used to run no
    # check and fail only in its report
    for field in ("epsilon_grid", "delta_grid"):
        with pytest.raises(ValueError, match=f"{field} must not be empty"):
            dataclasses.replace(verify.default_config(name), **{field: ()})


def test_counterexample_campaign_stats():
    config = verify.default_config("counterexample", seed=8)
    report = verify.run_campaign(config)
    assert report.passed
    assert report.max_violation == 0.0
    assert report.checks_run == 21
    assert report.stats["min_sv2"] == pytest.approx(0.0, abs=1e-12)
    assert report.stats["max_sv2"] == pytest.approx(1.0, abs=1e-12)
    assert "note" in report.stats


def test_counterexample_fails_if_the_sv2_bound_takes_an_entropy_below_its_domain(
    monkeypatch, capsys
):
    # every rho_lambda draw has S_v2 <= 1, where bound_sv2 must raise
    # BoundDomainError; one that returns a bound instead makes the item a
    # violation of 1.0, and the campaign fails
    monkeypatch.setattr(protocols, "bound_sv2", lambda s_v2, epsilon: 1.0)
    report = verify.run_campaign(verify.default_config("counterexample", seed=8))
    assert not report.passed
    assert report.max_violation == 1.0
    assert cli.main(["verify", "counterexample"]) == 1
    assert capsys.readouterr().out.startswith("FAIL counterexample:")


def test_counterexample_validates_each_chunk_in_one_call(monkeypatch):
    # one jacobi_eigh call per chunk of rho_lambda rows, whose S_v2 are
    # von_neumann's, bit for bit
    samples = 2 * verify._CHUNK + 3
    config = verify.default_config("counterexample", samples=samples, seed=1)
    campaign = verify._CAMPAIGNS["counterexample"]
    sv2s = [
        entropy.von_neumann(verify.rho_lambda(lam))
        for lam in campaign.draw(config, range(samples)).lam.tolist()
    ]
    original = linalg.jacobi_eigh
    calls = []

    def counted(m, *args, **kwargs):
        calls.append(len(m))
        return original(m, *args, **kwargs)

    monkeypatch.setattr(linalg, "jacobi_eigh", counted)
    report = verify.run_campaign(config)
    assert report.passed and report.checks_run == samples
    assert calls == [verify._CHUNK, verify._CHUNK, 3]
    for a in range(0, samples, verify._CHUNK):
        chunk = sv2s[a:a + verify._CHUNK]
        stats = campaign.evaluate(config, campaign.draw(config, range(a, a + len(chunk))))[1]
        assert repr(stats) == repr({"min_sv2": min(chunk), "max_sv2": max(chunk)})


@pytest.mark.parametrize("name", ["bound_main", "circuit_equivalence", "monotonicity"])
def test_a_passing_campaign_builds_no_pure_state(monkeypatch, name):
    # draws carry their Haar registers as plain vectors; only a failing
    # report's worst case is wrapped, to be serialized
    built = []
    post_init = qcore.PureState.__post_init__

    def counted(self):
        built.append(self.n_qubits)
        post_init(self)

    monkeypatch.setattr(qcore.PureState, "__post_init__", counted)
    report = verify.run_campaign(verify.default_config(name, samples=150, seed=4))
    assert report.passed and report.checks_run == 150
    assert built == []
    if name == "circuit_equivalence":
        # roundoff fails it at this tolerance; its one worst case is wrapped
        config = verify.default_config(name, samples=5, seed=4, tolerance=1e-300)
        assert not verify.run_campaign(config).passed
        assert len(built) == 1


def test_bound_minus_closed_form_is_sin_squared_times_kappa():
    # F_closed = 1 - (1 - c^2) sin^2(e/2) and each one-qubit bound is
    # 1 - m(S) sin^2(e/2), so bound - F_closed = sin^2(e/2) kappa with
    # kappa = 1 - c^2 - m(S), a function of the target's reduced state
    # alone; for the purity measure S = 1 - r^2, so kappa = r^2 - c^2
    config = verify.default_config("bound_main", samples=300, seed=42)
    chunk = verify._draw_protocol(config, range(300), kinds=protocols.X_ERROR_KINDS)
    assert {stack.shape[1] for _, stack in chunk.registers} == {4, 8, 16, 32}  # n = 2..5
    _, checks = verify._analyze_draws(chunk, correlators=True, entropies=True)
    se, c = checks.sin_half, checks.correlator
    for name in ("purity_bound", "sv_bound"):
        rows, entropies = protocols._bound_entropies(name, checks)
        assert rows.tolist() == list(range(300))
        _, bounds = protocols._checked_bounds(name, checks)
        kappa = 1.0 - c * c - protocols._measures(name, entropies)
        assert abs(bounds - checks.closed - se * se * kappa).max() <= 1e-15
    _, purity = protocols._bound_entropies("purity_bound", checks)
    r = entropy._length(checks.expectations)
    assert abs(1.0 - c * c - purity - (r ** 2 - c * c)).max() <= 1e-14


def test_sv_and_purity_kappas_differ_by_no_more_than_the_f_inversion_error():
    # for a one-qubit reduction with Bloch length r, S = 1 - r^2 and
    # f^-1(S_v) = r, so kappa_sv - kappa_purity = f^-1(S_v)^2 - r^2.  The
    # inversion stops within _INVERSE_RESIDUAL of S_v, and |df/d(c^2)| =
    # artanh(c) / (2 c ln 2) >= 1 / (2 ln 2) on [0, 1), so c^2 is off by at
    # most 2 ln 2 times the residual; 1e-14 covers the float error of S
    # and S_v
    bound = 2.0 * math.log(2.0) * entropy._INVERSE_RESIDUAL + 1e-14
    config = verify.default_config("bound_main", samples=300, seed=42)
    chunk = verify._draw_protocol(config, range(300), kinds=protocols.X_ERROR_KINDS)
    _, checks = verify._analyze_draws(chunk, entropies=True)
    rows, s = protocols._bound_entropies("purity_bound", checks)
    sv_rows, v = protocols._bound_entropies("sv_bound", checks)
    assert rows.tolist() == sv_rows.tolist() == list(range(300))
    gaps = protocols._measures("sv_bound", v) - protocols._measures("purity_bound", s)
    assert abs(gaps).max() <= bound
    r = np.linspace(0.0, 1.0, 2001)
    rhos = np.zeros((len(r), 2, 2), dtype=complex)
    rhos[:, 0, 0], rhos[:, 1, 1] = (1.0 + r) / 2.0, (1.0 - r) / 2.0
    rhos = entropy.validate_density(rhos)
    s, v = entropy.purity_entanglement(rhos), entropy.von_neumann(rhos)
    gaps = protocols._measures("sv_bound", v) - protocols._measures("purity_bound", s)
    assert abs(gaps).max() <= bound


def test_jonas_slack_splits_into_the_interm_slack_and_two_grouping_terms():
    # with p the diagonal of a two-qubit rho and q = p00 + p11, the
    # two-qubit bound's slack is the interm slack plus
    # q (1 - h(p00/q)) + (1 - q) (1 - h(p01/(1 - q))), each >= 0 as h <= 1
    def h(x):
        return -sum(t * math.log2(t) for t in (x, 1.0 - x) if t > 0.0)

    for i in range(200):
        rho = verify.random_density_matrix(2, [5, i])
        p = rho.diagonal().real
        q = p[0] + p[3]
        grouping = (q * (1.0 - h(p[0] / q)), (1.0 - q) * (1.0 - h(p[1] / (1.0 - q))))
        assert min(grouping) >= 0.0
        identity = verify.check_jonas(rho) - verify.check_interm(rho) - sum(grouping)
        assert abs(identity) <= 1e-14


def test_a_protocol_draw_reads_its_words_as_the_reference_does():
    # words 0-6 of [seed, i]: the kind, the register size, two distinct
    # targets (the first twice for a rotation), u (0.0 for a gate kind),
    # epsilon and delta; the register is [seed, i, 1]'s.  Each column entry
    # is the Python reference's reading of the word, bit for bit
    config = verify.default_config("equality_oracle", samples=300, seed=5)
    codes = [protocols._CODES[kind] for kind in protocols._KINDS]
    pairs = set()
    chunk = verify._draw_protocol(config, range(300))
    assert [column.dtype for column in chunk.specs] == [np.intp, np.intp] + [np.float64] * 3
    for p, i in enumerate(chunk.indices):
        w = reference.words([5, i], 7)
        code = codes[reference.choice(w[0], len(codes))]
        rotation = bool(protocols._ROTATION[code])
        n = config.register_sizes[reference.choice(w[1], len(config.register_sizes))]
        first = reference.choice(w[2], n)
        if rotation:
            targets, u = [first, first], verify._TURN * reference.uniform(w[4])
        else:
            second = reference.choice(w[3], n - 1)
            targets, u = [first, second + (second >= first)], 0.0
            pairs.add(tuple(targets))
        eps = config.epsilon_grid[reference.choice(w[5], len(config.epsilon_grid))]
        delta = config.delta_grid[reference.choice(w[6], len(config.delta_grid))]
        assert repr([column[p].tolist() for column in chunk.specs]) == repr(
            [code, targets, u, eps, delta]
        )
        want = qcore.random_pure_state(n, [5, i, 1]).amplitudes
        assert _register(chunk.registers, p).tobytes() == want.tobytes()
    # every ordered pair of distinct qubits of the smallest register shows
    assert {p for p in pairs if max(p) < 2} == {(0, 1), (1, 0)}


def test_an_equivalence_draw_reads_its_words_as_the_reference_does():
    # words 0-4 of [seed, i]: the register size, the target, u, epsilon
    # on [0, pi) and delta; the register is [seed, i, 1]'s
    highs = (verify._TURN, np.pi, verify._TURN)
    config = verify.default_config("circuit_equivalence", seed=6)
    chunk = verify._draw_equivalence(config, range(50))
    assert [column.dtype for column in chunk.specs] == [np.intp, np.intp] + [np.float64] * 3
    for p, i in enumerate(chunk.indices):
        w = reference.words([6, i], 5)
        n = config.register_sizes[reference.choice(w[0], len(config.register_sizes))]
        angles = [h * reference.uniform(x) for h, x in zip(highs, w[2:])]
        want = [verify._ROTATION_CODES[0], [reference.choice(w[1], n)] * 2, *angles]
        assert repr([column[p].tolist() for column in chunk.specs]) == repr(want)
        state = qcore.random_pure_state(n, [6, i, 1]).amplitudes
        assert _register(chunk.registers, p).tobytes() == state.tobytes()


def test_a_saturation_draw_reads_its_words_as_the_reference_does():
    # the sweep fixes the register, kind and epsilon; words 0 and 1 of
    # [seed, i] give u (a rotation row's only) and delta
    config = verify.default_config("saturation", samples=2, seed=8)
    n_eps, n_pure = len(config.epsilon_grid), len(verify._SATURATION_S) * len(config.epsilon_grid)
    chunk = verify._draw_saturation(config, range(2 * verify._saturation_sweep(config)))
    assert [column.dtype for column in chunk.specs] == [np.intp, np.intp] + [np.float64] * 3
    for p, i in enumerate(chunk.indices):
        w = reference.words([8, i], 2)
        delta = verify._TURN * reference.uniform(w[1])
        j = i % verify._saturation_sweep(config)
        if j < n_pure:
            code = verify._ROTATION_CODES[i % len(verify._ROTATION_CODES)]
            want = [code, [0, 0], verify._TURN * reference.uniform(w[0]),
                    config.epsilon_grid[j % n_eps], delta]
            state = verify._SATURATION_REGISTERS[j // n_eps]
        else:
            want = [verify._CZSWAP_GATE, [0, 1], 0.0, config.epsilon_grid[j - n_pure], delta]
            state = verify._BELL_PAIR
        assert repr([column[p].tolist() for column in chunk.specs]) == repr(want)
        assert _register(chunk.registers, p).tobytes() == state.tobytes()


def test_a_density_draw_is_the_registers_of_its_keys():
    # rho's purification from [seed, i], monotonicity's sigma from
    # [seed, i, 7], each the register random_pure_state draws for the key
    for name, tags in (("interm", ()), ("monotonicity", (7,))):
        config = verify.default_config(name, seed=4)
        chunk = verify._CAMPAIGNS[name].draw(config, range(30, 70))
        assert (chunk.sigmas is None) == (not tags)
        for p, i in enumerate(chunk.indices):
            keys = [[4, i], *([4, i, tag] for tag in tags)]
            want = [qcore.random_pure_state(4, key).amplitudes.tobytes() for key in keys]
            assert [v[p].tobytes() for v in chunk[1:] if v is not None] == want


_PINNED_DRAWS = "cbfb7c8e2c6744409e38f5d84f2ddfdf7a691f606b7b39c978ef53f06afbbfca"


def test_a_fixed_chunks_draws_have_the_pinned_digest():
    # one equality_oracle chunk's protocol columns and registers, then a
    # stack of 16 registers of each size from 1 to 8 qubits.  CI runs
    # tier-1 natively and at numpy's baseline dispatch, so the sort, sqrt,
    # cos, sin and normalization of the registers must give these bytes at
    # both levels
    config = verify.default_config("equality_oracle", seed=2024)
    chunk = verify._draw_protocol(config, range(128))
    sha = hashlib.sha256(json.dumps([column.tolist() for column in chunk.specs]).encode())
    for p in range(128):
        sha.update(_register(chunk.registers, p).tobytes())
    for n in range(1, linalg.MAX_QUBITS + 1):
        sha.update(qcore._haar(n, qcore._chunk_streams(2024, range(16), 0, (1,))[1]).tobytes())
    assert sha.hexdigest() == _PINNED_DRAWS


@pytest.mark.parametrize("name", [
    "equality_oracle", "bound_main", "bound_sv", "bound_main2", "circuit_equivalence", "saturation",
])
def test_a_passing_protocol_campaign_builds_no_protocol_spec(monkeypatch, name):
    # a draw holds plain values and a chunk travels as columns; only a
    # failing report builds a ProtocolSpec, for its one worst case
    built = []
    original = protocols.ProtocolSpec.__post_init__

    def counted(self):
        built.append(self.kind)
        original(self)

    monkeypatch.setattr(protocols.ProtocolSpec, "__post_init__", counted)
    config = verify.default_config(name, samples=1 if name == "saturation" else 40, seed=17)
    report = verify.run_campaign(config)
    assert report.passed and report.checks_run > 0
    assert built == []
    failing = verify.run_campaign(dataclasses.replace(config, tolerance=1e-300))
    if not failing.passed:
        assert len(built) == 1 and failing.worst_case["protocol"] == built[0].value
