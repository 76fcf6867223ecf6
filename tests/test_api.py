"""One error rule over the whole public API: every name that
`adqcsim/__init__.py` exports has a row here, and an argument a public
function cannot use raises ValueError (or a subclass, such as
BoundDomainError) that names it, never TypeError or AttributeError."""
import inspect
import math

import numpy as np
import pytest

import adqcsim
from adqcsim import protocols, qcore, verify
from adqcsim.protocols import ErrorKind, ProtocolKind, ProtocolSpec

JUNK = {
    "True": True, "None": None, "'0.3'": "0.3", "nan": math.nan, "inf": math.inf,
    "1j": 1j, "[]": [], "object()": object(), "np.array(3)": np.array(3),
}

_BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
_MIXED_1Q = np.eye(2, dtype=complex) / 2
_MIXED_2Q = np.eye(4, dtype=complex) / 4
_SPEC = ProtocolSpec(ProtocolKind.ADQC_ROTATION_CZ, (0,), u=0.4, epsilon=0.3, delta=0.2)
_CONFIG = verify.default_config("jonas", samples=2)

# name -> (the callable, one good argument list); each junk value takes
# the place of each argument in turn
ROWS = {
    "bloch_length": (adqcsim.bloch_length, (_MIXED_1Q,)),
    "correlator": (adqcsim.correlator, (_MIXED_1Q, qcore.gate("Z"))),
    "f": (adqcsim.f, (0.3,)),
    "f_inverse": (adqcsim.f_inverse, (0.3,)),
    "g": (adqcsim.g, (0.3,)),
    "g_inverse": (adqcsim.g_inverse, (1.3,)),
    "purity_entanglement": (adqcsim.purity_entanglement, (_MIXED_1Q,)),
    "von_neumann": (adqcsim.von_neumann, (_MIXED_2Q,)),
    "partial_trace": (adqcsim.partial_trace, (_BELL, [0])),
    "ErrorKind": (ErrorKind, ("X_TYPE",)),
    "ProtocolKind": (ProtocolKind, ("ADQC_CZ_GATE",)),
    "ProtocolSpec": (ProtocolSpec, (ProtocolKind.ADQC_ROTATION_CZ, (0,), 0.4, 0.3, 0.2)),
    "analyze": (adqcsim.analyze, (_BELL, _SPEC)),
    "bound_purity": (adqcsim.bound_purity, (0.3, 0.4)),
    "bound_sv": (adqcsim.bound_sv, (0.3, 0.4)),
    "bound_sv2": (adqcsim.bound_sv2, (1.3, 0.4)),
    "closed_form_fidelity": (adqcsim.closed_form_fidelity, (0.3, 0.4)),
    "error_operator": (adqcsim.error_operator, (ErrorKind.X_TYPE, 1, 0.3, 0.2)),
    "mean_gate_fidelity": (adqcsim.mean_gate_fidelity, (protocols.run_protocol(_BELL, _SPEC),)),
    "pre_measurement_state": (adqcsim.pre_measurement_state, (_BELL, _SPEC)),
    "run_protocol": (adqcsim.run_protocol, (_BELL, _SPEC)),
    "PureState": (adqcsim.PureState, (2, _BELL)),
    "apply_matrix": (adqcsim.apply_matrix, (_BELL, qcore.gate("X"), (0,))),
    "basis_state": (adqcsim.basis_state, (2, 1)),
    "gate": (adqcsim.gate, ("X",)),
    "measure_branch": (adqcsim.measure_branch, (_BELL, 0, qcore.Z_PAIR)),
    "phase_aligned_max_diff": (adqcsim.phase_aligned_max_diff, (_BELL, _BELL)),
    "random_pure_state": (adqcsim.random_pure_state, (2, 5)),
    "CampaignConfig": (verify.CampaignConfig, (
        "jonas", 2, 42, _CONFIG.epsilon_grid, _CONFIG.delta_grid, _CONFIG.register_sizes, 1e-9,
    )),
    "check_interm": (adqcsim.check_interm, (_MIXED_2Q,)),
    "check_jonas": (adqcsim.check_jonas, (_MIXED_2Q,)),
    "check_monotonicity": (adqcsim.check_monotonicity, (_MIXED_2Q, _MIXED_2Q)),
    # samples and tolerance are left out: None, their default, takes the
    # campaign's own; CampaignConfig's row checks every value they take
    "default_config": (lambda name, seed: adqcsim.default_config(name, seed=seed), ("jonas", 11)),
    "random_density_matrix": (adqcsim.random_density_matrix, (1, 5)),
    "relative_entropy": (adqcsim.relative_entropy, (_MIXED_2Q, _MIXED_2Q)),
    "rho_lambda": (adqcsim.rho_lambda, (0.4,)),
    "run_campaign": (adqcsim.run_campaign, (_CONFIG,)),
    "saturating_single_qubit_register": (adqcsim.saturating_single_qubit_register, (0.3, 2)),
}

# Types whose instances the package builds from values it has checked: an
# exception, and result records with no constructor check
NOT_CALLED = {
    "BoundDomainError": "an exception type (a ValueError)",
    "EntanglementReport": "the record analyze builds, one per reduced register",
    "FidelityReport": "the record analyze builds",
    "ProtocolResult": "the record run_protocol builds",
    "CampaignReport": "the record run_campaign builds",
}

# (name, argument position, junk) accepted on purpose: the empty key [] is
# a key of no words, whose stream numpy's default generator seeds as well
ACCEPTED = {
    ("random_pure_state", 1, "[]"),
    ("random_density_matrix", 1, "[]"),
}


def _exported():
    return sorted(
        name for name, value in vars(adqcsim).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )


def test_every_exported_name_has_a_row():
    assert _exported() == sorted([*ROWS, *NOT_CALLED])
    assert not set(ROWS) & set(NOT_CALLED)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_a_junk_argument_raises_value_error(name):
    # the good arguments run; then each junk value in each argument's place
    # raises ValueError, or is accepted where ACCEPTED lists it
    fn, good = ROWS[name]
    fn(*good)
    wrong = []
    for position in range(len(good)):
        for junk, value in JUNK.items():
            try:
                fn(*good[:position], value, *good[position + 1:])
                outcome = "accepted"
            except ValueError:  # or a subclass, such as BoundDomainError
                outcome = "ValueError"
            except Exception as exc:
                outcome = type(exc).__name__
            want = "accepted" if (name, position, junk) in ACCEPTED else "ValueError"
            if outcome != want:
                wrong.append((position, junk, outcome))
    assert wrong == []


def test_the_accepted_cases_are_the_empty_keys():
    for name, position, junk in ACCEPTED:
        assert name in ROWS and position < len(ROWS[name][1]) and junk in JUNK
    assert np.array_equal(
        adqcsim.random_pure_state(2, []).amplitudes,
        qcore.haar_states(2, qcore.streams([[]]))[0],
    )
