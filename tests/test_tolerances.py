"""Each input tolerance at its edge: an input whose defect is 10 times
inside today's value is taken, one 10 times outside is not.  The values
are written here, not read from the modules, so loosening or tightening
a tolerance by more than a factor of 10 fails a row."""
import math

import numpy as np
import pytest

from adqcsim import entropy, linalg, protocols, qcore, stateio, verify
from adqcsim.protocols import ProtocolKind, ProtocolSpec

_SPEC = ProtocolSpec(ProtocolKind.ADQC_ROTATION_CZ, (0,), u=0.4, epsilon=0.3, delta=0.2)
_Z = np.diag([1.0, -1.0])


def _raises(call, *args) -> str:
    try:
        call(*args)
    except ValueError:
        return "ValueError"
    return "ok"


def _support(value: float) -> str:
    return "inf" if math.isinf(value) else "finite"


# name -> (today's value, the outcome for an input of defect d, the outcome
# 10 times inside, the outcome 10 times outside)
EDGES = {
    # qcore.NORM_TOL: |psi|^2 = 1 + d
    "NORM_TOL-PureState": (1e-12, lambda d: _raises(
        qcore.PureState, 1, [math.sqrt(1.0 + d), 0.0]), "ok", "ValueError"),
    "NORM_TOL-runs": (1e-12, lambda d: _raises(
        protocols._runs, np.array([math.sqrt(1.0 + d), 0, 0, 0], dtype=complex), _SPEC),
        "ok", "ValueError"),
    # entropy.DENSITY_TOL: a trace of 1 + d, a lowest eigenvalue of -d
    "DENSITY_TOL-trace": (1e-10, lambda d: _raises(
        entropy.validate_density, np.diag([0.5 + d, 0.5])), "ok", "ValueError"),
    "DENSITY_TOL-negative": (1e-10, lambda d: _raises(
        entropy.validate_density, np.diag([1.0 + d, -d])), "ok", "ValueError"),
    # linalg.HERMITIAN_TOL: one entry d off its mirror
    "HERMITIAN_TOL": (1e-10, lambda d: _raises(
        linalg.jacobi_eigh, np.array([[0.5, d], [0.0, 0.5]])), "ok", "ValueError"),
    # entropy._DOMAIN_SLACK: d past an end of [0, 1]
    "DOMAIN_SLACK-f_inverse": (1e-12, lambda d: _raises(
        entropy.f_inverse, 1.0 + d), "ok", "ValueError"),
    "DOMAIN_SLACK-unit_interval": (1e-12, lambda d: _raises(
        entropy._check_unit_interval, -d, 0.0, 1.0, "x"), "ok", "ValueError"),
    # verify._SUPPORT_TOL: an eigenvalue d of sigma where rho has weight 1/2
    # lies outside sigma's support below it; a weight d of rho where sigma
    # has none is missed above it
    "SUPPORT_TOL-eigenvalue": (1e-12, lambda d: _support(
        verify.relative_entropy(np.eye(2) / 2, np.diag([1.0 - d, d]))), "inf", "finite"),
    "SUPPORT_TOL-weight": (1e-12, lambda d: _support(
        verify.relative_entropy(np.diag([1.0 - d, d]), np.diag([1.0, 0.0]))), "finite", "inf"),
    # stateio.NORM_FILE_TOL: a file whose amplitudes have norm 1 + d
    "NORM_FILE_TOL": (1e-9, lambda d: _raises(
        stateio.loads_state, f"qubits: 1\n0 {1.0 + d!r} 0\n"), "ok", "ValueError"),
    # entropy._IMAG_TOL: Tr(rho Z) = -i d
    "IMAG_TOL-correlator": (1e-12, lambda d: _raises(
        entropy.correlator, np.diag([0.5, 0.5 + 1j * d]), _Z), "ok", "ValueError"),
}


@pytest.mark.parametrize("name", list(EDGES))
def test_a_tolerance_takes_a_defect_inside_it_and_no_more(name):
    tol, outcome, inside, outside = EDGES[name]
    assert (outcome(tol / 10.0), outcome(tol * 10.0)) == (inside, outside)
