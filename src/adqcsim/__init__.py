"""Statevector simulation of ancilla-driven quantum gates with inaccurate
measurements, plus exact verification of the entanglement-fidelity bounds
the protocols obey.

Qubit convention: qubit 0 is the most significant bit of an amplitude
index (big-endian kets), everywhere.
"""
from .entropy import (
    BoundDomainError,
    EntanglementReport,
    bloch_length,
    correlator,
    f,
    f_inverse,
    g,
    g_inverse,
    purity_entanglement,
    von_neumann,
)
from .linalg import kron, partial_trace
from .protocols import (
    ErrorKind,
    FidelityReport,
    ProtocolKind,
    ProtocolResult,
    ProtocolSpec,
    analyze,
    bound_purity,
    bound_sv,
    bound_sv2,
    closed_form_fidelity,
    error_operator,
    mean_gate_fidelity,
    pre_measurement_state,
    run_protocol,
)
from .qcore import (
    PureState,
    apply_gate,
    apply_matrix,
    basis_state,
    deviated_u_basis,
    deviated_z_basis,
    gate,
    j_gate,
    measure_branch,
    phase_aligned_max_diff,
    random_pure_state,
)
from .verify import (
    CampaignConfig,
    CampaignReport,
    check_interm,
    check_jonas,
    check_monotonicity,
    default_config,
    dephasing_map,
    random_density_matrix,
    relative_entropy,
    rho_lambda,
    run_campaign,
    saturating_single_qubit_register,
)

__version__ = "0.1.0"
