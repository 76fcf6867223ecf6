"""Mixedness and correlation measures of reduced register states, and the
monotone bounding functions that convert entropies back into correlator
bounds (inverted numerically by safeguarded Newton)."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, qcore

DENSITY_TOL = 1e-10
_INVERSE_RESIDUAL = 1e-12
_INVERSE_WIDTH = 1e-13
_INVERSE_MAX_ITER = 200


class BoundDomainError(ValueError):
    """Raised where an entropy lies below the region a bound constrains."""


@dataclass(frozen=True)
class Density:
    """A validated density matrix with the eigenpairs of its one solve:
    eigenvalues ascending, eigenvectors as the columns of `eigenvectors`."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _eigenpairs(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # A diagonal matrix (a dephased state) is read off its diagonal, with
    # the same values and order the Jacobi kernel returns for it.
    diag = rho.diagonal()
    if np.count_nonzero(rho) == np.count_nonzero(diag):
        w = diag.real
        order = np.argsort(w, kind="stable")
        return w[order], np.eye(len(w), dtype=complex)[:, order]
    return linalg.jacobi_eigh(rho)


def validate_density(
    rho: np.ndarray | Density, dims: tuple[int, ...] | None = None
) -> Density:
    """Check Hermiticity, unit trace, and positivity of a density matrix.

    Returns the matrix with the eigenpairs the positivity check solved
    for, so that no caller has to solve it again.  A Density passes
    through after the dimension check.
    """
    if isinstance(rho, Density):
        if dims is not None and rho.matrix.shape[0] not in dims:
            raise ValueError(f"density matrix dimension {rho.matrix.shape[0]} not in {dims}")
        return rho
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if dims is not None and rho.shape[0] not in dims:
        raise ValueError(f"density matrix dimension {rho.shape[0]} not in {dims}")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has non-finite entries")
    if linalg.hermiticity_defect(rho) > DENSITY_TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > DENSITY_TOL:
        raise ValueError(f"density matrix trace {tr} is not 1")
    evals, evecs = _eigenpairs(rho)
    if evals[0] < -DENSITY_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {evals[0]}")
    return Density(rho, evals, evecs)


def _spectrum(rho: np.ndarray | Density, dims: tuple[int, ...] | None = None) -> np.ndarray:
    """Validated eigenvalues, clamped to [0, inf) and renormalized to sum 1."""
    evals = np.maximum(validate_density(rho, dims).eigenvalues, 0.0)
    return evals / evals.sum()


def _plogp(p: np.ndarray) -> float:
    """sum p log2 p with the 0 log 0 = 0 convention."""
    nz = p[p > 0.0]
    return float(np.sum(nz * np.log2(nz)))


def purity_entanglement(rho: np.ndarray | Density) -> float:
    """2 (1 - Tr rho^2) of a single-qubit state: 0 pure, 1 maximally mixed."""
    p = _spectrum(rho, dims=(2,))
    return max(2.0 * (1.0 - float(np.sum(p * p))), 0.0) + 0.0


def von_neumann(rho: np.ndarray | Density) -> float:
    """-Tr(rho log2 rho) for a one- or two-qubit density matrix."""
    p = _spectrum(rho, dims=(2, 4))
    return max(-_plogp(p), 0.0) + 0.0


def correlator(rho: np.ndarray, observable: np.ndarray) -> float:
    """Tr(rho O) for a Hermitian observable; the value must come out real."""
    rho = np.asarray(rho, dtype=complex)
    observable = np.asarray(observable, dtype=complex)
    if rho.shape != observable.shape or rho.ndim != 2:
        raise ValueError("state and observable dimensions do not match")
    if linalg.hermiticity_defect(observable) > DENSITY_TOL:
        raise ValueError("observable is not Hermitian within tolerance")
    val = complex(np.trace(rho @ observable))
    if abs(val.imag) > 1e-12:
        raise ValueError(f"correlator has imaginary residue {val.imag}")
    return val.real


def bloch_length(rho: np.ndarray) -> float:
    """Length of the Bloch vector of a single-qubit state."""
    cx = correlator(rho, qcore.gate("X"))
    cy = correlator(rho, qcore.gate("Y"))
    cz = correlator(rho, qcore.gate("Z"))
    return min(float(np.sqrt(cx * cx + cy * cy + cz * cz)), 1.0)


def _check_unit_interval(x: float, lo: float, hi: float, what: str) -> float:
    if not lo - 1e-12 <= x <= hi + 1e-12:
        raise ValueError(f"{what}={x} outside [{lo}, {hi}]")
    return min(max(float(x), lo), hi)


def f(c: float) -> float:
    """Binary entropy of (1+c)/2; strictly decreasing from f(0)=1 to f(1)=0."""
    c = _check_unit_interval(c, 0.0, 1.0, "correlator")
    p, q = (1.0 + c) / 2.0, (1.0 - c) / 2.0
    return -(p * math.log2(p) + (q * math.log2(q) if q > 0.0 else 0.0))


def g(c: float) -> float:
    """Two-qubit analogue of f: g(c) = 1 + f(c), decreasing from 2 to 1.

    The weights are (1 +- c)/2 but the log arguments are (1 +- c)/4.
    """
    return 1.0 + f(c)


def _solve_f(s: float) -> float:
    # Safeguarded Newton (rtsafe) on the concave, decreasing f, keeping a
    # bracket with f(lo) > s > f(hi); c0 inverts f ~ 1 - c^2 / (2 ln 2).  A
    # step that leaves the bracket, or a zero or infinite slope, bisects.
    if s == 0.0:
        return 1.0
    if s == 1.0:
        return 0.0
    lo, hi = 0.0, 1.0
    c = min(math.sqrt(2.0 * math.log(2.0) * (1.0 - s)), math.nextafter(1.0, 0.0))
    for _ in range(_INVERSE_MAX_ITER):
        val = f(c)
        if abs(val - s) <= _INVERSE_RESIDUAL:
            return c
        lo, hi = (c, hi) if val > s else (lo, c)
        if hi - lo <= _INVERSE_WIDTH:
            break
        slope = -0.5 * math.log2((1.0 + c) / (1.0 - c))
        step = c - (val - s) / slope if -math.inf < slope < 0.0 else math.nan
        c = step if lo < step < hi else 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def f_inverse(s: float) -> float:
    """The unique c in [0, 1] with f(c) = s."""
    return _solve_f(_check_unit_interval(s, 0.0, 1.0, "entropy"))


def g_inverse(s: float) -> float:
    """The unique c in [0, 1] with g(c) = s, defined for s in [1, 2].

    Since g = 1 + f this is f_inverse(s - 1); s - 1 is exact on [1, 2].
    """
    if s < 1.0 - 1e-12:
        raise BoundDomainError(
            f"g_inverse undefined for entropy {s} < 1: the correlator is "
            "unconstrained there"
        )
    return _solve_f(_check_unit_interval(s, 1.0, 2.0, "entropy") - 1.0)


@dataclass
class EntanglementReport:
    """Measures of one reduced input state.

    purity_S and bloch_length_r are defined for single-qubit reductions
    only and are None for a two-qubit reduction.
    """

    purity_S: float | None
    von_neumann: float
    correlator: float
    bloch_length_r: float | None


def single_qubit_report(rho: np.ndarray | Density) -> EntanglementReport:
    """Measures of a single-qubit reduced state (correlator is <Z>)."""
    rho = validate_density(rho, dims=(2,))
    return EntanglementReport(
        purity_S=purity_entanglement(rho),
        von_neumann=von_neumann(rho),
        correlator=correlator(rho.matrix, qcore.gate("Z")),
        bloch_length_r=bloch_length(rho.matrix),
    )


def two_qubit_report(rho: np.ndarray | Density) -> EntanglementReport:
    """Measures of a two-qubit reduced state (correlator is <Z(x)Z>)."""
    zz = linalg.kron(qcore.gate("Z"), qcore.gate("Z"))
    rho = validate_density(rho, dims=(4,))
    return EntanglementReport(
        purity_S=None,
        von_neumann=von_neumann(rho),
        correlator=correlator(rho.matrix, zz),
        bloch_length_r=None,
    )
