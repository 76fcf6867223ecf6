"""Mixedness and correlation measures of reduced register states, and the
monotone bounding functions that convert entropies back into correlator
bounds (inverted numerically by safeguarded Newton).

A density matrix has one form: `validate_density` takes one (d, d)
matrix or a (B, d, d) stack and returns a `Density` of the input's rank,
solved once.  Each measure takes the same input, as an array or a
Density, and returns a float for one matrix or a (B,) array for a
stack; an array is read through linalg._array.  `entanglement_reports`
builds a stack's reports from the same parts, each taken once: one
clamped spectrum for S and the purity, and one pass over the entries for
<X>, <Y> and <Z> (or <Z (x) Z>), each equal bit for bit to the trace
`correlator` takes."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg

DENSITY_TOL = 1e-10
_IMAG_TOL = 1e-12  # the imaginary residue an expectation value may carry
_INVERSE_RESIDUAL = 1e-12
_INVERSE_WIDTH = 1e-13
_INVERSE_MAX_ITER = 200
_DOMAIN_SLACK = 1e-12  # roundoff let past the ends of an f or g domain
# The least S_v2 that g_inverse takes, and where every sv2 bound check cuts
SV2_DOMAIN_EDGE = 1.0 - _DOMAIN_SLACK


class BoundDomainError(ValueError):
    """Raised where an entropy lies below the region a bound constrains."""


@dataclass(frozen=True)
class Density:
    """A validated density matrix, or a (B, d, d) stack of them, with the
    results of its one solve: eigenvalues ascending and, where the caller
    asked for them, the eigenvectors as the columns of `eigenvectors`
    (else None).
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None


def validate_density(
    rho: np.ndarray | Density, dims: tuple[int, ...] | None = None, vectors: bool = False
) -> Density:
    """Check Hermiticity, unit trace, and positivity of one (d, d) density
    matrix or of every matrix of a (B, d, d) stack, returned as a Density
    of the input's rank.

    One linalg.jacobi_eigh call checks finiteness and Hermiticity once on
    the whole input and solves each matrix once, building eigenvectors
    only with `vectors`; the trace and positivity tests then read the
    input and its eigenvalues once too, so that no caller has to solve it
    again.  A Density passes through after the dimension check; it is
    solved again, once, only where `vectors` asks for eigenvectors it
    lacks.
    """
    m = rho.matrix if isinstance(rho, Density) else linalg._array(rho, "rho")
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError("density matrix must be square")
    if dims is not None and m.shape[-1] not in dims:
        raise ValueError(f"density matrix dimension {m.shape[-1]} not in {dims}")
    if isinstance(rho, Density) and not (vectors and rho.eigenvectors is None):
        return rho
    evals, evecs = linalg.jacobi_eigh(m, vectors=vectors)
    tr = np.ravel(m.trace(axis1=-2, axis2=-1))
    off = abs(tr - 1.0)
    if (off > DENSITY_TOL).any():
        raise ValueError(f"density matrix trace {complex(tr[np.argmax(off)])} is not 1")
    lowest = np.ravel(evals[..., 0])
    negative = lowest < -DENSITY_TOL
    if negative.any():
        raise ValueError(f"density matrix has negative eigenvalue {lowest[negative][0]}")
    return Density(m, evals, evecs)


def _value(values: np.ndarray) -> float | np.ndarray:
    # one matrix's measure as a float, a stack's as its (B,) array
    return float(values) if np.ndim(values) == 0 else values


def _spectrum(density: Density) -> np.ndarray:
    """A validated Density's eigenvalues, clamped to [0, inf) and
    renormalized to sum 1 (per matrix of a stack)."""
    evals = np.maximum(density.eigenvalues, 0.0)
    return evals / evals.sum(axis=-1, keepdims=True)


def _plogp(p: np.ndarray) -> float | np.ndarray:
    """sum p log2 p over the last axis, with the 0 log 0 = 0 convention."""
    return _value((p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=-1))


def _purity_of(p: np.ndarray) -> float | np.ndarray:
    # 2 (1 - sum p^2) of a clamped spectrum (_spectrum)
    return _value(np.maximum(2.0 * (1.0 - np.sum(p * p, axis=-1)), 0.0) + 0.0)


def _entropy_of(p: np.ndarray) -> float | np.ndarray:
    # -sum p log2 p of a clamped spectrum (_spectrum)
    return _value(np.maximum(-_plogp(p), 0.0) + 0.0)


def purity_entanglement(rho: np.ndarray | Density) -> float | np.ndarray:
    """2 (1 - Tr rho^2) of a single-qubit state: 0 pure, 1 maximally
    mixed; one value per matrix of a (B, 2, 2) stack."""
    return _purity_of(_spectrum(validate_density(rho, dims=(2,))))


def von_neumann(rho: np.ndarray | Density) -> float | np.ndarray:
    """-Tr(rho log2 rho) for a one- or two-qubit density matrix, or one
    value per matrix of a stack."""
    return _entropy_of(_spectrum(validate_density(rho, dims=(2, 4))))


def correlator(rho: np.ndarray | Density, observable: np.ndarray) -> float | np.ndarray:
    """Tr(rho O) for a Hermitian observable, or one value per matrix of a
    (B, d, d) stack; every value must come out real.  rho may be a
    Density, of one matrix or of a stack."""
    observable = linalg._array(observable, "observable")
    if observable.ndim != 2 or observable.shape[0] != observable.shape[1]:
        raise ValueError("observable must be a square matrix")
    if linalg.hermiticity_defect(observable) > linalg.HERMITIAN_TOL:
        raise ValueError("observable is not Hermitian within tolerance")
    return _real_values((_matrices(rho, len(observable)) @ observable).trace(axis1=-2, axis2=-1))


def _matrices(rho: np.ndarray | Density, d: int) -> np.ndarray:
    # the (d, d) matrix or (B, d, d) stack an expectation reads: a Density
    # is known to be finite, an array is checked here
    rho = rho.matrix if isinstance(rho, Density) else linalg._array(rho, "rho", finite=True)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (d, d):
        raise ValueError("state and observable dimensions do not match")
    return rho


def _real_values(values: np.ndarray) -> float | np.ndarray:
    # expectation values, which must come out real
    residue = abs(values.imag).max(initial=0.0)
    if residue > _IMAG_TOL:
        raise ValueError(f"correlator has imaginary residue {residue}")
    return _value(values.real)


# The Pauli expectations the reports read, from the entries of rho.  Each
# is Tr(rho P), as correlator takes it, bit for bit: every product with an
# entry of P (0 or +-1) is exact, so the trace adds the same terms; two
# for a one-qubit Pauli, and for Z (x) Z the four diagonal terms in the
# pairs that numpy's sum of four complex numbers adds first.

def _bloch(rho: np.ndarray | Density) -> np.ndarray:
    # (<X>, <Y>, <Z>) of one (2, 2) matrix, or the (3, B) values of a stack
    m = _matrices(rho, 2)
    upper, lower = m[..., 0, 1], m[..., 1, 0]
    z = m[..., 0, 0] - m[..., 1, 1]
    return _real_values(np.stack([upper + lower, (upper - lower) * 1j, z]))


def _zz(rho: np.ndarray | Density) -> float | np.ndarray:
    # <Z (x) Z> of one (4, 4) matrix or of each matrix of a stack
    d = _matrices(rho, 4).diagonal(axis1=-2, axis2=-1)
    return _real_values((d[..., 0] - d[..., 1]) + (d[..., 3] - d[..., 2]))


def _expectations(rhos: np.ndarray | Density) -> np.ndarray:
    # a (B, d, d) stack's expectations as a report reads them, the last row
    # its correlator: (3, B) <X>, <Y>, <Z> for d = 2, (1, B) <Z (x) Z> for d = 4
    m = rhos.matrix if isinstance(rhos, Density) else rhos
    return _bloch(rhos) if m.shape[-1] == 2 else _zz(rhos)[None]


def _length(bloch: np.ndarray) -> float | np.ndarray:
    # the Bloch length of _bloch's values
    cx, cy, cz = bloch
    return _value(np.minimum(np.sqrt(cx * cx + cy * cy + cz * cz), 1.0))


def bloch_length(rho: np.ndarray | Density) -> float | np.ndarray:
    """Length of the Bloch vector of a single-qubit state, or one length
    per matrix of a (B, 2, 2) stack; rho may be a Density of either."""
    return _length(_bloch(rho))


def _check_unit_interval(x: float, lo: float, hi: float, what: str) -> float:
    x = linalg._real(x, what)
    if not lo - _DOMAIN_SLACK <= x <= hi + _DOMAIN_SLACK:
        raise ValueError(f"{what}={x} outside [{lo}, {hi}]")
    return min(max(x, lo), hi)


def f(c: float) -> float:
    """Binary entropy of (1+c)/2; strictly decreasing from f(0)=1 to f(1)=0."""
    return _f(_check_unit_interval(c, 0.0, 1.0, "correlator"))


def _f(c: float) -> float:
    # f on a c the caller keeps in [0, 1], where the check would be the identity
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
        val = _f(c)  # every iterate lies in [lo, hi], inside [0, 1]
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
    if linalg._real(s, "entropy") < SV2_DOMAIN_EDGE:
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


def entanglement_reports(rhos: np.ndarray | Density) -> list[EntanglementReport]:
    """The measures of each matrix of a (B, d, d) stack of reduced states,
    validated once and its spectrum clamped once: for d = 2 the purity,
    S, <Z> and the Bloch length, <Z> read from the one pass that gives
    <X>, <Y> and <Z>; for d = 4, S_v2 and <Z(x)Z>."""
    rhos = validate_density(rhos, dims=(2, 4))
    if rhos.matrix.ndim != 3:
        raise ValueError("expected a (B, d, d) stack of density matrices")
    p = _spectrum(rhos)
    sv, values = _entropy_of(p).tolist(), _expectations(rhos)
    if rhos.matrix.shape[-1] == 4:
        return [EntanglementReport(None, v, c, None) for v, c in zip(sv, values[0].tolist())]
    purity, z, r = _purity_of(p).tolist(), values[2].tolist(), _length(values).tolist()
    return [EntanglementReport(*row) for row in zip(purity, sv, z, r)]
