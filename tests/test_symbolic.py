"""The fidelity identities of the five protocols, proved symbolically from
the package's own protocol table and gates.

Each kind's branch operator K_j(epsilon, delta) on its targets is built
from its `protocols._PROTOCOLS` row, the exact form (`sp.nsimplify`) of
each `qcore.gate` the row applies, the |+> ancilla and the formula of
`qcore.tilted_vectors`.  c = cos(e/2), s = sin(e/2), w = e^{-i delta} and
v = e^{iu} are polynomial symbols, with conj(w) = 1/w and conj(v) = 1/v,
so every check is `sp.expand` followed by a comparison with zero.  A
change to `_PROTOCOLS` or to a gate that breaks an identity fails the
kind's tests; each construction is also checked numerically against the
package, so the algebra is that of the code the campaigns run.
"""
from functools import lru_cache

import numpy as np
import pytest
import sympy as sp

from adqcsim import entropy, protocols, qcore, verify
from adqcsim.protocols import ProtocolKind

c, s = sp.symbols("c s", real=True)
w, v = sp.symbols("w v", nonzero=True)
# a numeric point (u, epsilon, delta) for the checks against the package
U, EPSILON, DELTA = 0.3, 0.7, 0.2
POINT = {c: np.cos(EPSILON / 2), s: np.sin(EPSILON / 2),
         w: np.exp(-1j * DELTA), v: np.exp(1j * U)}


def conj(m):
    # the conjugate of an expression or matrix in which every symbol but w
    # and v is real
    return m.xreplace({sp.I: -sp.I, w: 1 / w, v: 1 / v})


def dagger(m):
    return conj(m).T


def exact(array) -> sp.Matrix:
    return sp.Matrix(array).applyfunc(sp.nsimplify)


def is_zero(m) -> bool:
    return sp.expand(m) == (sp.zeros(*m.shape) if isinstance(m, sp.MatrixBase) else 0)


def numeric(m) -> np.ndarray:
    return np.array(m.subs(POINT).evalf(), dtype=complex)


def on_qubits(op: sp.Matrix, qubits: tuple[int, int], n: int) -> sp.Matrix:
    # a two-qubit op on the listed qubits of n (qubit 0 the most
    # significant; the first listed the most significant index of op)
    full = sp.zeros(2**n, 2**n)
    for col in range(2**n):
        bits = [col >> (n - 1 - q) & 1 for q in range(n)]
        for row_in_op in range(4):
            entry = op[row_in_op, 2 * bits[qubits[0]] + bits[qubits[1]]]
            out = list(bits)
            out[qubits[0]], out[qubits[1]] = row_in_op >> 1, row_in_op & 1
            full[sum(b << (n - 1 - q) for q, b in enumerate(out)), col] += entry
    return full


def targets(kind: ProtocolKind) -> int:
    return 1 if protocols._PROTOCOLS[kind].rotation else 2


def on_targets(kind: ProtocolKind, m: sp.Matrix) -> sp.Matrix:
    # an operator on the leading targets, as one on all of the kind's
    return sp.kronecker_product(m, sp.eye(2 ** targets(kind) // m.shape[0]))


@lru_cache(maxsize=None)
def branch_operators(kind: ProtocolKind) -> tuple[sp.Matrix, sp.Matrix]:
    # K_0, K_1 on the k targets: the gates of the kind's row on psi (x) |+>,
    # then <b_j| on the ancilla, b_j the tilted vectors of the kind's
    # reference pair
    row, k = protocols._PROTOCOLS[kind], targets(kind)
    wire = {0: 0, 1: 1, protocols._ANCILLA: k}
    circuit = sp.eye(2 ** (k + 1))
    for name, (a, b) in row.gates:
        circuit = on_qubits(exact(qcore.gate(name)), (wire[a], wire[b]), k + 1) * circuit
    prepare = sp.kronecker_product(sp.eye(2**k), exact(protocols._PLUS))
    if row.rotation:
        r0, r1 = sp.Matrix([1, v]) / sp.sqrt(2), sp.Matrix([1, -v]) / sp.sqrt(2)
    else:
        r0, r1 = exact(qcore.Z_PAIR[0]), exact(qcore.Z_PAIR[1])
    basis = (c * r0 + w * s * r1, s * r0 - w * c * r1)
    return tuple(
        sp.kronecker_product(sp.eye(2**k), dagger(b)) * circuit * prepare for b in basis
    )


def ideal(m):
    # the epsilon = 0 operator, at the same delta
    return m.subs({c: 1, s: 0})


def error_operator(kind: ProtocolKind, j: int) -> sp.Matrix:
    # cos(e/2) + (-1)^j P e^{(-1)^j i delta} sin(e/2) on the reduction,
    # with e^{i delta} = 1/w
    p = exact(protocols._PAULIS[protocols._PROTOCOLS[kind].error])
    return c * sp.eye(p.shape[0]) + (1 / w if j == 0 else -w) * s * p


# the correlator the reports read for a reduction of each size
OBSERVABLES = {2: exact(qcore.gate("Z")), 4: exact(np.kron(qcore.gate("Z"), qcore.gate("Z")))}


def observable(kind: ProtocolKind) -> sp.Matrix:
    pauli = protocols._PAULIS[protocols._PROTOCOLS[kind].error]
    return on_targets(kind, OBSERVABLES[len(pauli)])


def generic_matrix(d: int, name: str) -> sp.Matrix:
    # a generic Hermitian d x d matrix of d^2 real parameters
    rho = sp.zeros(d, d)
    for a in range(d):
        rho[a, a] = sp.Symbol(f"{name}{a}{a}", real=True)
        for b in range(a + 1, d):
            re, im = sp.symbols(f"{name}{a}{b}r {name}{a}{b}i", real=True)
            rho[a, b], rho[b, a] = re + sp.I * im, re - sp.I * im
    return rho


def fidelity(kind: ProtocolKind, rho: sp.Matrix):
    # 2 sum_j |tr(rho K_j(0)^dagger K_j(eps))|^2: the mean gate fidelity of
    # a register whose targets are in rho
    total = 0
    for k in branch_operators(kind):
        z = sp.expand((rho * dagger(ideal(k)) * k).trace())
        total += z * conj(z)
    return 2 * total


@pytest.mark.parametrize("kind", ProtocolKind)
def test_the_operators_are_the_packages(kind):
    # at a numeric point: K_j column by column against run_protocol on the
    # basis registers of the k targets, E_j against error_operator
    k = targets(kind)
    spec = protocols.ProtocolSpec(
        kind, tuple(range(k)), u=U if k == 1 else None, epsilon=EPSILON, delta=DELTA
    )
    basis = np.eye(2**k, dtype=complex)
    branches = protocols.run_protocol(basis, [spec] * 2**k).inaccurate_branches
    for j, k_j in enumerate(branch_operators(kind)):
        assert np.allclose(numeric(k_j), branches[:, j].T, atol=1e-14, rtol=0)
        error = protocols.error_operator(protocols._PROTOCOLS[kind].error, j, EPSILON, DELTA)
        assert np.allclose(numeric(error_operator(kind, j)), error, atol=1e-15, rtol=0)


@pytest.mark.parametrize("d", sorted(OBSERVABLES))
def test_the_observables_are_the_reported_correlators(d):
    rho = verify.random_density_matrix(d.bit_length() - 1, [28, d])
    # the last row of _expectations is the correlator
    got = entropy._expectations(rho[None])[-1, 0]
    want = np.trace(rho @ np.array(OBSERVABLES[d], dtype=complex)).real
    assert got == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("kind", ProtocolKind)
def test_an_accurate_measurement_gives_each_outcome_half_the_time(kind):
    # K_j(0, delta)^dagger K_j(0, delta) = I/2
    for k_j in branch_operators(kind):
        assert is_zero(dagger(ideal(k_j)) * ideal(k_j) - sp.eye(k_j.shape[0]) / 2)


@pytest.mark.parametrize("kind", ProtocolKind)
def test_a_tilted_branch_is_the_error_operator_after_the_ideal_one(kind):
    # K_j(eps, delta) = E_j(eps, delta) K_j(0, delta)
    for j, k_j in enumerate(branch_operators(kind)):
        assert is_zero(k_j - on_targets(kind, error_operator(kind, j)) * ideal(k_j))


@pytest.mark.parametrize("kind", ProtocolKind)
def test_the_fidelity_identity(kind):
    # 2 sum_j |tr(rho K_j(0)^dagger K_j)|^2 = c^2 (tr rho)^2 + <O>^2 s^2 for
    # a generic Hermitian rho on the targets
    rho = generic_matrix(2 ** targets(kind), "r")
    o = (rho * observable(kind)).trace()
    assert is_zero(fidelity(kind, rho) - (c**2 * rho.trace() ** 2 + o**2 * s**2))


@pytest.mark.parametrize("kind", [k for k in ProtocolKind if k in protocols.X_ERROR_KINDS])
def test_the_purity_bound_exceeds_the_fidelity_by_the_transverse_bloch_length(kind):
    # bound_purity - F = (x^2 + y^2) s^2 for the first target's Bloch
    # vector (x, y, z), S = 2 (1 - tr rho^2) and c^2 = 1 - s^2; a second
    # target is in a generic state of trace one
    x, y, z = sp.symbols("x y z", real=True)
    bloch = sum((b * exact(qcore.gate(p)) for b, p in zip((x, y, z), "XYZ")), sp.zeros(2, 2))
    first = (sp.eye(2) + bloch) / 2
    second = generic_matrix(2, "t")
    second[1, 1] = 1 - second[0, 0]
    rho = first if targets(kind) == 1 else sp.kronecker_product(first, second)
    purity = 2 * (1 - (first * first).trace())
    gap = 1 - purity * s**2 - fidelity(kind, rho)
    assert is_zero(gap.subs(c, sp.sqrt(1 - s**2)) - (x**2 + y**2) * s**2)


def test_the_purity_bound_is_the_formula():
    rho = verify.random_density_matrix(1, [28, 1])
    purity = entropy.purity_entanglement(rho)
    assert purity == pytest.approx(2 * (1 - np.trace(rho @ rho).real), abs=1e-15)
    assert protocols.bound_purity(purity, EPSILON) == pytest.approx(
        1 - purity * np.sin(EPSILON / 2) ** 2, abs=1e-15)
