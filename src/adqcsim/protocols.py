"""The five measurement-driven gate protocols, their mean gate fidelity,
the closed-form fidelity, outcome-dependent error operators, and the
entanglement-based fidelity bounds.

Every protocol couples a fresh |+> ancilla to one or two register qubits
and then measures the ancilla; `_PROTOCOLS` holds one row per protocol:
its gate sequence, its measurement basis and its error operator.  The
one-way rotation, which measures its target and leaves the ancilla in the
target's slot, is the same circuit written with CZSWAP (see its row).
With an accurate measurement the branches realize X^j J(u) on the target
(rotations), X1^j H1 H2 CZ12 (CZ gate) or (Z1 Z2)^j SWAP12 CZ12 (CZSWAP
gate), up to a global phase per branch.

Each public function takes one register, a PureState or a (2^n,) vector,
with one ProtocolSpec, or a (B, 2^n) stack of registers of one size with
one spec per row, and returns a result of the input's rank: a run's
branches are one `ProtocolResult` of arrays, (2, 2^n) for one run or
(B, 2, 2^n) for a stack, and its `FidelityReport` has the same leading
axis.  It reads its input once, through `_runs`: every row must be finite
and normalized, and the specs become `_Specs` columns, the one form of a
stack's invocations inside the package; their targets are checked by
`_chain`, which every path runs.  A kind is a code there, which
indexes arrays of its row's facts, so kinds share a stack.  Past `_runs`
the layer calls kernels (`linalg._chain_tables`, `linalg._reduce`,
`qcore._tilted`, `_equatorial`), not the public functions that check
their arguments and then call them: it hands them only arrays built from
what `_runs` read, or from a campaign's drawn values.

Every simulation is one `_chain`: each row's register times the |+>
ancilla through its kind's gate steps, one gather per step over the
tables `linalg._chain_tables` compiles from `_PROTOCOLS`, once per
register size, each looked up by the row's kind and two targets.  A
gather goes straight from one step's qubit order into the next's, and
after the last step into the measurement's, the ancilla first; nothing
is scattered back.
`_branches` measures the chain in the bases asked for: the tilted and
the ideal ones of `_bases` for `run_protocol`, the tilted ones alone for
a caller that reads only those; `pre_measurement_state` moves its
ancilla back to the last place by one reshape and axis swap.

`analyze` is the analysis pass `_analyses` over one stack, wrapped into
its public report at its edge.  The pass takes several stacks, such as a
campaign chunk's registers of several sizes, simulates each alone, and
returns `_Checks`, one column per quantity over all their rows: F always;
the correlators and closed forms, and the purity and S of each reduction
(one validation and eigensolve per error kind), each only for a caller
that reads it.  `_BOUNDS` holds every fact of a bound in one row: its
error kind, the `_Checks` column of its entropy, the interval that
entropy is clamped to, its domain floor and the inversion of f or g that
gives its measure (`_measures`).  `_bounds` evaluates a bound on a column
of entropies, for a campaign's chunk, the public bound functions and
`FidelityReport.bound` alike, so no campaign builds a report per row.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from . import entropy, linalg, qcore
from .entropy import EntanglementReport
from .linalg import _entries, _finite, _integer
from .qcore import PureState

BOUND_SLACK_TOL = 1e-9
# the largest register a protocol runs on: every protocol adds an ancilla
_MAX_REGISTER = linalg.MAX_QUBITS - 1


class ProtocolKind(Enum):
    ONEWAY_ROTATION = "ONEWAY_ROTATION"
    ADQC_ROTATION_CZ = "ADQC_ROTATION_CZ"
    ADQC_ROTATION_CZSWAP = "ADQC_ROTATION_CZSWAP"
    ADQC_CZ_GATE = "ADQC_CZ_GATE"
    ADQC_CZSWAP_GATE = "ADQC_CZSWAP_GATE"


class ErrorKind(Enum):
    X_TYPE = "X_TYPE"
    ZZ_TYPE = "ZZ_TYPE"


_ANCILLA = 2  # the ancilla's wire; wires 0 and 1 are targets[0], targets[1]


@dataclass(frozen=True)
class _Protocol:
    gates: tuple[tuple[str, tuple[int, int]], ...]  # (qcore gate, wires)
    rotation: bool  # one target, equatorial basis at u; else two targets, Z basis
    error: ErrorKind  # X on the first target, or Z (x) Z on the target pair


_PROTOCOLS: dict[ProtocolKind, _Protocol] = {
    # CZ(target, ancilla), measure the target, the ancilla takes its slot:
    # as CZSWAP = SWAP . CZ, that is CZSWAP(target, ancilla), measure the ancilla.
    ProtocolKind.ONEWAY_ROTATION: _Protocol(
        (("CZSWAP", (0, _ANCILLA)),), rotation=True, error=ErrorKind.X_TYPE
    ),
    # (H (x) H) . CZ on (target, ancilla), measure the ancilla.
    ProtocolKind.ADQC_ROTATION_CZ: _Protocol(
        (("E_CZ", (0, _ANCILLA)),), rotation=True, error=ErrorKind.X_TYPE
    ),
    # CZSWAP(target, ancilla), measure the ancilla.
    ProtocolKind.ADQC_ROTATION_CZSWAP: _Protocol(
        (("CZSWAP", (0, _ANCILLA)),), rotation=True, error=ErrorKind.X_TYPE
    ),
    # (H (x) H) . CZ on (target1, ancilla) then on (target2, ancilla).
    ProtocolKind.ADQC_CZ_GATE: _Protocol(
        (("E_CZ", (0, _ANCILLA)), ("E_CZ", (1, _ANCILLA))),
        rotation=False, error=ErrorKind.X_TYPE,
    ),
    # CZSWAP on (ancilla, target1), (ancilla, target2), (ancilla, target1).
    ProtocolKind.ADQC_CZSWAP_GATE: _Protocol(
        (("CZSWAP", (_ANCILLA, 0)), ("CZSWAP", (_ANCILLA, 1)), ("CZSWAP", (_ANCILLA, 0))),
        rotation=False, error=ErrorKind.ZZ_TYPE,
    ),
}

# Ordered as ProtocolKind: campaigns draw from these sequences by index.
ROTATION_KINDS = tuple(k for k, row in _PROTOCOLS.items() if row.rotation)
# Protocols whose measurement error acts as a bit flip on the first target.
X_ERROR_KINDS = tuple(k for k, row in _PROTOCOLS.items() if row.error is ErrorKind.X_TYPE)

# Inside the package a kind is its code, its index in _KINDS, and each fact
# of its _PROTOCOLS row is an array indexed by the code.
_KINDS = tuple(_PROTOCOLS)
_CODES = {kind: code for code, kind in enumerate(_KINDS)}
_ROTATION = np.array([row.rotation for row in _PROTOCOLS.values()])


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol invocation: kind, register target(s), and angles."""

    kind: ProtocolKind
    targets: tuple[int, ...]
    u: float | None = None
    epsilon: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, ProtocolKind):
            raise ValueError(f"kind {self.kind!r} is not a ProtocolKind")
        object.__setattr__(self, "targets", _entries(self.targets, _integer, "targets"))
        # only u may be None, for a gate kind (checked below)
        for name in ("u", "epsilon", "delta") if self.u is not None else ("epsilon", "delta"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))
        if _PROTOCOLS[self.kind].rotation:
            if len(self.targets) != 1:
                raise ValueError(f"{self.kind.value} takes exactly one target")
            if self.u is None:
                raise ValueError(f"{self.kind.value} requires a rotation angle u")
        else:
            if len(self.targets) != 2 or self.targets[0] == self.targets[1]:
                raise ValueError(f"{self.kind.value} takes two distinct targets")
            if self.u is not None:
                raise ValueError(f"{self.kind.value} does not take a rotation angle")


def _fields(spec: ProtocolSpec) -> dict:
    # a spec as the reports print it
    return {"protocol": spec.kind.value, "targets": list(spec.targets), "u": spec.u,
            "epsilon": spec.epsilon, "delta": spec.delta}


class ProtocolResult(NamedTuple):
    """Per-outcome branches of one protocol run, (2, 2^n) arrays, or of a
    stack of runs, with a leading axis: (B, 2, 2^n).

    ideal_branches hold the normalized outputs of the accurate-measurement
    circuit, ideal_probabilities their outcome probabilities ((2,) or
    (B, 2)); inaccurate_branches are the unnormalized tilted-measurement
    branches, whose squared norms are the outcome probabilities.
    """

    ideal_branches: np.ndarray
    ideal_probabilities: np.ndarray
    inaccurate_branches: np.ndarray


_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
# Every gate the protocols apply, stacked once
_GATE_NAMES = tuple(dict.fromkeys(name for row in _PROTOCOLS.values() for name, _ in row.gates))
_GATE_TABLE = np.stack([qcore.gate(name) for name in _GATE_NAMES])


class _Chains(NamedTuple):
    # The protocols' gate lists as the gate chain runs them: each kind's
    # wiring (the wires of every step), whose frames key the tables of
    # linalg._chain_tables, so kinds that share a pair of frames share its
    # table; and gate step k of each kind, (steps, kinds): its row of
    # _GATE_TABLE, -1 where the kind has no k-th gate.
    wirings: tuple
    gates: np.ndarray


def _chains(rows: Sequence[_Protocol]) -> _Chains:
    wirings = tuple(tuple(wires for _, wires in row.gates) for row in rows)
    depth = max(map(len, wirings))
    gates = [
        [_GATE_NAMES.index(name) for name, _ in row.gates] + [-1] * (depth - len(row.gates))
        for row in rows
    ]
    return _Chains(wirings, np.array(gates).T)


_CHAINS = _chains(list(_PROTOCOLS.values()))


class _Specs(NamedTuple):
    # A stack's protocol invocations as columns, the one form in which they
    # travel inside the package: per row the kind's code, two targets (a
    # rotation's one twice), u (0.0 for a gate kind), epsilon and delta.
    kind: np.ndarray
    targets: np.ndarray
    u: np.ndarray
    epsilon: np.ndarray
    delta: np.ndarray

    def take(self, rows) -> "_Specs":
        return _Specs(*(column[rows] for column in self))


def _columns(rows: Sequence[tuple]) -> _Specs:
    # the columns of checked (kind code, targets, u or None, epsilon, delta) rows
    kind, targets, u, epsilon, delta = zip(*rows) if rows else ((),) * 5
    pairs = np.array([(t[0], t[-1]) for t in targets], dtype=np.intp).reshape(-1, 2)
    u = np.array([0.0 if x is None else x for x in u])
    return _Specs(np.array(kind, dtype=np.intp), pairs, u, np.array(epsilon), np.array(delta))


def _runs(
    states: PureState | np.ndarray, specs: ProtocolSpec | Sequence[ProtocolSpec]
) -> tuple[np.ndarray, _Specs, bool]:
    # The one reader of the input forms: one register (a PureState or a
    # (2^n,) vector) with one spec, or a (B, 2^n) stack with one spec per
    # row.  Every row must be finite and normalized.  Returns the (B, 2^n)
    # stack, its specs as columns, and whether the input was one register.
    amplitudes = linalg._array(
        states.amplitudes if isinstance(states, PureState) else states, "states", finite=True
    )
    one = amplitudes.ndim == 1
    if one != isinstance(specs, ProtocolSpec):
        raise ValueError("one register takes one ProtocolSpec, a (B, 2^n) stack one per row")
    specs = [specs] if one else linalg._sequence(specs, "specs")
    rows = linalg._rows(amplitudes, specs, "specs")
    n = linalg.n_qubits_of(rows.shape[1])
    if n > _MAX_REGISTER:
        raise ValueError(f"register of {n} qubits plus ancilla exceeds {linalg.MAX_QUBITS}")
    norm2 = np.einsum("bi,bi->b", rows.conj(), rows).real
    off = abs(norm2 - 1.0)
    if (off > qcore.NORM_TOL).any():
        raise ValueError(f"register is not normalized: |psi|^2 = {norm2[np.argmax(off)]}")
    for spec in specs:
        if not isinstance(spec, ProtocolSpec):
            raise ValueError(f"spec {spec!r} is not a ProtocolSpec")
    # a target out of range raises in _chain, which every public path runs
    columns = _columns([(_CODES[s.kind], s.targets, s.u, s.epsilon, s.delta) for s in specs])
    return rows, columns, one


def _first(value):
    # row 0 of a one-row stack's result, in the form of one run's: a
    # row of a 1-d array is a float, a result tuple is taken field by field
    if isinstance(value, tuple):
        return type(value)(*map(_first, value))
    return float(value[0]) if isinstance(value, np.ndarray) and value.ndim == 1 else value[0]


def pre_measurement_state(
    states: PureState | np.ndarray, specs: ProtocolSpec | Sequence[ProtocolSpec]
) -> np.ndarray:
    """Register-plus-ancilla amplitudes right before the measurement: a
    (2^(n+1),) vector for one register, or one row per spec of a (B, 2^n)
    stack.

    The ancilla is the last qubit.  Protocols of different kinds share the
    stack: gate step k applies each row's own k-th gate to the rows whose
    protocol has one.
    """
    amplitudes, specs, one = _runs(states, specs)
    vec = _chain(amplitudes, specs)
    rows, dim = vec.shape  # explicit sizes: a stack of no rows reshapes too
    # the chain ends with the ancilla first; move it to the last place
    vec = vec.reshape(rows, 2, dim // 2).swapaxes(1, 2).reshape(rows, dim)
    return _first(vec) if one else vec


def _chain(amplitudes: np.ndarray, specs: _Specs) -> np.ndarray:
    # Each row of a (B, 2^n) stack times |+> on the ancilla, through its
    # gate steps, left in the order of the measurement, the ancilla first:
    # (B, 2^(n+1)).  A step is one gather over linalg._chain_tables, from
    # the register or the last step's order straight into this step's,
    # then each row's 4x4 gate; nothing is scattered back.  Round 0 reads
    # the register times 1/sqrt(2), the entries of |+>.  The rows come from
    # _runs or from a campaign's draws; a target out of range, or one that
    # a two-target kind repeats, has no table of its own, and raises.
    n = amplitudes.shape[1].bit_length() - 1
    targets = specs.targets
    outside = (targets < 0) | (targets >= n)
    if outside.any():
        raise ValueError(f"target {targets[outside][0]} out of range for {n} qubits")
    if (~_ROTATION[specs.kind] & (targets[:, 0] == targets[:, 1])).any():
        raise ValueError("a two-target protocol repeats its target")
    tables, where = linalg._chain_tables(n, _CHAINS.wirings)
    # each row's table of every round, (rounds, B)
    codes = where[:, specs.kind, targets[:, 0], targets[:, 1]]
    vec = amplitudes * _PLUS[0]

    def gather(r, rows):
        return vec.reshape(-1)[tables[codes[r, rows]] + (rows * vec.shape[1])[:, None]]

    for r, step in enumerate(_CHAINS.gates[:, specs.kind]):
        rows = (step >= 0).nonzero()[0]
        if not len(rows):  # no row has this step, nor any later one
            break
        psi = _GATE_TABLE[step[rows]] @ gather(r, rows).reshape(len(rows), 4, -1)
        if len(rows) == len(vec):
            vec = psi.reshape(len(rows), -1)
        else:
            vec[rows] = psi.reshape(len(rows), -1)
    return gather(-1, np.arange(len(vec)))


def _bases(specs: _Specs) -> np.ndarray:
    # Per row, (4, 2): the tilted then the ideal basis vectors.  The ideal
    # basis is the epsilon=0 basis at the *same* delta, which fixes the
    # branch phases so that the error-operator factorization of the
    # inaccurate branches holds exactly, not just up to phase.  Each row's
    # vectors depend on its angles and its kind's reference pair alone.
    rotation = _ROTATION[specs.kind][:, None, None]
    reference = np.where(rotation, qcore._equatorial(specs.u), qcore.Z_PAIR)
    epsilon = np.zeros((len(rotation), 2))
    epsilon[:, 0] = specs.epsilon
    delta = specs.delta.repeat(2).reshape(-1, 2)
    return qcore._tilted(reference[:, None], epsilon, delta).reshape(len(rotation), 4, 2)


def _branches(states: np.ndarray, specs: _Specs, bases: np.ndarray) -> np.ndarray:
    # Each row of a (B, 2^n) stack through its gate steps, then measured in
    # the J basis vectors of its row of `bases`, (B, J, 2): the rows of
    # _bases for the (B, 4, 2^n) tilted then ideal branches, or tilted
    # bases alone for the (B, 2, 2^n) tilted branches, which a caller that
    # reads only those builds, paying for no ideal ones.  Every row
    # measures the ancilla, the last qubit.
    vec = _chain(states, specs)
    return bases.conj() @ vec.reshape(len(vec), 2, vec.shape[1] // 2)


def _run(states: np.ndarray, specs: _Specs, bases: np.ndarray) -> ProtocolResult:
    # run_protocol of a stack that _runs has read, or that the package
    # built, in its rows of _bases
    branches = _branches(states, specs, bases)
    inaccurate, ideal = branches[:, :2], branches[:, 2:]
    probs = np.einsum("bjm,bjm->bj", ideal.conj(), ideal).real
    ideal /= np.sqrt(probs)[..., None]
    return ProtocolResult(ideal, probs, inaccurate)


def run_protocol(
    states: PureState | np.ndarray, specs: ProtocolSpec | Sequence[ProtocolSpec]
) -> ProtocolResult:
    """Run one protocol on one register, or each row's protocol on a
    (B, 2^n) stack: the ProtocolResult of the run or of the stack."""
    amplitudes, specs, one = _runs(states, specs)
    result = _run(amplitudes, specs, _bases(specs))
    return _first(result) if one else result


def mean_gate_fidelity(result: ProtocolResult) -> float | np.ndarray:
    """Outcome-weighted squared overlap of ideal and inaccurate branches,
    a float for one run or one value per row of a stack's result.

    Computed as sum_j |<ideal_j | xi_j>|^2 with xi_j unnormalized, which
    carries the outcome probability weighting implicitly.  The two branch
    arrays must be finite and of one shape, (2, 2^n) or (B, 2, 2^n).
    """
    if not isinstance(result, ProtocolResult):
        raise ValueError(f"result must be a ProtocolResult, not {type(result).__name__}")
    ideal = linalg._array(result.ideal_branches, "ideal_branches", finite=True)
    dim = ideal.shape[-1] if ideal.ndim in (2, 3) and ideal.shape[-2] == 2 else 0
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"ideal_branches shape {ideal.shape} is not (2, 2^n) or (B, 2, 2^n)")
    inaccurate = linalg._array(result.inaccurate_branches, "inaccurate_branches", finite=True)
    if inaccurate.shape != ideal.shape:
        raise ValueError(
            f"inaccurate_branches shape {inaccurate.shape} is not ideal_branches' {ideal.shape}"
        )
    return _fidelity(ideal, inaccurate)


def _fidelity(ideal, inaccurate):
    # mean_gate_fidelity of two branch arrays of one shape, unchecked
    overlap = np.einsum("...jm,...jm->...j", np.conj(ideal), inaccurate)
    fidelity = (overlap.real**2 + overlap.imag**2).sum(axis=-1)
    return float(fidelity) if fidelity.ndim == 0 else fidelity


def closed_form_fidelity(correlator: float, epsilon: float) -> float:
    """cos^2(e/2) + correlator^2 sin^2(e/2)."""
    # a range check only: F uses the correlator unclamped
    entropy._check_unit_interval(correlator, -1.0, 1.0, "correlator")
    return float(_closed_form(correlator, _finite(epsilon, "epsilon")))


def _closed_form(correlator, epsilon):
    # closed_form_fidelity unchecked, for one value or elementwise
    ce, se = np.cos(epsilon / 2.0), np.sin(epsilon / 2.0)
    return ce * ce + correlator * correlator * se * se


def error_operator(kind: ErrorKind, j: int, epsilon: float, delta: float) -> np.ndarray:
    """The generally non-unitary branch error operator

        cos(e/2) + (-1)^j P e^{(-1)^j i delta} sin(e/2)

    with P = X (X_TYPE, 2x2) or P = Z (x) Z (ZZ_TYPE, 4x4).
    """
    if _integer(j, "outcome") not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {j}")
    if not isinstance(kind, ErrorKind):
        raise ValueError(f"unknown error kind {kind!r}")
    pauli = _PAULIS[kind]
    epsilon, delta = _finite(epsilon, "epsilon"), _finite(delta, "delta")
    sign = (-1.0) ** j
    ce, se = np.cos(epsilon / 2.0), np.sin(epsilon / 2.0)
    return ce * np.eye(len(pauli), dtype=complex) + sign * np.exp(sign * 1j * delta) * se * pauli


# Each error kind's Pauli, on as many leading targets as the register is
# reduced to
_PAULIS = {
    ErrorKind.X_TYPE: qcore.gate("X"),
    ErrorKind.ZZ_TYPE: np.kron(qcore.gate("Z"), qcore.gate("Z")),
}
# each kind's error as its code, its index in _PAULIS
_ERROR = np.array([list(_PAULIS).index(row.error) for row in _PROTOCOLS.values()])

# Each bound is 1 - m sin^2(e/2), its measure m taken from the entropy of
# its error kind's reduction: S itself, or 1 - c^2 for the correlator c
# that f or g maps onto it.  Per bound: the error kind, the _Checks column
# of its entropy, the top of the interval [0, top] the entropy is clamped
# to, the least clamped entropy it applies to, and the inversion that
# gives c (None for S).
_BOUNDS = {
    "purity_bound": (ErrorKind.X_TYPE, "purity", 1.0, 0.0, None),
    "sv_bound": (ErrorKind.X_TYPE, "von_neumann", 1.0, 0.0, entropy._f_inverses),
    "sv2_bound": (
        ErrorKind.ZZ_TYPE, "von_neumann", 2.0, entropy.SV2_DOMAIN_EDGE, entropy._g_inverses
    ),
}


def _measures(name: str, entropies: np.ndarray) -> np.ndarray:
    # the named bound's measure of each entropy of a float array, checked
    # in one pass
    invert = _BOUNDS[name][4]
    if invert is None:
        return entropy._in_unit_interval(entropies, 0.0, 1.0, "S")
    c = invert(entropies)
    return 1.0 - c * c


def _bounds(name: str, entropies: np.ndarray, sin_half) -> np.ndarray:
    # The named bound of each entropy of a column, at its row's sin(e/2):
    # the one evaluation of a bound, for the public functions, for
    # FidelityReport.bound and for a campaign's chunk.
    measure = _measures(name, entropies)
    return 1.0 - measure * sin_half * sin_half


def _bound_of_one(name: str, value: float, what: str, epsilon: float) -> float:
    # a public bound function: one entropy, a real number named `what`
    entropies = np.array([linalg._real(value, what)])
    return float(_bounds(name, entropies, np.sin(_finite(epsilon, "epsilon") / 2.0))[0])


def bound_purity(S: float, epsilon: float) -> float:
    """Fidelity bound 1 - S sin^2(e/2) from the purity measure S."""
    return _bound_of_one("purity_bound", S, "S", epsilon)


def bound_sv(Sv: float, epsilon: float) -> float:
    """Fidelity bound 1 - (1 - f_inverse(Sv)^2) sin^2(e/2)."""
    return _bound_of_one("sv_bound", Sv, "entropy", epsilon)


def bound_sv2(Sv2: float, epsilon: float) -> float:
    """Fidelity bound 1 - (1 - g_inverse(Sv2)^2) sin^2(e/2), for Sv2 in [1, 2].

    Values below 1 raise BoundDomainError: no entropy of that size
    constrains the correlator, so no fidelity bound exists there.
    """
    return _bound_of_one("sv2_bound", Sv2, "entropy", epsilon)


class FidelityReport(NamedTuple):
    """analyze() of one run, or of a stack of runs with a leading axis on
    every field: arrays of B values, lists of B reports and dicts, and the
    stack's ProtocolResult.

    A run's bounds are computed where they are read, from its sin(e/2) and
    the clamped entropies kept under the name of the bound they feed: the
    purity and sv bounds for a one-qubit reduction, the sv2 bound for a
    two-qubit one whose entropy lies in its domain.
    """

    simulated_F: float | np.ndarray
    closed_form_F: float | np.ndarray
    correlator_used: float | np.ndarray
    entanglement: EntanglementReport | list[EntanglementReport]
    bound_entropies: dict[str, float] | list[dict[str, float]]
    sin_half: float | np.ndarray  # sin(epsilon / 2)
    result: ProtocolResult  # the protocol run the fidelities come from

    def bound(self, name: str) -> float | None | list[float | None]:
        """The named bound, or None where it does not apply; one value per
        row of a stack."""
        one = isinstance(self.bound_entropies, dict)
        entropies = [self.bound_entropies] if one else self.bound_entropies
        rows = [b for b, row in enumerate(entropies) if name in row]
        out: list = [None] * len(entropies)
        if rows:
            values = np.array([entropies[b][name] for b in rows])
            bounds = _bounds(name, values, np.atleast_1d(self.sin_half)[rows])
            for b, value in zip(rows, bounds.tolist()):
                out[b] = value
        return out[0] if one else out

    @property
    def bounds(self) -> dict[str, float]:
        """Every bound that applies to one run."""
        if not isinstance(self.bound_entropies, dict):
            raise ValueError("bounds describe one run; read a stack's with bound(name)")
        return {name: self.bound(name) for name in self.bound_entropies}

    @property
    def violations(self) -> dict[str, float]:
        """Bound name -> excess, for each bound one run exceeds."""
        excess = {name: self.simulated_F - value for name, value in self.bounds.items()}
        return {name: value for name, value in excess.items() if value > BOUND_SLACK_TOL}


class _Checks(NamedTuple):
    # The analysis pass of a chunk as columns, row for row with its specs:
    # each stack's run, then per row its F and its error kind's code.
    # Where correlators are read, the Pauli expectations, (3, B): <X> and
    # <Y> (NaN on a two-qubit reduction) and the correlator, <Z> or
    # <Z (x) Z>; then the correlator clamped to [-1, 1] and the closed-form
    # F.  Where entropies are read, the purity (NaN on a two-qubit
    # reduction), S and sin(e/2).  A column not read is None.
    results: list[ProtocolResult]
    fidelity: np.ndarray
    error: np.ndarray
    expectations: np.ndarray | None = None
    correlator: np.ndarray | None = None
    closed: np.ndarray | None = None
    purity: np.ndarray | None = None
    von_neumann: np.ndarray | None = None
    sin_half: np.ndarray | None = None


def _bound_entropies(name: str, checks: _Checks) -> tuple[np.ndarray, np.ndarray]:
    # the rows where the named bound applies, and their entropies, clamped
    kind, column, top, lowest, _ = _BOUNDS[name]
    rows = (checks.error == list(_PAULIS).index(kind)).nonzero()[0]
    clamped = np.minimum(np.maximum(getattr(checks, column)[rows], 0.0), top)
    applies = ~(clamped < lowest)
    return rows[applies], clamped[applies]


def _checked_bounds(name: str, checks: _Checks) -> tuple[np.ndarray, np.ndarray]:
    # the rows where the named bound applies, and its value on each
    rows, entropies = _bound_entropies(name, checks)
    return rows, _bounds(name, entropies, checks.sin_half[rows])


def analyze(
    states: PureState | np.ndarray, specs: ProtocolSpec | Sequence[ProtocolSpec]
) -> FidelityReport:
    """Run a protocol and compare its fidelity against the applicable
    bounds, for one register or for each row of a (B, 2^n) stack.

    The reduced input state is taken on the first target (bit-flip-error
    protocols) or on the target pair (the CZSWAP two-qubit gate).  One
    simulation runs the whole stack; each reduction shape then runs once,
    over only the rows of its error kind, and not at all where there are
    none.  A stack of no rows gives a report of no rows.
    """
    amplitudes, specs, one = _runs(states, specs)
    checks = _analyses([amplitudes], specs, correlators=True, entropies=True)
    bound_entropies: list = [{} for _ in checks.error]
    for name in _BOUNDS:
        rows, values = _bound_entropies(name, checks)
        for b, value in zip(rows.tolist(), values.tolist()):
            bound_entropies[b][name] = value
    one_qubit = [len(pauli) == 2 for pauli in _PAULIS.values()]
    rows = zip(
        checks.error.tolist(), checks.purity.tolist(), checks.von_neumann.tolist(),
        checks.expectations[-1].tolist(), entropy._length(checks.expectations).tolist(),
    )
    report = FidelityReport(
        simulated_F=checks.fidelity,
        closed_form_F=checks.closed,
        correlator_used=checks.correlator,
        entanglement=[
            EntanglementReport(p, s, c, r) if one_qubit[e] else EntanglementReport(None, s, c, None)
            for e, p, s, c, r in rows
        ],
        bound_entropies=bound_entropies,
        sin_half=checks.sin_half,
        result=checks.results[0],
    )
    return _first(report) if one else report


def _analyses(
    stacks: Sequence[np.ndarray], specs: _Specs, correlators: bool = False, entropies: bool = False
) -> _Checks:
    # The analysis pass of one or more (B, 2^n) stacks, each of registers
    # of one size, that _runs has read or that the package built from
    # drawn registers and checked values; `specs` holds the rows of every
    # stack, stack after stack.  Each stack is simulated alone: its run, its
    # F and one partial trace per error kind.  What does not depend on the
    # register size runs once over the rows of all stacks, and only where
    # it is read: the bases; per error kind one entropy._expectations call
    # where `correlators` are read, one entropy._mixedness call (validation
    # and eigensolve) where `entropies` are; the closed forms and sin(e/2).
    ends = list(accumulate(len(states) for states in stacks))
    starts = [end - len(states) for end, states in zip(ends, stacks)]
    bases = _bases(specs)
    results = [
        _run(states, specs.take(slice(a, b)), bases[a:b])
        for states, a, b in zip(stacks, starts, ends)
    ]
    errors = _ERROR[specs.kind]
    fidelity = np.concatenate([_fidelity(r.ideal_branches, r.inaccurate_branches) for r in results])
    expectations = np.full((3, len(errors)), np.nan) if correlators else None
    purity, von_neumann = (np.full(len(errors), np.nan) if entropies else None for _ in range(2))
    for code, pauli in enumerate(_PAULIS.values()):
        # the rows of this error kind, stack after stack: stack k holds
        # rows[cuts[k]:cuts[k + 1]]
        rows = (errors == code).nonzero()[0]
        if not len(rows) or not (correlators or entropies):
            continue
        cuts = np.searchsorted(rows, [0, *ends]).tolist()
        keeps = specs.targets[rows, :linalg.n_qubits_of(len(pauli))].tolist()
        rhos = np.concatenate([
            linalg._reduce(states[rows[a:b] - start], keeps[a:b])
            for states, start, a, b in zip(stacks, starts, cuts, cuts[1:]) if a < b
        ])
        if correlators:
            values = entropy._expectations(rhos)
            expectations[3 - len(values):, rows] = values
        if entropies:
            mixed, von_neumann[rows] = entropy._mixedness(rhos)
            if mixed is not None:
                purity[rows] = mixed
    checks = _Checks(results, fidelity, errors)
    if correlators:
        corr = np.minimum(np.maximum(expectations[-1], -1.0), 1.0)
        checks = checks._replace(
            expectations=expectations, correlator=corr, closed=_closed_form(corr, specs.epsilon)
        )
    if entropies:
        checks = checks._replace(
            purity=purity, von_neumann=von_neumann, sin_half=np.sin(specs.epsilon / 2.0)
        )
    return checks
