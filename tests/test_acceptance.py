"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""
import numpy as np
import pytest

from adqcsim import cli, entropy, linalg, protocols, qcore, verify
from adqcsim.entropy import BoundDomainError
from adqcsim.protocols import ErrorKind, ProtocolKind, ProtocolSpec
from adqcsim.qcore import PureState

import reference

ALL_KINDS = tuple(ProtocolKind)
ROTATIONS = tuple(k for k in ProtocolKind if k in protocols.ROTATION_KINDS)
ZZ = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


def _criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _random_spec(rng, n, kinds=ALL_KINDS):
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind in protocols.ROTATION_KINDS:
        targets = (int(rng.integers(n)),)
        u = float(rng.uniform(0, 2 * np.pi))
    else:
        perm = rng.permutation(n)
        targets = (int(perm[0]), int(perm[1]))
        u = None
    return ProtocolSpec(kind, targets, u=u,
                        epsilon=float(rng.uniform(0, np.pi)),
                        delta=float(rng.uniform(0, 2 * np.pi)))


def test_criterion_01_closed_form_oracle():
    report = verify.run_campaign(
        verify.default_config("equality_oracle", samples=1000, seed=101)
    )
    _criterion(
        1, "closed-form fidelity oracle",
        report.passed and report.checks_run >= 1000,
        f"max gap {report.max_violation:.2e} over {report.checks_run} samples",
    )


def test_criterion_02_delta_independence():
    deltas = (0.0, 0.5, 1.1, 1.9, 2.6, np.pi, 4.2, 5.7)
    worst = 0.0
    count = 0
    rng = np.random.default_rng(102)
    keys = [[102, trial] for trial in range(40)]
    for trial in range(40):
        n = int(rng.integers(2, 6))
        psi = PureState(n, qcore.haar_states(n, [keys[trial]])[0])
        base = _random_spec(rng, n, kinds=(ALL_KINDS[trial % 5],))
        vals = []
        for delta in deltas:
            spec = ProtocolSpec(base.kind, base.targets, u=base.u,
                                epsilon=base.epsilon, delta=delta)
            vals.append(
                protocols.mean_gate_fidelity(protocols.run_protocol(psi, spec))
            )
            count += 1
        worst = max(worst, max(vals) - min(vals))
    _criterion(2, "delta-independence of F", worst <= 1e-10,
               f"max spread {worst:.2e} over {count} runs")


def test_criterion_03_error_operator_factorization():
    rng = np.random.default_rng(103)
    worst = 0.0
    samples = 250
    keys = [[103, trial] for trial in range(samples)]
    for trial in range(samples):
        n = int(rng.integers(2, 6))
        psi = PureState(n, qcore.haar_states(n, [keys[trial]])[0])
        spec = _random_spec(rng, n)
        res = protocols.run_protocol(psi, spec)
        if spec.kind in protocols.X_ERROR_KINDS:
            ekind, takes = ErrorKind.X_TYPE, (spec.targets[0],)
        else:
            ekind, takes = ErrorKind.ZZ_TYPE, spec.targets
        for j in range(2):
            a = protocols.error_operator(ekind, j, spec.epsilon, spec.delta)
            pred = np.sqrt(res.ideal_probabilities[j]) * reference.apply_matrix(
                res.ideal_branches[j], a, takes
            )
            worst = max(worst, float(np.max(np.abs(pred - res.inaccurate_branches[j]))))
    _criterion(3, "error-operator factorization", worst <= 1e-12,
               f"max |xi - sqrt(p) A phi| = {worst:.2e} over {samples} samples")


def test_criterion_04_circuit_equivalence():
    report = verify.run_campaign(
        verify.default_config("circuit_equivalence", samples=200, seed=104)
    )
    _criterion(4, "rotation circuit equivalence",
               report.passed and report.checks_run >= 200,
               f"max branch distance {report.max_violation:.2e}")


def _expected_cz_gate(spect, z1, z2, t1, t2, n):
    pm = {0: PLUS, 1: MINUS}
    sign = -1.0 if (z1, z2) == (1, 1) else 1.0
    factors = [None] * (n + 1)
    spect_axes = [q for q in range(n) if q not in (t1, t2)]
    for axis, comp in zip(spect_axes, spect):
        factors[axis] = comp
    factors[t1], factors[t2], factors[n] = pm[z1], pm[z2], pm[z1]
    vec = np.array([sign], dtype=complex)
    for fac in factors:
        vec = np.kron(vec, fac)
    return vec


def _expected_czswap_gate(spect, z1, z2, t1, t2, n):
    pm = {0: PLUS, 1: MINUS}
    e = {0: np.array([1, 0], dtype=complex), 1: np.array([0, 1], dtype=complex)}
    sign = -1.0 if (z1, z2) == (1, 1) else 1.0
    factors = [None] * (n + 1)
    spect_axes = [q for q in range(n) if q not in (t1, t2)]
    for axis, comp in zip(spect_axes, spect):
        factors[axis] = comp
    factors[t1], factors[t2] = e[z2], e[z1]  # pair swapped by the gate
    factors[n] = pm[(z1 + z2) % 2]
    vec = np.array([sign], dtype=complex)
    for fac in factors:
        vec = np.kron(vec, fac)
    return vec


def test_criterion_05_pre_measurement_expansions():
    rng = np.random.default_rng(105)
    worst = 0.0
    cases = 0
    for kind, builder in (
        (ProtocolKind.ADQC_CZ_GATE, _expected_cz_gate),
        (ProtocolKind.ADQC_CZSWAP_GATE, _expected_czswap_gate),
    ):
        for n, t1, t2 in ((2, 0, 1), (3, 0, 2), (3, 2, 1), (4, 1, 3)):
            for z1 in range(2):
                for z2 in range(2):
                    for _ in range(3):  # several spectator draws
                        comps = [
                            rng.standard_normal(2) + 1j * rng.standard_normal(2)
                            for _ in range(n - 2)
                        ]
                        comps = [c / np.linalg.norm(c) for c in comps]
                        factors = [None] * n
                        spect_axes = [q for q in range(n) if q not in (t1, t2)]
                        for axis, comp in zip(spect_axes, comps):
                            factors[axis] = comp
                        e = np.eye(2, dtype=complex)
                        factors[t1], factors[t2] = e[z1], e[z2]
                        vec = np.array([1.0], dtype=complex)
                        for fac in factors:
                            vec = np.kron(vec, fac)
                        psi = PureState(n, vec / np.linalg.norm(vec))
                        spec = ProtocolSpec(kind, (t1, t2), epsilon=1.2, delta=0.8)
                        got = protocols.pre_measurement_state(psi, spec)
                        want = builder(comps, z1, z2, t1, t2, n)
                        worst = max(worst, float(np.max(np.abs(got - want))))
                        cases += 1
    _criterion(5, "pre-measurement expansions", worst <= 1e-12,
               f"max amplitude error {worst:.2e} over {cases} cases")


def test_criterion_06_bounds_hold():
    reports = {}
    for name in ("bound_main", "bound_sv", "bound_main2"):
        reports[name] = verify.run_campaign(
            verify.default_config(name, samples=1000, seed=106)
        )
    ok = all(r.passed for r in reports.values())
    ok = ok and reports["bound_main2"].stats["min_sv2"] >= 1.0
    detail = ", ".join(
        f"{name} max {r.max_violation:.1e}" for name, r in reports.items()
    )
    _criterion(6, "fidelity bounds", ok, detail)


def test_criterion_07_saturation():
    worst = 0.0
    rng = np.random.default_rng(107)
    for i, s_val in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
        psi = verify.saturating_single_qubit_register(s_val, 2)
        for eps in (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi):
            spec = ProtocolSpec(ROTATIONS[i % 3], (0,),
                                u=float(rng.uniform(0, 2 * np.pi)),
                                epsilon=eps, delta=float(rng.uniform(0, 2 * np.pi)))
            rep = protocols.analyze(psi, spec)
            worst = max(worst, abs(rep.simulated_F - rep.bounds["purity_bound"]))
    psi = verify.bell_pair_register()
    for eps in (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi):
        spec = ProtocolSpec(ProtocolKind.ADQC_CZSWAP_GATE, (0, 1), epsilon=eps)
        rep = protocols.analyze(psi, spec)
        worst = max(worst, abs(rep.simulated_F - rep.bounds["sv2_bound"]))
    _criterion(7, "bound saturation", worst <= 1e-9, f"max |F - bound| = {worst:.2e}")


def test_criterion_08_appendix_suite():
    reports = {}
    for name in ("monotonicity", "interm", "jonas"):
        reports[name] = verify.run_campaign(
            verify.default_config(name, samples=1000, seed=108)
        )
    # random_density_matrix(2, [108, i]) for i < 1000, its registers drawn
    # in one call, validated, and solved, once as one stack for the three
    # checks, each called once on the whole stack
    psis = list(qcore.haar_states(4, [[108, i] for i in range(1000)]))
    rho = entropy.validate_density(linalg.partial_trace(np.array(psis), [(0, 1)] * 1000))
    sigma = entropy.validate_density(np.eye(4, dtype=complex) / 4, vectors=True)
    s_mono = verify.check_monotonicity(rho, sigma)
    s_interm = verify.check_interm(rho)
    s_jonas = verify.check_jonas(rho)
    chain_worst = float(abs(s_mono - s_interm).max())  # NaN fails the comparison below
    chain_order = float((s_interm - s_jonas).max())
    ok = all(r.passed for r in reports.values())
    ok = ok and chain_worst <= 1e-10 and chain_order <= 1e-10
    _criterion(
        8, "relative-entropy suite", ok,
        f"slack mins {[f'{-r.max_violation:.1e}' for r in reports.values()]}, "
        f"chain gap {chain_worst:.1e}",
    )


def test_criterion_09_counterexample_family():
    ok = True
    sv2_values = []
    for lam in np.linspace(0.0, 1.0, 21):
        rho = verify.rho_lambda(float(lam))
        czz = entropy.correlator(rho, ZZ)
        ok = ok and czz == 1.0  # exact, by diagonal arithmetic
        sv2 = entropy.von_neumann(rho)
        sv2_values.append(sv2)
        if sv2 < 1.0 - 1e-12:
            with pytest.raises(BoundDomainError):
                protocols.bound_sv2(sv2, 0.7)
    ok = ok and abs(min(sv2_values)) <= 1e-12
    ok = ok and abs(max(sv2_values) - 1.0) <= 1e-12
    ok = ok and all(-1e-12 <= v <= 1.0 + 1e-12 for v in sv2_values)
    _criterion(9, "counterexample family", ok,
               f"C_zz exact 1 on 21-point grid, S_v2 sweeps [0, 1]")


def test_criterion_10_inverse_functions():
    worst_f = max(
        abs(entropy.f(entropy.f_inverse(s)) - s) for s in np.linspace(0, 1, 1001)
    )
    worst_g = max(
        abs(entropy.g(entropy.g_inverse(s)) - s) for s in np.linspace(1, 2, 1001)
    )
    worst_id = max(
        abs(entropy.g(c) - 1.0 - entropy.f(c)) for c in np.linspace(0, 1, 1001)
    )
    ok = worst_f <= 1e-9 and worst_g <= 1e-9 and worst_id <= 1e-12
    _criterion(10, "inverse functions", ok,
               f"round trips {worst_f:.1e}/{worst_g:.1e}, g-1-f {worst_id:.1e}")


def test_criterion_11_figure_data():
    fig5 = cli.curve_csv("fig5", grid=201)
    lines = fig5.strip().split("\n")
    cells = lines[-1].split(",")
    ok = cells[-1] == "0"  # epsilon = pi, S = 1
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    for row in rows[1:]:  # epsilon in (0, pi]: larger S at or below smaller S
        vals = row[1:]
        ok = ok and all(a >= b for a, b in zip(vals, vals[1:]))
    for figure in ("fig6", "fig7"):
        text = cli.curve_csv(figure, grid=201)
        ys = [float(line.split(",")[1]) for line in text.strip().split("\n")[1:]]
        ok = ok and all(b - a >= -1e-12 for a, b in zip(ys, ys[1:]))
    _criterion(11, "figure data", ok, "fig5 endpoint 0, fig6/fig7 monotone")
