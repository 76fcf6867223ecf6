import dataclasses
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from adqcsim import cli, linalg, protocols, qcore, stateio, verify
from adqcsim.qcore import PureState


# ---------------------------------------------------------------- stateio

def test_state_round_trip():
    st = qcore.random_pure_state(3, 404)
    text = stateio.dumps_state(st)
    loaded, correction = stateio.loads_state(text)
    assert loaded.n_qubits == 3
    # %.17g round-trips each amplitude; renormalization may touch last bits
    assert np.max(np.abs(loaded.amplitudes - st.amplitudes)) < 1e-15
    assert abs(correction) < 1e-15


@pytest.mark.parametrize("label", ["", "plain", "tab\there", "a # b", "label: nested", "qubits: 3"])
def test_a_one_line_label_is_read_and_skipped(label):
    # dumps_state writes no label; a hand-written one after the header loads
    st = qcore.random_pure_state(2, 409)
    text = stateio.dumps_state(st).replace("\n", f"\nlabel: {label}\n", 1)
    assert len(text.splitlines()) == 2 + np.count_nonzero(st.amplitudes)
    loaded, _ = stateio.loads_state(text)
    assert np.max(np.abs(loaded.amplitudes - st.amplitudes)) < 1e-15


def test_state_loader_fills_missing_and_renormalizes():
    text = "qubits: 2\n0 0.7071067809 0.0\n3 0.7071067809 0.0\n"
    st, correction = stateio.loads_state(text)
    assert st.amplitudes[1] == 0 and st.amplitudes[2] == 0
    assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-15
    assert 0 < abs(correction) < 1e-8


def test_state_loader_comments():
    text = "# a comment\nqubits: 1\nlabel: plus\n0 0.7071067811865476 0 # inline\n1 0.7071067811865476 0\n"
    st, _ = stateio.loads_state(text)
    assert st.n_qubits == 1


_BAD_STATES = [
    ("", "empty state document"),
    ("0 1 0\n", "expected 'qubits: n' first"),
    ("qubits: 2\n5 1 0\n", "index 5 out of range"),
    ("qubits: 2\n0 1 0\n0 0 0\n", "duplicate index 0"),
    ("qubits: 2\n0 0.5 0\n", "do not normalize"),
    ("qubits: 2\n0 one 0\n", "malformed amplitude entry"),
    ("qubits: 0\n", "n_qubits=0 out of range"),
    ("qubits: 1\n0 nan 0\n", "do not normalize"),  # NaN compares false to the norm check
    ("qubits: 1\n0 1 0\n1 inf 0\n", "do not normalize"),
    ("qubits: two\n", "line 1: bad qubit count"),
    ("qubits: 1\nlabel: a\nlabel: b\n0 1 0\n", "line 3: misplaced label"),
    ("qubits: 1\n0 1 0\nlabel: a\n", "line 3: misplaced label"),
    ("qubits: 1\n0 1\n", "line 2: expected 'index real imag'"),
]


@pytest.mark.parametrize("text, message", _BAD_STATES, ids=[text for text, _ in _BAD_STATES])
def test_state_loader_rejects(text, message):
    with pytest.raises(ValueError, match=message):
        stateio.loads_state(text)


@pytest.mark.parametrize("call, argument", [
    (lambda: stateio.dumps_state(None), "state"),
    (lambda: stateio.dumps_state(np.zeros(2)), "state"),
    (lambda: stateio.loads_state(None), "text"),
    (lambda: stateio.loads_state(b"qubits: 1\n0 1 0\n"), "text"),
], ids=["dumps_none", "dumps_array", "loads_none", "loads_bytes"])
def test_state_io_given_the_wrong_type_names_its_argument(call, argument):
    # these used to raise AttributeError or, for bytes, TypeError
    with pytest.raises(ValueError, match=f"{argument} must be a"):
        call()


def test_state_loader_register_limit_is_linalg_max_qubits(monkeypatch):
    monkeypatch.setattr(linalg, "MAX_QUBITS", 2)
    with pytest.raises(ValueError, match="out of range"):
        stateio.loads_state("qubits: 3\n0 1 0\n")


def test_state_file_io(tmp_path):
    path = tmp_path / "state.txt"
    st = qcore.random_pure_state(2, 405)
    path.write_text(stateio.dumps_state(st), encoding="utf-8")
    loaded, _ = stateio.load_state(str(path))
    assert np.max(np.abs(loaded.amplitudes - st.amplitudes)) < 1e-15


# ----------------------------------------------------------------- curves

def test_fig5_csv_shape_and_endpoint():
    text = cli.curve_csv("fig5", grid=5)
    lines = text.strip().split("\n")
    assert lines[0] == "epsilon,S=0.2,S=0.4,S=0.6,S=0.8,S=1"
    assert len(lines) == 6
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(np.pi, abs=1e-15)
    assert last[-1] == "0"  # S=1 at epsilon=pi, exact to formatting


def test_fig5_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["curves", "fig5", "--grid", "40", "--output", str(out1)]) == 0
    assert cli.main(["curves", "fig5", "--grid", "40", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_fig5_s_ordering():
    text = cli.curve_csv("fig5", grid=30)
    rows = [list(map(float, line.split(","))) for line in text.strip().split("\n")[1:]]
    for row in rows[1:]:  # epsilon > 0: larger S lies at or below smaller S
        vals = row[1:]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("figure,lo,hi", [("fig6", 0.0, 1.0), ("fig7", 1.0, 2.0)])
def test_fig67_monotone_and_endpoints(figure, lo, hi):
    text = cli.curve_csv(figure, grid=101)
    rows = [list(map(float, line.split(","))) for line in text.strip().split("\n")[1:]]
    xs = [r[0] for r in rows]
    ys = [r[1] for r in rows]
    assert xs[0] == lo and xs[-1] == hi
    assert ys[0] == pytest.approx(0.0, abs=1e-12)
    assert ys[-1] == pytest.approx(1.0, abs=1e-12)
    assert all(b - a >= -1e-12 for a, b in zip(ys, ys[1:]))


@pytest.mark.parametrize("figure,bound", [("fig6", "sv_bound"), ("fig7", "sv2_bound")])
def test_fig67_rows_are_the_bounds_measure_bit_for_bit(figure, bound):
    # 1 - c^2 as the bound computes it; c ** 2 differs from c * c at
    # s = 0.18 on the default grid
    for s, value in cli._curve_rows(figure, 201, cli.DEFAULT_FIG5_S)[1]:
        assert value.hex() == float(protocols._measures(bound, np.array([s]))[0]).hex()


@pytest.mark.parametrize("output", [[], ["--output", "-"]])
def test_curves_without_an_output_file_write_to_stdout(output, capsys):
    assert cli.main(["curves", "fig6", "--grid", "3", *output]) == 0
    captured = capsys.readouterr()
    assert captured.out == cli.curve_csv("fig6", 3) and captured.err == ""


def test_curves_custom_s_values(tmp_path):
    out = tmp_path / "c.csv"
    assert cli.main(["curves", "fig5", "--grid", "3", "--s-values", "0.1,0.9",
                     "--output", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "epsilon,S=0.1,S=0.9"


def test_curves_bad_grid_is_usage_error():
    assert cli.main(["curves", "fig5", "--grid", "1"]) == 2


def test_curve_csv_rejects_an_unknown_figure():
    # the CLI offers fig5-fig7 only; the library call checks for itself
    with pytest.raises(ValueError, match="unknown figure 'fig9'"):
        cli.curve_csv("fig9")


@pytest.mark.parametrize("figure", ["fig5", "fig6", "fig7"])
def test_curves_grid_above_the_limit_is_usage_error(monkeypatch, figure):
    # refused before any grid is built
    def no_grid(*args, **kwargs):
        raise AssertionError("grid allocated")

    monkeypatch.setattr(np, "linspace", no_grid)
    assert cli.main(["curves", figure, "--grid", str(cli.MAX_CURVE_GRID + 1)]) == 2


def test_curves_bad_s_value():
    assert cli.main(["curves", "fig5", "--s-values", "2.0"]) == 2


@pytest.mark.parametrize("s_values", ["", ",", "0.3,", " ", "0.3,,0.4", "0.3,x"])
def test_curves_empty_s_value_is_usage_error(s_values, capsys):
    # "" used to fall back on the default S values and exit 0; a malformed
    # entry is reported under the option's name
    assert cli.main(["curves", "fig5", "--s-values", s_values]) == 2
    assert "error: --s-values: " in capsys.readouterr().err


@pytest.mark.parametrize("figure", ["fig6", "fig7"])
def test_curves_s_values_is_for_fig5_only(figure, capsys):
    assert cli.main(["curves", figure, "--s-values", "0.3"]) == 2
    assert "fig5 only" in capsys.readouterr().err


def test_curves_unwritable_output():
    assert cli.main(["curves", "fig5", "--output", "/nonexistent/dir/x.csv"]) == 2


# ----------------------------------------------------------------- verify

def test_verify_writes_schema_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli.main([
        "verify", "equality_oracle", "--samples", "30", "--seed", "7",
        "--output", str(out),
    ])
    assert rc == 0
    summary = capsys.readouterr().out
    assert summary.startswith("PASS equality_oracle")
    data = json.loads(out.read_text())
    for key in ("campaign", "seed", "samples", "tolerance", "checks_run",
                "max_violation", "worst_case", "passed"):
        assert key in data
    assert data["passed"] is True
    assert data["seed"] == 7 and data["samples"] == 30
    # emitted report round-trips through the JSON codec unchanged
    assert json.dumps(json.loads(out.read_text()), indent=2, sort_keys=True) + "\n" \
        == out.read_text()


def test_verify_failure_exit_code(tmp_path):
    out = tmp_path / "report.json"
    rc = cli.main([
        "verify", "equality_oracle", "--samples", "10", "--seed", "7",
        "--tolerance", "1e-30", "--output", str(out),
    ])
    assert rc == 1
    data = json.loads(out.read_text())
    assert data["passed"] is False
    assert data["worst_case"] is not None


def test_verify_nan_violation_fails_with_strict_json(monkeypatch, tmp_path, capsys):
    def evaluate(cfg, chunk):
        return [math.nan if i == 2 else 0.0 for i in chunk.indices], {}
    campaign = dataclasses.replace(verify._CAMPAIGNS["counterexample"], evaluate=evaluate)
    monkeypatch.setitem(verify._CAMPAIGNS, "counterexample", campaign)
    out = tmp_path / "report.json"
    rc = cli.main(["verify", "counterexample", "--samples", "5", "--tolerance", "1",
                   "--output", str(out)])
    assert rc == 1
    assert capsys.readouterr().out.startswith("FAIL counterexample")
    data = json.loads(out.read_text(), parse_constant=pytest.fail)
    assert data["passed"] is False
    assert data["max_violation"] == "nan"
    config = verify.default_config("counterexample", samples=5, tolerance=1)
    assert data["worst_case"] == campaign.draw(config, [2]).payload()
    assert data["worst_case"]["sample_index"] == 2


def test_verify_without_checks_exits_1(capsys):
    # bound_main2's one sample at seed 16 is below the S_v2 >= 1 domain
    assert cli.main(["verify", "bound_main2", "--samples", "1", "--seed", "16"]) == 1
    assert capsys.readouterr().out.startswith("FAIL bound_main2: checks=0")


def test_verify_rejects_non_finite_tolerance():
    assert cli.main(["verify", "jonas", "--tolerance", "nan"]) == 2


def test_verify_unknown_campaign_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nosuch"])
    assert exc.value.code == 2


def test_verify_without_output_prints_json(capsys):
    rc = cli.main(["verify", "counterexample"])
    assert rc == 0
    out = capsys.readouterr().out
    summary, _, rest = out.partition("\n")
    assert summary.startswith("PASS counterexample")
    data = json.loads(rest)
    assert data["campaign"] == "counterexample"
    assert data["stats"]["max_sv2"] == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------- demo

def demo_json(args, capsys):
    rc = cli.main(args + ["--format", "json"])
    assert rc == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("flag", ["--epsilon", "--delta", "--u"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_demo_non_finite_angle_exits_2(flag, value, capsys):
    rc = cli.main(["demo", "ADQC_ROTATION_CZ", "--preset", "bell", f"{flag}={value}",
                   "--format", "json"])
    assert rc == 2
    assert capsys.readouterr().out == ""


def test_demo_bell_saturation(capsys):
    info = demo_json([
        "demo", "ADQC_ROTATION_CZ", "--preset", "bell",
        "--u", "0.4", "--epsilon", repr(np.pi / 2),
    ], capsys)
    assert info["simulated_F"] == pytest.approx(0.5, abs=1e-12)
    assert info["bounds"]["purity_bound"] == pytest.approx(0.5, abs=1e-12)
    assert "purity_bound" in info["saturated"]
    assert info["violations"] == []


def test_demo_zero_tilt_any_protocol(capsys):
    for kind in ("ONEWAY_ROTATION", "ADQC_CZ_GATE"):
        info = demo_json(["demo", kind, "--preset", "ghz:3"], capsys)
        assert info["simulated_F"] == pytest.approx(1.0, abs=1e-12)
        assert info["violations"] == []


def test_demo_rho_lambda_counterexample(capsys):
    info = demo_json([
        "demo", "ADQC_CZSWAP_GATE", "--preset", "rho_lambda:0.3",
        "--epsilon", "0.9", "--delta", "1.2",
    ], capsys)
    assert info["correlator"] == pytest.approx(1.0, abs=1e-14)
    assert info["simulated_F"] == pytest.approx(1.0, abs=1e-12)
    assert info["entanglement"]["von_neumann"] == pytest.approx(0.8813, abs=1e-3)
    assert "sv2_bound" not in info["bounds"]
    assert any("below the bound domain" in note for note in info["notes"])


def test_demo_table_below_the_sv2_domain(capsys):
    # a two-qubit reduction with S_v2 < 1: the table prints its S_v2 row
    # and the note, and no bound
    assert cli.main(["demo", "ADQC_CZSWAP_GATE", "--preset", "rho_lambda:0.3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    (row,) = [line for line in lines if line.startswith("von Neumann S_v2:")]
    assert float(row.split(":")[1]) == pytest.approx(0.8813, abs=1e-3)
    (note,) = [line for line in lines if line.startswith("note: ")]
    assert note.startswith("note: S_v2 = ") and "below the bound domain" in note
    assert not [line for line in lines if line.startswith("bound ")]
    assert not [line for line in lines if line.startswith(("purity S:", "VIOLATION"))]


def test_demo_saturate_preset(capsys):
    info = demo_json([
        "demo", "ONEWAY_ROTATION", "--preset", "saturate:0.36",
        "--u", "1.0", "--epsilon", "0.8",
    ], capsys)
    assert info["entanglement"]["purity_S"] == pytest.approx(0.36, abs=1e-12)
    assert "purity_bound" in info["saturated"]


def test_demo_reports_each_exceeded_bound_with_its_excess():
    # no correct run exceeds a bound, so raise a report's simulated fidelity
    spec = protocols.ProtocolSpec(
        protocols.ProtocolKind.ADQC_ROTATION_CZ, (0,), u=0.4, epsilon=1.0, delta=0.2
    )
    report = protocols.analyze(cli.preset_state("bell"), spec)
    report = report._replace(simulated_F=report.simulated_F + 0.1)
    assert report.violations == {
        name: report.simulated_F - value for name, value in report.bounds.items()
    }
    assert list(report.violations) == ["purity_bound", "sv_bound"]
    info = cli._demo_report_dict(spec, report)
    assert info["violations"] == [
        {"name": name, "excess": excess} for name, excess in report.violations.items()
    ]
    assert all(v["excess"] > protocols.BOUND_SLACK_TOL for v in info["violations"])


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_demo_that_exceeds_a_bound_exits_1(monkeypatch, capsys, fmt):
    # as verify exits 1 on a failed report; no correct run exceeds a bound,
    # so the report that analyze gives the demo has its fidelity raised
    analyze = protocols.analyze

    def raised(states, specs):
        report = analyze(states, specs)
        return report._replace(simulated_F=report.simulated_F + 0.1)

    spec = protocols.ProtocolSpec(
        protocols.ProtocolKind.ADQC_ROTATION_CZ, (0,), u=0.4, epsilon=1.0, delta=0.2
    )
    excess = raised(cli.preset_state("bell"), spec).violations
    assert list(excess) == ["purity_bound", "sv_bound"]
    monkeypatch.setattr(protocols, "analyze", raised)
    rc = cli.main(["demo", "ADQC_ROTATION_CZ", "--preset", "bell", "--u", "0.4",
                   "--epsilon", "1.0", "--delta", "0.2", "--format", fmt])
    out = capsys.readouterr().out
    assert rc == 1
    if fmt == "table":
        lines = [line for line in out.splitlines() if line.startswith("VIOLATION")]
        assert lines == [f"VIOLATION {name}: excess {x:.3e}" for name, x in excess.items()]
    else:
        violations = json.loads(out)["violations"]
        assert violations == [{"name": name, "excess": x} for name, x in excess.items()]


def test_demo_runs_the_protocol_once(monkeypatch, capsys):
    # every simulation is one call of protocols._branches, here on a
    # stack of one row
    calls = []
    run = protocols._branches

    def counted(amplitudes, specs, bases):
        calls.append(len(specs.kind))
        return run(amplitudes, specs, bases)

    monkeypatch.setattr(protocols, "_branches", counted)
    info = demo_json(["demo", "ADQC_CZ_GATE", "--preset", "ghz:3", "--epsilon", "0.4"], capsys)
    assert calls == [1]
    assert sum(info["branch_probabilities"]) == pytest.approx(1.0, abs=1e-12)


def test_demo_table_output(capsys):
    rc = cli.main(["demo", "ADQC_ROTATION_CZSWAP", "--preset", "bell",
                   "--u", "0.3", "--epsilon", "1.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "simulated fidelity" in out
    assert "(saturated)" in out


def test_demo_state_file(tmp_path, capsys):
    path = tmp_path / "in.txt"
    path.write_text(stateio.dumps_state(qcore.random_pure_state(3, 406)), encoding="utf-8")
    info = demo_json([
        "demo", "ADQC_CZ_GATE", "--state", str(path), "--targets", "2,0",
        "--epsilon", "0.4",
    ], capsys)
    assert info["targets"] == [2, 0]
    assert abs(info["simulated_F"] - info["closed_form_F"]) < 1e-10


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_demo_notes_a_state_file_it_renormalized(tmp_path, capsys, fmt):
    # a file normalized within the loader's tolerance but not exactly is
    # renormalized, and the demo says by how much
    path = tmp_path / "in.txt"
    path.write_text("qubits: 1\n0 0.6 0\n1 0.8000000001 0\n", encoding="utf-8")
    args = ["demo", "ADQC_ROTATION_CZ", "--state", str(path)]
    if fmt == "json":
        info = demo_json(args, capsys)
        assert "input renormalized by 8.000e-11" in info["notes"]
    else:
        assert cli.main(args) == 0
        assert "note: input renormalized by 8.000e-11" in capsys.readouterr().out.splitlines()


def test_demo_malformed_state_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("qubits: 2\n9 1 0\n")
    assert cli.main(["demo", "ADQC_CZ_GATE", "--state", str(path)]) == 2


def test_demo_requires_exactly_one_source(tmp_path):
    assert cli.main(["demo", "ADQC_CZ_GATE"]) == 2
    path = tmp_path / "in.txt"
    path.write_text(stateio.dumps_state(qcore.random_pure_state(2, 407)), encoding="utf-8")
    assert cli.main(["demo", "ADQC_CZ_GATE", "--preset", "bell",
                     "--state", str(path)]) == 2


def test_demo_rejects_u_for_two_qubit_gate():
    assert cli.main(["demo", "ADQC_CZ_GATE", "--preset", "bell", "--u", "0.5"]) == 2


def test_demo_bad_targets(capsys):
    assert cli.main(["demo", "ADQC_ROTATION_CZ", "--preset", "bell",
                     "--targets", "7"]) == 2
    capsys.readouterr()
    # "" lists no target; it used to fall back on the default targets and
    # exit 0.  A malformed entry is reported under the option's name
    for targets in ("", "0,x", "0,,1", "1.0"):
        assert cli.main(["demo", "ADQC_CZ_GATE", "--preset", "bell", "--targets", targets]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: --targets: " in captured.err


def test_preset_errors(capsys):
    with pytest.raises(ValueError, match="unknown preset"):
        cli.preset_state("nosuch")
    # an empty value is an error; "ghz:" and "product:" used to run the
    # default register and exit 0
    for token in ("saturate", "rho_lambda", "saturate:", "rho_lambda:", "ghz:", "product:"):
        with pytest.raises(ValueError, match="needs a value"):
            cli.preset_state(token)
        assert cli.main(["demo", "ADQC_CZ_GATE", "--preset", token]) == 2
        assert "needs a value" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["ghz:x", "product:2.0", "ghz:3,4", "saturate:abc", "rho_lambda:0.4x"])
def test_a_malformed_preset_value_names_its_token(token, capsys):
    # Python's parse message alone named no token
    with pytest.raises(ValueError, match=f"^preset '{re.escape(token)}': "):
        cli.preset_state(token)
    assert cli.main(["demo", "ADQC_CZ_GATE", "--preset", token]) == 2
    assert f"error: preset '{token}': " in capsys.readouterr().err


# every protocol adds an ancilla, so a preset register holds at most 7 qubits
@pytest.mark.parametrize("token", [
    "ghz:-1", "ghz:0", "ghz:8", "ghz:9", "product:-2", "product:0", "product:8", "product:9",
])
def test_preset_register_size_out_of_range(token, capsys):
    with pytest.raises(ValueError, match="outside"):
        cli.preset_state(token)
    assert cli.main(["demo", "ADQC_CZ_GATE", "--preset", token]) == 2
    assert "error:" in capsys.readouterr().err


def test_bell_preset_takes_no_value(capsys):
    for token in ("bell:5", "bell:"):
        with pytest.raises(ValueError, match="no value"):
            cli.preset_state(token)
    assert cli.main(["demo", "ADQC_CZ_GATE", "--preset", "bell:5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_preset_shapes():
    assert cli.preset_state("bell").n_qubits == 2
    assert cli.preset_state("ghz:4").n_qubits == 4
    assert cli.preset_state("product:3").n_qubits == 3
    assert isinstance(cli.preset_state("rho_lambda:0.5"), PureState)


# ------------------------------------------------------------- entry point

def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "adqcsim", "curves", "fig6", "--grid", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "s_v,value"
