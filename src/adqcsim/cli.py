"""Command-line front end: bound-curve CSV data, named verification
campaigns with JSON reports, and single protocol demos.

Exit codes: 0 success/pass, 1 verification failure (a failed campaign
report, or a demo that exceeds a bound), 2 usage or I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import protocols, stateio, verify
from .protocols import ProtocolKind, ProtocolSpec
from .qcore import PureState, basis_state

DEFAULT_FIG5_S = (0.2, 0.4, 0.6, 0.8, 1.0)
MAX_CURVE_GRID = 100_000  # points per curve; checked before anything is allocated


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _curve_rows(figure: str, grid: int, s_values: tuple[float, ...]) -> tuple[list[str], list[list[float]]]:
    if not 2 <= grid <= MAX_CURVE_GRID:
        raise ValueError(f"grid resolution must be in [2, {MAX_CURVE_GRID}]")
    if figure == "fig5":
        header = ["epsilon"] + [f"S={s:g}" for s in s_values]
        eps = np.linspace(0.0, np.pi, grid)
        rows = [
            [e] + [protocols.bound_purity(s, e) for s in s_values] for e in map(float, eps)
        ]
    elif figure in ("fig6", "fig7"):
        # the sv or sv2 bound's measure over its entropy's domain, [lo, lo + 1]
        name, lo = ("sv", 0.0) if figure == "fig6" else ("sv2", 1.0)
        header = [f"s_{name[1:]}", "value"]
        svals = np.linspace(lo, lo + 1.0, grid)
        measures = protocols._measures(f"{name}_bound", svals)
        rows = [[s, m] for s, m in zip(svals.tolist(), measures.tolist())]
    else:
        raise ValueError(f"unknown figure {figure!r}")
    return header, rows


def curve_csv(figure: str, grid: int = 201, s_values: tuple[float, ...] = DEFAULT_FIG5_S) -> str:
    """CSV text for one bound-curve figure (fig5, fig6, or fig7)."""
    header, rows = _curve_rows(figure, grid, s_values)
    lines = [",".join(header)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _number(text: str, kind: type, name: str) -> int | float:
    # one int or float; a malformed or empty value raises a ValueError that
    # names `name`, the option or preset token that gave it
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{name}: {text!r} is no {kind.__name__}") from None


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_curves(args: argparse.Namespace) -> int:
    s_values = DEFAULT_FIG5_S
    if args.s_values is not None and args.figure != "fig5":
        raise ValueError(f"--s-values applies to fig5 only, not {args.figure}")
    if args.s_values is not None:  # "" lists no value, and is an error
        s_values = tuple(_number(tok, float, "--s-values") for tok in args.s_values.split(","))
        for s in s_values:
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"S value {s} outside [0, 1]")
    _write_text(args.output, curve_csv(args.figure, args.grid, s_values))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = verify.default_config(
        args.campaign, samples=args.samples, seed=args.seed, tolerance=args.tolerance
    )
    report = verify.run_campaign(config)
    text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True, allow_nan=False)
    text += "\n"
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status} {config.name}: checks={report.checks_run} "
        f"max_violation={report.max_violation:.3e} tolerance={config.tolerance:.1e}"
    )
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


_PRESET_HELP = "bell, ghz:n, product:n, saturate:S, rho_lambda:L"


def _preset_value(token: str, kind: type) -> int | float:
    # the one value after the ':' of a preset token, which must have one
    name, _, arg = token.partition(":")
    if not arg:
        raise ValueError(f"{name} preset needs a value: {name}:<{kind.__name__}>")
    return _number(arg, kind, f"preset {token!r}")


def preset_state(token: str) -> PureState:
    """Build a named preset register (see _PRESET_HELP for the names)."""
    name, sep, _ = token.partition(":")
    if name == "bell":
        if sep:
            raise ValueError(f"bell preset takes no value, got {token!r}")
        vec = np.zeros(4, dtype=complex)
        vec[0b00] = vec[0b11] = 1.0 / np.sqrt(2.0)
        return PureState(2, vec)
    if name in ("ghz", "product"):
        n = _preset_value(token, int) if sep else 3 if name == "ghz" else 2
        largest = protocols._MAX_REGISTER
        if not 1 <= n <= largest:
            raise ValueError(f"preset register of {n} qubits outside [1, {largest}]")
        if name == "product":
            return basis_state(n, 0)
        vec = np.zeros(2**n, dtype=complex)
        vec[0] = vec[-1] = 1.0 / np.sqrt(2.0)
        return PureState(n, vec)
    if name == "saturate":
        return verify.saturating_single_qubit_register(_preset_value(token, float), 2)
    if name == "rho_lambda":
        return verify.purified_rho_lambda(_preset_value(token, float))
    raise ValueError(f"unknown preset {token!r}; presets: {_PRESET_HELP}")


def _demo_report_dict(spec: ProtocolSpec, report) -> dict:
    ent, result = report.entanglement, report.result
    return {
        **protocols._fields(spec),
        "ideal_probabilities": result.ideal_probabilities.tolist(),
        "branch_probabilities": [
            float(np.vdot(x, x).real) for x in result.inaccurate_branches
        ],
        "simulated_F": report.simulated_F,
        "closed_form_F": report.closed_form_F,
        "correlator": report.correlator_used,
        "entanglement": {
            "purity_S": ent.purity_S,
            "von_neumann": ent.von_neumann,
            "correlator": ent.correlator,
            "bloch_length_r": ent.bloch_length_r,
        },
        "bounds": dict(report.bounds),
        "saturated": [
            name
            for name, value in report.bounds.items()
            if abs(report.simulated_F - value) <= protocols.BOUND_SLACK_TOL
        ],
        "violations": [
            {"name": name, "excess": excess} for name, excess in report.violations.items()
        ],
        "notes": _demo_notes(report),
    }


def _demo_notes(report) -> list[str]:
    notes = []
    if not report.bounds:  # only the two-qubit bound has a restricted domain
        notes.append(
            f"S_v2 = {report.entanglement.von_neumann:.6g} is below the bound "
            "domain [1, 2]: no entropy bound applies"
        )
    return notes


def _print_demo_table(info: dict) -> None:
    print(f"protocol:            {info['protocol']} on targets {info['targets']}")
    angles = f"epsilon={info['epsilon']:g} delta={info['delta']:g}"
    if info["u"] is not None:
        angles = f"u={info['u']:g} " + angles
    print(f"angles:              {angles}")
    print(
        "branch probabilities: "
        f"ideal ({info['ideal_probabilities'][0]:.6g}, {info['ideal_probabilities'][1]:.6g})  "
        f"inaccurate ({info['branch_probabilities'][0]:.6g}, {info['branch_probabilities'][1]:.6g})"
    )
    print(f"simulated fidelity:  {info['simulated_F']:.12g}")
    print(f"closed-form fidelity:{info['closed_form_F']:.12g}")
    print(f"correlator:          {info['correlator']:.12g}")
    ent = info["entanglement"]
    if ent["purity_S"] is not None:
        print(f"purity S:            {ent['purity_S']:.12g}")
        print(f"von Neumann S_v:     {ent['von_neumann']:.12g}")
        print(f"Bloch length r:      {ent['bloch_length_r']:.12g}")
    else:
        print(f"von Neumann S_v2:    {ent['von_neumann']:.12g}")
    for name, value in info["bounds"].items():
        flag = "  (saturated)" if name in info["saturated"] else ""
        print(f"bound {name}: {value:.12g}{flag}")
    for note in info["notes"]:
        print(f"note: {note}")
    if info["violations"]:
        for v in info["violations"]:
            print(f"VIOLATION {v['name']}: excess {v['excess']:.3e}")
    else:
        print("violations:          none")


def _cmd_demo(args: argparse.Namespace) -> int:
    if (args.preset is None) == (args.state is None):
        raise ValueError("provide exactly one of --preset or --state")
    if args.preset is not None:
        state = preset_state(args.preset)
        correction = 0.0
    else:
        state, correction = stateio.load_state(args.state)
    kind = ProtocolKind(args.protocol)
    rotation = kind in protocols.ROTATION_KINDS
    if args.targets is not None:  # "" lists no target, and is an error
        targets = tuple(_number(tok, int, "--targets") for tok in args.targets.split(","))
    else:
        targets = (0,) if rotation else (0, 1)
    u = 0.0 if rotation and args.u is None else args.u
    spec = ProtocolSpec(kind, targets, u=u, epsilon=args.epsilon, delta=args.delta)
    report = protocols.analyze(state, spec)
    info = _demo_report_dict(spec, report)
    if correction != 0.0:
        info["notes"].append(f"input renormalized by {correction:.3e}")
    if args.format == "json":
        print(json.dumps(info, indent=2, sort_keys=True, allow_nan=False))
    else:
        _print_demo_table(info)
    return 1 if info["violations"] else 0  # as verify exits on a failed report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adqcsim",
        description="Measurement-driven gate simulation and fidelity-bound checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_curves = sub.add_parser("curves", help="emit bound-curve data as CSV")
    p_curves.add_argument("figure", choices=("fig5", "fig6", "fig7"))
    p_curves.add_argument("--grid", type=int, default=201, help="number of grid points")
    p_curves.add_argument(
        "--s-values", default=None, help="comma-separated S values (fig5 only)"
    )
    p_curves.add_argument("--output", default=None, help="output path (default stdout)")
    p_curves.set_defaults(func=_cmd_curves)

    p_verify = sub.add_parser("verify", help="run a named verification campaign")
    p_verify.add_argument("campaign", choices=verify.CAMPAIGN_NAMES)
    p_verify.add_argument("--samples", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--tolerance", type=float, default=None)
    p_verify.add_argument("--output", default=None, help="JSON report path")
    p_verify.set_defaults(func=_cmd_verify)

    p_demo = sub.add_parser("demo", help="run one protocol and print its report")
    p_demo.add_argument("protocol", choices=[k.value for k in ProtocolKind])
    p_demo.add_argument("--preset", default=None, help=f"named input: {_PRESET_HELP}")
    p_demo.add_argument("--state", default=None, help="input state file path")
    p_demo.add_argument("--targets", default=None, help="comma-separated target qubits")
    p_demo.add_argument("--u", type=float, default=None, help="rotation angle")
    p_demo.add_argument("--epsilon", type=float, default=0.0)
    p_demo.add_argument("--delta", type=float, default=0.0)
    p_demo.add_argument("--format", choices=("table", "json"), default="table")
    p_demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
