"""Write every output that a change to adqcsim is compared on, in one process.

    PYTHONPATH=src python tools/outputs.py OUTDIR

Each output goes through `adqcsim.cli.main` with the arguments a command
line would give it, and any warning (a numpy overflow or invalid value
included) is an error.  OUTDIR gets:

- the 40 campaign reports: every campaign at the defaults
  (`verify-<name>.json`), at `--samples 5 --seed 11` (`quick-<name>.json`),
  at 25 samples, seed 11 and tolerance 1e-300 (`tight-<name>.json`) and at
  300 samples, seed 7 and tolerance 1e-300 (`wide-<name>.json`).  Each
  JSON report is written through `--output`; `<stem>.out` holds the
  command's stdout and then its exit code;
- the 50 demo outputs, `demo-<protocol>-<preset>.<table|json>`: every
  protocol on every preset at epsilon 0.9 and delta 0.4, a ':' in the
  preset written as '_';
- the 3 curves at their defaults, `curves-<figure>.csv`.

Two runs agree when `cmp` finds every file equal.  Campaigns run one after
another in this one process, so their reports match the ones that
`adqcsim verify` writes alone only if no cache carries state from one
campaign to the next.
"""
from __future__ import annotations

import contextlib
import io
import sys
import warnings
from pathlib import Path

from adqcsim import cli, verify
from adqcsim.protocols import ProtocolKind

SETTINGS = {
    "verify": [],
    "quick": ["--samples", "5", "--seed", "11"],
    "tight": ["--samples", "25", "--seed", "11", "--tolerance", "1e-300"],
    "wide": ["--samples", "300", "--seed", "7", "--tolerance", "1e-300"],
}
PRESETS = ("bell", "ghz:3", "product:3", "saturate:0.3", "rho_lambda:0.4")
FIGURES = ("fig5", "fig6", "fig7")


def _run(argv: list[str]) -> tuple[int, str]:
    # cli.main's exit code and stdout; stderr goes where it always goes
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def write_outputs(outdir: Path) -> int:
    """Write every output under `outdir`; returns the number of files."""
    outdir.mkdir(parents=True, exist_ok=True)
    files = 0
    for stem, options in SETTINGS.items():
        for name in verify.CAMPAIGN_NAMES:
            report = outdir / f"{stem}-{name}.json"
            code, text = _run(["verify", name, *options, "--output", str(report)])
            if code not in (0, 1):
                raise SystemExit(f"verify {name} {' '.join(options)} exited {code}")
            (outdir / f"{stem}-{name}.out").write_text(f"{text}exit {code}\n", encoding="utf-8")
            files += 2
    for kind in ProtocolKind:
        for preset in PRESETS:
            for fmt in ("table", "json"):
                argv = ["demo", kind.value, "--preset", preset,
                        "--epsilon", "0.9", "--delta", "0.4", "--format", fmt]
                code, text = _run(argv)
                if code != 0:
                    raise SystemExit(f"{' '.join(argv)} exited {code}")
                stem = f"demo-{kind.value}-{preset.replace(':', '_')}"
                (outdir / f"{stem}.{fmt}").write_text(text, encoding="utf-8")
                files += 1
    for figure in FIGURES:
        code, text = _run(["curves", figure])
        if code != 0:
            raise SystemExit(f"curves {figure} exited {code}")
        (outdir / f"curves-{figure}.csv").write_text(text, encoding="utf-8")
        files += 1
    return files


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/outputs.py OUTDIR", file=sys.stderr)
        return 2
    warnings.simplefilter("error")
    files = write_outputs(Path(argv[0]))
    print(f"{files} files in {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
