"""Write every output that a change to adqcsim is compared on, in one process.

    PYTHONPATH=src python tools/outputs.py OUTDIR

Each report, demo output and curve goes through `adqcsim.cli.main` with
the arguments a command line would give it; the digests run the
campaigns' chunks through `adqcsim.verify` directly.  Any warning (a
numpy overflow or invalid value included) is an error.  OUTDIR gets:

- the 50 campaign reports, every campaign at five settings: the defaults
  (`verify-<name>.json`), `--samples 5 --seed 11` (`quick-<name>.json`),
  the same at tolerance 1e-300 (`tight-quick-<name>.json`), 25 samples,
  seed 11 and tolerance 1e-300 (`tight-<name>.json`), and 300 samples,
  seed 7 and tolerance 1e-300 (`wide-<name>.json`).  Each JSON report is
  written through `--output`; `<stem>.out` holds the command's stdout and
  then its exit code;
- the 50 demo outputs, `demo-<protocol>-<preset>.<table|json>`: every
  protocol on every preset at epsilon 0.9 and delta 0.4, a ':' in the
  preset written as '_';
- the 3 curves at their defaults, `curves-<figure>.csv`;
- `digests.json`: per campaign at its default sample count and per seed
  of DIGEST_SEEDS, the sha256 of every chunk's per-item violations
  (their `repr`, None for a filtered item) and stats (as sorted JSON), in
  index order.  A report keeps only the worst item, so a change that
  moves any other item's value shows here and nowhere else;
- `manifest.json`: the Python and numpy versions, the platform and the
  value of NPY_DISABLE_CPU_FEATURES, the host and SIMD level the other
  files were written on.  No other file may depend on them: the corpus
  in tools/corpus is compared at numpy's baseline dispatch and natively.

OUTDIR must be empty or not yet exist: a file left from an earlier run
could stand in for one this run no longer writes, so the tool exits 2
and writes nothing.  Two runs agree when `diff -r` finds every file
equal.  Campaigns run one after another in this one process, so their
reports match the ones that `adqcsim verify` writes alone only if no
cache carries state from one campaign to the next.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import warnings
from pathlib import Path

import numpy as np

from adqcsim import cli, verify
from adqcsim.protocols import ProtocolKind

SETTINGS = {
    "verify": [],
    "quick": ["--samples", "5", "--seed", "11"],
    "tight-quick": ["--samples", "5", "--seed", "11", "--tolerance", "1e-300"],
    "tight": ["--samples", "25", "--seed", "11", "--tolerance", "1e-300"],
    "wide": ["--samples", "300", "--seed", "7", "--tolerance", "1e-300"],
}
PRESETS = ("bell", "ghz:3", "product:3", "saturate:0.3", "rho_lambda:0.4")
FIGURES = ("fig5", "fig6", "fig7")
DIGEST_SEEDS = (42, 11, 3)


def _run(argv: list[str]) -> tuple[int, str]:
    # cli.main's exit code and stdout; stderr goes where it always goes
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def digest(name: str, seed: int) -> str:
    """The sha256 of campaign `name`'s chunks at its default sample count
    and `seed`: each chunk's violations, one `repr` per line, then its
    stats as sorted JSON, chunk after chunk as `run_campaign` takes them."""
    config = verify.default_config(name, seed=seed)
    campaign = verify._CAMPAIGNS[name]
    count = campaign.items(config)
    sha = hashlib.sha256()
    for a in range(0, count, verify._CHUNK):
        violations, stats = campaign.evaluate(
            config, campaign.draw(config, range(a, min(a + verify._CHUNK, count)))
        )
        lines = [*map(repr, violations), json.dumps(stats, sort_keys=True)]
        sha.update(("\n".join(lines) + "\n").encode())
    return sha.hexdigest()


def write_outputs(outdir: Path) -> int:
    """Write every output under `outdir`; returns the number of files."""
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "NPY_DISABLE_CPU_FEATURES": os.environ.get("NPY_DISABLE_CPU_FEATURES"),
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    digests = {
        name: {str(seed): digest(name, seed) for seed in DIGEST_SEEDS}
        for name in verify.CAMPAIGN_NAMES
    }
    (outdir / "digests.json").write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    files = 2
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
    outdir = Path(argv[0])
    if outdir.exists() and (not outdir.is_dir() or any(outdir.iterdir())):
        print(f"outputs.py: {outdir} is not an empty directory", file=sys.stderr)
        return 2
    warnings.simplefilter("error")
    files = write_outputs(outdir)
    print(f"{files} files in {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
