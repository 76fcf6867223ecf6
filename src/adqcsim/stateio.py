"""Plain-text serialization of pure register states.

Format: a `qubits: n` line, an optional `label: ...` line, then one
`index real imag` line per nonzero amplitude (whitespace-separated,
index in [0, 2^n)).  Missing indices are zero; `#` starts a comment.
"""
from __future__ import annotations

import numpy as np

from .qcore import PureState, check_qubit_count

NORM_FILE_TOL = 1e-9


def dumps_state(state: PureState, label: str | None = None) -> str:
    lines = [f"qubits: {state.n_qubits}"]
    if label is not None:
        lines.append(f"label: {label}")
    for idx, amp in enumerate(state.amplitudes):
        if amp != 0:
            lines.append(f"{idx} {amp.real:.17g} {amp.imag:.17g}")
    return "\n".join(lines) + "\n"


def loads_state(text: str) -> tuple[PureState, float]:
    """Parse a state document; returns (state, norm correction applied).

    The amplitudes must already be normalized within 1e-9; the residual
    deviation is divided out and reported as `norm - 1`.
    """
    n_qubits: int | None = None
    label_seen = False
    entries: dict[int, complex] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n_qubits is None:
            if not line.startswith("qubits:"):
                raise ValueError(f"line {lineno}: expected 'qubits: n' first")
            try:
                n_qubits = int(line.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"line {lineno}: bad qubit count") from None
            check_qubit_count(n_qubits)
            continue
        if line.startswith("label:"):
            if label_seen or entries:
                raise ValueError(f"line {lineno}: misplaced label")
            label_seen = True
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'index real imag'")
        try:
            idx = int(parts[0])
            re, im = float(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed amplitude entry") from None
        if not 0 <= idx < 2**n_qubits:
            raise ValueError(f"line {lineno}: index {idx} out of range")
        if idx in entries:
            raise ValueError(f"line {lineno}: duplicate index {idx}")
        entries[idx] = complex(re, im)
    if n_qubits is None:
        raise ValueError("empty state document")
    vec = np.zeros(2**n_qubits, dtype=complex)
    for idx, amp in entries.items():
        vec[idx] = amp
    norm = float(np.linalg.norm(vec))
    if not abs(norm - 1.0) <= NORM_FILE_TOL:  # NaN or inf amplitudes fail too
        raise ValueError(f"amplitudes do not normalize: |psi| = {norm}")
    return PureState(n_qubits, vec / norm), norm - 1.0


def load_state(path: str) -> tuple[PureState, float]:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_state(fh.read())


def save_state(path: str, state: PureState, label: str | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_state(state, label=label))
