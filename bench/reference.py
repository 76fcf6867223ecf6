"""A fixed reference load that tracks how fast the machine runs right now.

The benchmark host is shared: measured with a fixed loop, its speed moved
by up to 80 % within ten minutes while nothing else of ours ran.  Times of
the program are therefore reported at a nominal machine speed: each raw
time is multiplied by NOMINAL_S / (reference time measured just before
it).  The load imitates the program's hot paths with numpy alone, without
calling adqcsim, so a change to the program never moves it: scalar
element updates of a 4x4 complex matrix, axis moves and a matmul on a
256-amplitude vector, and float formatting.
"""
from __future__ import annotations

import time

import numpy as np

# Nominal time of one reference load; any fixed value would do.  This one
# is close to the median seen on the 2-core host of the first baseline, so
# reported times read close to raw ones there.
NOMINAL_S = 4.0e-3

_M = np.arange(16, dtype=complex).reshape(4, 4) * (1 + 0.5j)
_V = np.ones(256, dtype=complex)
_OP = np.eye(4, dtype=complex)


def _load() -> str:
    a = _M.copy()
    for _ in range(150):
        for p in range(3):
            x = a[p, p + 1]
            r = abs(x)
            t = 1.0 / (r + np.hypot(1.0, r))
            col = a[:, p] * t + a[:, p + 1] * np.conj(x / r)
            a[:, p] = col / np.sqrt(1.0 + t * t)
    for _ in range(60):
        psi = np.moveaxis(_V.reshape([2] * 8), (3, 5), (0, 1))
        psi = np.moveaxis((_OP @ psi.reshape(4, -1)).reshape([2] * 8), (0, 1), (3, 5))
    return "\n".join(f"{i} {z.real:.17g} {z.imag:.17g}" for i, z in enumerate(psi.reshape(-1)))


def reference_s(repeats: int = 3) -> float:
    """Fastest of a few runs of the reference load, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _load()
        best = min(best, time.perf_counter() - t0)
    return best
