"""Span tracer for the benchmark's traced mode.

The tracer wraps every public module-level function of each adqcsim layer
by setting an attribute on the layer's module.  Functions are found by
introspection, so a function added to a layer later is traced too.  The
package calls its own functions through module globals (`f` inside
`f_inverse`) or module attributes (`linalg.jacobi_eigh`), so the wrappers
also see calls made inside and between layers.

Each call becomes one span: name, start, end, parent span and request id.
Spans are kept in flat arrays in memory and written out when the run ends.
A few probes count work at the same boundaries (matrices solved twice in
one request, amplitudes handed to the gate kernels, payload bytes).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

PACKAGE = "adqcsim"
LAYERS = ("linalg", "qcore", "entropy", "protocols", "verify", "stateio", "cli")

EIGENSOLVE = "linalg.jacobi_eigh"
INVERSIONS = ("entropy.f_inverse", "entropy.g_inverse")
INVERTED = ("entropy.f", "entropy.g")


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """Records spans around the public functions of every layer module."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.request = array("q")
        self._stack = [-1]
        self._request_id = -1
        self._originals: list[tuple[object, str, object]] = []
        self._solved: set[bytes] = set()
        self.eigh_repeats = 0
        self.eigh_diagonal = 0
        self.amplitudes = 0
        self.payload_bytes = 0
        self._probes = {
            EIGENSOLVE: self._probe_eigh,
            "qcore.apply_matrix": self._probe_apply_matrix,
            "qcore.measure_branch": self._probe_measure_branch,
            "stateio.dumps_state": self._probe_dumps_state,
        }

    # -- probes: run after the call, outside its span ------------------------

    def _probe_eigh(self, args, kwargs, result) -> None:
        m = np.asarray(_arg(args, kwargs, 0, "m"))
        key = m.dtype.str.encode() + bytes(str(m.shape), "ascii") + m.tobytes()
        if key in self._solved:
            self.eigh_repeats += 1
        else:
            self._solved.add(key)
        if m.ndim == 2 and np.count_nonzero(m) == np.count_nonzero(np.diagonal(m)):
            self.eigh_diagonal += 1

    def _probe_apply_matrix(self, args, kwargs, result) -> None:
        self.amplitudes += int(np.size(_arg(args, kwargs, 0, "vec")))

    def _probe_measure_branch(self, args, kwargs, result) -> None:
        self.amplitudes += int(_arg(args, kwargs, 0, "state").amplitudes.size)

    def _probe_dumps_state(self, args, kwargs, result) -> None:
        self.payload_bytes += len(result.encode())

    # -- installing the wrappers ---------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue  # imported from elsewhere; traced in its own layer
                self._originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{layer}.{attr}", fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def begin_request(self, request_id: int) -> None:
        self._request_id = request_id
        self._solved.clear()

    def _wrap(self, span_name: str, fn):
        sid = len(self.names)
        self.names.append(span_name)
        probe = self._probes.get(span_name)
        start, end, parent, name, request = (
            self.start, self.end, self.parent, self.name, self.request
        )
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            name.append(sid)
            request.append(tracer._request_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if probe is not None:
                probe(args, kwargs, result)
            return result

        return traced

    # -- output ---------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the spans as arrays (names, name, start, end, parent, request)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            request=np.frombuffer(self.request, dtype=np.int64),
        )

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children.

        Calls are synchronous, so children never overlap one another and
        their summed durations equal the part of the parent they cover.
        """
        start = np.frombuffer(self.start)
        dur = np.frombuffer(self.end) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return dur - covered

    def root_time(self) -> float:
        """Summed duration of the spans that have no parent span."""
        roots = np.frombuffer(self.parent, dtype=np.int64) < 0
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return float(dur[roots].sum())

    def metrics(self, wall_s: float, checks: int, items: int) -> dict[str, float]:
        """Per-layer metrics over all recorded spans."""
        name = np.frombuffer(self.name, dtype=np.int64)
        calls = dict(zip(self.names, np.bincount(name, minlength=len(self.names)).tolist()))
        layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in self.names])
        layer_self = np.bincount(
            layer_of[name], weights=self.self_times(), minlength=len(LAYERS)
        )

        # f/g evaluations made anywhere below an inversion span
        def ids(span_names):
            return [i for i, n in enumerate(self.names) if n in span_names]

        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        inside = np.isin(name, ids(INVERSIONS))
        while True:
            grown = inside.copy()
            grown[has_parent] |= inside[parent[has_parent]]
            if np.array_equal(grown, inside):
                break
            inside = grown
        evals = int(np.count_nonzero(inside & np.isin(name, ids(INVERTED))))

        eigh = calls.get(EIGENSOLVE, 0)
        inversions = sum(calls.get(n, 0) for n in INVERSIONS)
        per_check = 1.0 / checks if checks else 0.0
        out = {
            f"{layer}.self_s": float(layer_self[i])
            for i, layer in enumerate(LAYERS) if layer != "cli"
        }
        out.update({
            "linalg.eigh.calls": eigh,
            "linalg.eigh.per_check": eigh * per_check,
            "linalg.eigh.repeat_frac": self.eigh_repeats / eigh if eigh else 0.0,
            "linalg.eigh.diag_frac": self.eigh_diagonal / eigh if eigh else 0.0,
            "linalg.partial_trace.calls": calls.get("linalg.partial_trace", 0),
            "qcore.apply_matrix.calls": calls.get("qcore.apply_matrix", 0),
            "qcore.measure_branch.calls": calls.get("qcore.measure_branch", 0),
            "qcore.amplitudes_touched": self.amplitudes,
            "entropy.validate_density.calls": calls.get("entropy.validate_density", 0),
            "entropy.inverse.calls": inversions,
            "entropy.inverse.evals_per_call": evals / inversions if inversions else 0.0,
            "protocols.run_protocol.per_check": calls.get("protocols.run_protocol", 0) * per_check,
            "verify.check_frac": checks / items if items else 0.0,
            "stateio.dumps_state.per_check": calls.get("stateio.dumps_state", 0) * per_check,
            "stateio.payload_bytes_per_check": self.payload_bytes * per_check,
            "trace.unattributed_s": wall_s - float(layer_self.sum()),
        })
        return out
