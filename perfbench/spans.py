"""In-memory span tracer for the quenchlab layers.

The tracer wraps, from outside the package, the public names that
`quenchlab.cli` and `quenchlab.entanglement` import, so a traced run
executes the unmodified program. Each call records a span (name, start,
end, parent); spans stay in memory until the run ends. A span's self time
is its duration minus the part of its interval that its child spans cover.

Run as a script, it executes one `quenchlab` CLI command in-process with
every layer function wrapped and writes the spans and their per-function
aggregates as JSON:

    PYTHONPATH=src python3 perfbench/spans.py --out spans.json -- run cfg.yaml --seed 1
"""
from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

# (layer, function, module whose global name is wrapped). Wrapping the name
# in the importing module is what makes calls through it visible: the
# package calls these functions by their module-global names.
LAYER_FUNCTIONS = (
    ("hamiltonian", "build_local_chain", "quenchlab.cli"),
    ("hamiltonian", "scramble", "quenchlab.cli"),
    ("hamiltonian", "build_goe", "quenchlab.cli"),
    ("spectral", "diagonalize", "quenchlab.cli"),
    ("spectral", "occupied_spectrum", "quenchlab.cli"),
    ("spectral", "dos_fit", "quenchlab.cli"),
    ("observables", "typical_observable", "quenchlab.cli"),
    ("observables", "slow_observable", "quenchlab.cli"),
    ("observables", "local_observable", "quenchlab.cli"),
    ("observables", "to_eigenbasis", "quenchlab.cli"),
    ("dynamics", "expectation_series", "quenchlab.cli"),
    ("dynamics", "evolve_spectral", "quenchlab.entanglement"),
    ("entanglement", "entropy_scan", "quenchlab.cli"),
    ("entanglement", "light_cone", "quenchlab.cli"),
    ("entanglement", "entropy", "quenchlab.entanglement"),
    ("core", "partial_trace", "quenchlab.entanglement"),
    ("cli", "run", "quenchlab.cli"),
)

COUNT_NAMES = (
    "dynamics.series_points",
    "spectral.complex_eigh_calls",
    "hamiltonian.dense_bytes",
    "observables.dense_bytes",
)

# A counter maps (args, kwargs, result) of one call to count increments.
CountFn = Callable[[tuple, dict, object], dict]


def _matrix_nbytes(obj) -> int:
    return int(getattr(getattr(obj, "matrix", None), "nbytes", 0))


def _dense_bytes(layer: str) -> CountFn:
    return lambda args, kwargs, result: {f"{layer}.dense_bytes": _matrix_nbytes(result)}


def _complex_eigh(args, kwargs, result) -> dict:
    op = args[0] if args else next(iter(kwargs.values()), None)
    dtype = getattr(getattr(op, "matrix", None), "dtype", None)
    return {"spectral.complex_eigh_calls": int(getattr(dtype, "kind", "") == "c")}


def _series_points(args, kwargs, result) -> dict:
    return {"dynamics.series_points": len(getattr(result, "values", ()))}


COUNTERS: dict[str, CountFn] = {
    "hamiltonian.build_local_chain": _dense_bytes("hamiltonian"),
    "hamiltonian.scramble": _dense_bytes("hamiltonian"),
    "hamiltonian.build_goe": _dense_bytes("hamiltonian"),
    "spectral.diagonalize": _complex_eigh,
    "observables.typical_observable": _dense_bytes("observables"),
    "observables.slow_observable": _dense_bytes("observables"),
    "observables.local_observable": _dense_bytes("observables"),
    "observables.to_eigenbasis": _dense_bytes("observables"),
    "dynamics.expectation_series": _series_points,
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


class Tracer:
    """Records spans and counts of wrapped calls, from any thread.

    A call on a thread with no open span of its own (a worker of a pool the
    program starts) takes as parent the innermost open span of the thread
    that created the tracer, which is the call waiting on that pool.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.spans: list[Span] = []
        self.counts: Counter = Counter({name: 0 for name in COUNT_NAMES})
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        home = self._home_stack[-1:]  # a slice cannot race with a pop
        return home[0] if home else None

    def wrap(self, name: str, fn: Callable, count: CountFn | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            span_id = next(self._ids)
            stack.append(span_id)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                self.spans.append(
                    Span(span_id, name, start - self.origin, end - self.origin,
                         parent, threading.get_ident())
                )
            if count is not None:
                increments = count(args, kwargs, result)
                with self._lock:
                    self.counts.update(increments)
            return result

        return traced

    def install(self, table: Sequence[tuple[str, str, str]] = LAYER_FUNCTIONS) -> None:
        """Replace each listed module global by its traced wrapper.

        A name the module no longer has is noted in `absent` and reports
        zero calls, so the benchmark keeps running across refactors.
        """
        for layer, fn_name, module_name in table:
            name = f"{layer}.{fn_name}"
            module = importlib.import_module(module_name)
            fn = getattr(module, fn_name, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            self._patched.append((module, fn_name, fn))
            setattr(module, fn_name, self.wrap(name, fn, COUNTERS.get(name)))

    def uninstall(self) -> None:
        for module, fn_name, fn in reversed(self._patched):
            setattr(module, fn_name, fn)
        self._patched.clear()


def covered(intervals: Sequence[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    run_start = run_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(children[s.id], s.start, s.end) for s in spans
    }


def summarize(
    spans: Sequence[Span],
    wall_s: float,
    names: Sequence[str] = tuple(f"{l}.{f}" for l, f, _ in LAYER_FUNCTIONS),
) -> dict:
    """Per-function calls and self time, plus how much of the wall the spans cover."""
    own = self_times(spans)
    functions = {name: {"calls": 0, "self_s": 0.0} for name in names}
    for s in spans:
        entry = functions.setdefault(s.name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own[s.id]
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    return {
        "wall_s": wall_s,
        "covered_s": covered(roots, 0.0, wall_s),
        "functions": functions,
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the spans JSON")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for the quenchlab CLI, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    cli = importlib.import_module("quenchlab.cli")
    tracer = Tracer()  # the wall clock of the traced run starts here
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        wall_s = tracer.clock() - tracer.origin
        tracer.uninstall()
    record = summarize(tracer.spans, wall_s)
    own = self_times(tracer.spans)
    record.update(
        returncode=code,
        counts=dict(tracer.counts),
        absent=tracer.absent,
        spans=[{**asdict(s), "self_s": own[s.id]} for s in tracer.spans],
    )
    Path(args.out).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
