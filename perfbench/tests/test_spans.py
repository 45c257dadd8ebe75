import sys
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from spans import Span, Tracer, covered, self_times, summarize


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 1.0) == 0.0
    assert covered([(1, 4), (3, 6), (8, 9)], 0, 10) == 6
    assert covered([(1, 4), (3, 6), (8, 9)], 2, 8.5) == 4.5
    assert covered([(2, 3), (1, 5)], 0, 10) == 4


def test_self_time_of_synthetic_nested_spans():
    # root [0, 10] with two overlapping children (two worker threads) and a
    # grandchild under the first one
    spans = [
        Span(0, "root", 0.0, 10.0, None, 1),
        Span(1, "a", 1.0, 4.0, 0, 2),
        Span(2, "b", 3.0, 6.0, 0, 3),
        Span(3, "c", 2.0, 3.0, 1, 2),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0})
    summary = summarize(spans, wall_s=12.0, names=("root", "a", "b", "c", "unused"))
    assert summary["covered_s"] == pytest.approx(10.0)
    assert summary["functions"]["unused"] == {"calls": 0, "self_s": 0.0}
    assert summary["functions"]["a"] == {"calls": 1, "self_s": pytest.approx(2.0)}


def test_wrapped_calls_nest_and_time_on_the_tracer_clock():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.advance(2.0)

    def outer():
        clock.advance(1.0)
        traced_inner()
        traced_inner()
        clock.advance(0.5)

    traced_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()
    summary = summarize(tracer.spans, wall_s=clock.now, names=("outer", "inner"))
    assert summary["functions"]["outer"] == {"calls": 1, "self_s": pytest.approx(1.5)}
    assert summary["functions"]["inner"] == {"calls": 2, "self_s": pytest.approx(4.0)}
    assert summary["covered_s"] == pytest.approx(5.5)


def test_pool_worker_spans_parent_to_the_waiting_call():
    tracer = Tracer()
    work = tracer.wrap("work", lambda x: x * x)

    def fan_out():
        with ThreadPoolExecutor(max_workers=3) as pool:
            return list(pool.map(work, range(12)))

    assert tracer.wrap("fan_out", fan_out)() == [x * x for x in range(12)]
    (root,) = [s for s in tracer.spans if s.name == "fan_out"]
    workers = [s for s in tracer.spans if s.name == "work"]
    assert len(workers) == 12
    assert all(s.parent == root.id for s in workers)
    assert root.parent is None


def test_span_is_recorded_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    assert [s.name for s in tracer.spans] == ["boom"]


def test_install_counts_and_restores_and_tolerates_absent_names(monkeypatch):
    module = types.ModuleType("fake_layer")

    class Result:
        def __init__(self, matrix=None, values=()):
            self.matrix = matrix
            self.values = values

    class Matrix:
        def __init__(self, kind, nbytes):
            self.dtype = types.SimpleNamespace(kind=kind)
            self.nbytes = nbytes

    module.diagonalize = lambda op: Result()
    module.build_goe = lambda: Result(Matrix("f", 800))
    module.expectation_series = lambda *a: Result(values=[0.0] * 7)
    original = module.diagonalize
    monkeypatch.setitem(sys.modules, "fake_layer", module)

    tracer = Tracer()
    tracer.install([
        ("spectral", "diagonalize", "fake_layer"),
        ("hamiltonian", "build_goe", "fake_layer"),
        ("dynamics", "expectation_series", "fake_layer"),
        ("dynamics", "evolve_spectral", "fake_layer"),  # not in the module
    ])
    module.diagonalize(Result(Matrix("c", 16)))
    module.diagonalize(Result(Matrix("f", 8)))
    module.build_goe()
    module.expectation_series(None, None, None, None)
    tracer.uninstall()
    module.diagonalize(Result(Matrix("c", 16)))  # after uninstall: not traced

    assert module.diagonalize is original
    assert tracer.absent == ["dynamics.evolve_spectral"]
    assert tracer.counts["spectral.complex_eigh_calls"] == 1
    assert tracer.counts["hamiltonian.dense_bytes"] == 800
    assert tracer.counts["dynamics.series_points"] == 7
    assert tracer.counts["observables.dense_bytes"] == 0
    summary = summarize(tracer.spans, 1.0)
    assert summary["functions"]["dynamics.evolve_spectral"]["calls"] == 0
    assert summary["functions"]["spectral.diagonalize"]["calls"] == 2
