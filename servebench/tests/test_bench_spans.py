"""Self-time arithmetic of the span recorder, on a fake clock."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from spans import PolicyProxy, SpanRecorder, percentile


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with rec.span("engine"):
        clock.advance(1.0)
        with rec.span("guard"):
            clock.advance(2.0)
            with rec.span("journal"):
                clock.advance(4.0)
            clock.advance(0.5)
        with rec.span("predictor"):
            clock.advance(3.0)
        clock.advance(0.25)
    st = rec.self_times()
    assert st["engine"] == (pytest.approx(1.25), 1)
    assert st["guard"] == (pytest.approx(2.5), 1)
    assert st["journal"] == (pytest.approx(4.0), 1)
    assert st["predictor"] == (pytest.approx(3.0), 1)
    # Self times partition the root span's wall time exactly.
    assert sum(v[0] for v in st.values()) == pytest.approx(clock.now)


def test_repeated_calls_sum_and_count():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def work(seconds):
        clock.advance(seconds)
        return seconds

    timed = rec.wrap("layer", work, after=lambda r, a, k: rec.count("layer.units", r))
    with rec.span("root"):
        for s in (0.1, 0.2, 0.3):
            timed(s)
    st = rec.self_times()
    assert st["layer"] == (pytest.approx(0.6), 3)
    assert st["root"][0] == pytest.approx(0.0)
    assert rec.counts["layer.units"] == pytest.approx(0.6)
    assert rec.call_durations("layer") == pytest.approx([0.1, 0.2, 0.3])


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("layer", boom)()
    with rec.span("next"):
        clock.advance(2.0)
    st = rec.self_times()
    assert st["layer"][0] == pytest.approx(1.0)
    assert rec.parent[1] == -1  # the failed span did not stay open


def test_instrumented_method_times_internal_self_calls():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    class Store:
        def ingest(self):
            clock.advance(1.0)

        def ingest_many(self, n):
            for _ in range(n):
                self.ingest()

    store = Store()
    rec.instrument(store, "ingest", "ingest")
    rec.instrument(store, "ingest_many", "ingest_many")
    store.ingest_many(3)
    st = rec.self_times()
    assert st["ingest"] == (pytest.approx(3.0), 3)
    assert st["ingest_many"][0] == pytest.approx(0.0)


def test_policy_proxy_times_decide_and_counts_proposals():
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Policy:
        kind: str = "threshold"

        def decide(self, view, state, day):
            return [day, day]

    rec = SpanRecorder(FakeClock())
    proxy = PolicyProxy(Policy(), rec)
    assert proxy.kind == "threshold"
    assert proxy.decide(None, None, 7) == [7, 7]
    assert rec.counts["fleet.actions.proposed"] == 2
    assert rec.self_times()["fleet.policy.decide"][1] == 1


def _run_module():
    path = Path(__file__).resolve().parent.parent / "run.py"
    spec = importlib.util.spec_from_file_location("servebench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_coverage_is_of_busy_time_without_the_outer_engine_self_time():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with rec.span("loadgen.idle"):
        clock.advance(4.0)
    with rec.span("serve.engine.submit"):
        clock.advance(1.0)  # the engine's own code, or anything unwrapped
        with rec.span("core.predictor"):
            clock.advance(3.0)
        with rec.span("serve.engine.heartbeat"):
            clock.advance(0.5)  # a wrapped engine call: a named layer
    clock.advance(1.5)  # the generator's own loop, in no span
    assert rec.root_self_time("serve.engine.") == pytest.approx(1.0)

    one_pass = SimpleNamespace(seconds=10.0, wall_s=10.0, counts={}, lag_s=[])
    setup = {"setup.import_s": 0.5, "serve.registry.load_s": 0.01, "data.store.open_s": 0.0}
    overhead = {"obs_pct": 1.0, "trace_pct": 2.0}
    m, detail = _run_module().per_layer(rec, [one_pass], [setup], overhead)
    # Busy time is 10 s minus 4 s idle: 3.5 s in named layers, 1 s of
    # outer engine self time, 1.5 s in no span.
    assert detail["busy_s"] == pytest.approx(6.0)
    assert m["trace.coverage_pct"] == pytest.approx(100.0 * 3.5 / 6.0)
    assert m["trace.engine_outer_pct"] == pytest.approx(100.0 * 1.0 / 6.0)
    assert "loadgen.idle" not in detail["share_of_busy_pct"]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([3.0], 99) == 3.0
    assert percentile([], 50) == 0.0
    assert percentile([1, 2], 50) == 1
