"""Span tracer: nesting, timing monotonicity, aggregation, activation."""

from __future__ import annotations

import itertools
import threading
import time
from types import SimpleNamespace

import pytest

from repro.obs import tracing
from repro.obs.tracing import Span, Tracer
from repro.parallel import capture_obs, merge_obs


class TestSpanNesting:
    def test_parent_child_ids(self):
        tracer = Tracer()
        with tracer.span("repro.test.outer") as outer:
            with tracer.span("repro.test.inner") as inner:
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.span_id != outer.span_id

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("repro.test.outer") as outer:
            with tracer.span("repro.test.a") as a:
                pass
            with tracer.span("repro.test.b") as b:
                pass
        assert a.parent_id == outer.span_id
        assert b.parent_id == outer.span_id

    def test_finished_ordered_by_start(self):
        tracer = Tracer(keep_spans=True)
        with tracer.span("repro.test.outer"):
            with tracer.span("repro.test.inner"):
                pass
        names = [s.name for s in tracer.finished()]
        # The outer span starts first even though it finishes last.
        assert names == ["repro.test.outer", "repro.test.inner"]

    def test_stack_pops_on_exception(self):
        tracer = Tracer(keep_spans=True)
        with pytest.raises(RuntimeError):
            with tracer.span("repro.test.boom"):
                raise RuntimeError("boom")
        # The failed span still lands in the collector, closed.
        (sp,) = tracer.finished()
        assert sp.duration is not None
        # And a new span after the failure is a root again.
        with tracer.span("repro.test.after") as after:
            pass
        assert after.parent_id is None


class TestTimingMonotonicity:
    def test_durations_nonnegative_and_nested_within_parent(self):
        tracer = Tracer()
        with tracer.span("repro.test.outer") as outer:
            with tracer.span("repro.test.inner") as inner:
                time.sleep(0.01)
        assert inner.duration is not None and outer.duration is not None
        assert inner.duration >= 0.0
        assert outer.duration >= inner.duration
        assert inner.start >= outer.start

    def test_sequential_spans_have_nondecreasing_starts(self):
        tracer = Tracer(keep_spans=True)
        for i in range(5):
            with tracer.span(f"repro.test.s{i}"):
                pass
        starts = [s.start for s in tracer.finished()]
        assert starts == sorted(starts)
        assert all(s >= 0.0 for s in starts)


class TestAttrsAndSummary:
    def test_set_and_add(self):
        sp = Span(name="x", span_id=0, parent_id=None, start=0.0)
        sp.set(rows_in=10, model=2)
        sp.add(rows_out=3)
        sp.add(rows_out=4)
        assert sp.attrs == {"rows_in": 10, "model": 2, "rows_out": 7}

    def test_stage_summary_aggregates(self):
        tracer = Tracer()
        for rows in (10, 20, 30):
            with tracer.span("repro.test.load", rows_in=rows) as sp:
                sp.set(rows_out=rows - 1)
        summary = tracer.stage_summary()
        agg = summary["repro.test.load"]
        assert agg["calls"] == 3
        assert agg["rows_in"] == 60
        assert agg["rows_out"] == 57
        assert agg["total_seconds"] >= agg["max_seconds"] >= agg["min_seconds"] >= 0

    def test_stage_summary_ignores_non_numeric_and_unprefixed(self):
        tracer = Tracer()
        with tracer.span("repro.test.x", model="PCIe-A", fold=3, n_bad=2):
            pass
        agg = tracer.stage_summary()["repro.test.x"]
        assert "model" not in agg and "fold" not in agg
        assert agg["n_bad"] == 2

    def test_to_dicts_round_trip_fields(self):
        tracer = Tracer(keep_spans=True)
        with tracer.span("repro.test.x", rows_in=5):
            pass
        (d,) = tracer.to_dicts()
        assert d["name"] == "repro.test.x"
        assert d["attrs"] == {"rows_in": 5}
        assert d["parent_id"] is None
        assert d["duration"] >= 0.0


class TestActivation:
    def test_module_span_noop_when_inactive(self):
        assert tracing.current() is None
        with tracing.span("repro.test.ignored", rows_in=1) as sp:
            # Null span swallows set/add and supports chaining.
            assert sp.set(rows_out=2).add(n_x=1) is sp

    def test_activate_collects_and_restores(self):
        assert tracing.current() is None
        with tracing.activate() as tracer:
            assert tracing.current() is tracer
            with tracing.span("repro.test.real"):
                pass
        assert tracing.current() is None
        assert [s.name for s in tracer.finished()] == ["repro.test.real"]

    def test_activate_nested_restores_previous(self):
        outer_tracer = Tracer()
        with tracing.activate(outer_tracer):
            with tracing.activate() as inner_tracer:
                assert tracing.current() is inner_tracer
            assert tracing.current() is outer_tracer
        assert tracing.current() is None

    def test_traced_decorator_default_name(self):
        @tracing.traced()
        def my_stage():
            return 42

        with tracing.activate() as tracer:
            assert my_stage() == 42
        (sp,) = tracer.finished()
        # Default name follows repro.<module>.<function>.
        assert sp.name.startswith("repro.") and sp.name.endswith(".my_stage")

    def test_traced_decorator_explicit_name(self):
        @tracing.traced("repro.test.custom")
        def fn():
            return "ok"

        with tracing.activate() as tracer:
            fn()
        assert tracer.finished()[0].name == "repro.test.custom"


class TestThreadSafety:
    def test_concurrent_spans_unique_ids(self):
        tracer = Tracer(keep_spans=True)
        n_threads, per_thread = 8, 50

        def work(tid: int) -> None:
            for i in range(per_thread):
                with tracer.span("repro.test.thread", n_items=1) as sp:
                    sp.set(tid=tid, i=i)

        threads = [
            threading.Thread(target=work, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = tracer.finished()
        assert len(spans) == n_threads * per_thread
        assert len({s.span_id for s in spans}) == len(spans)
        # Per-thread stacks: no span picked up a parent from another thread.
        assert all(s.parent_id is None for s in spans)
        agg = tracer.stage_summary()["repro.test.thread"]
        assert agg["calls"] == n_threads * per_thread
        assert agg["n_items"] == n_threads * per_thread


def _nested_workload(tracer: Tracer, n: int) -> None:
    for i in range(n):
        with tracer.span("repro.test.outer", rows_in=2) as sp:
            with tracer.span("repro.test.inner", n_items=1, model="A"):
                pass
            sp.set(rows_out=i % 3)


def _summary_from_spans(spans: list[Span]) -> dict:
    """The per-stage aggregates, recomputed from kept span objects."""
    out: dict = {}
    for sp in spans:
        agg = out.setdefault(
            sp.name,
            {"calls": 0, "total_seconds": 0.0, "min_seconds": float("inf"), "max_seconds": 0.0},
        )
        agg["calls"] += 1
        agg["total_seconds"] += sp.duration
        agg["min_seconds"] = min(agg["min_seconds"], sp.duration)
        agg["max_seconds"] = max(agg["max_seconds"], sp.duration)
        for key, value in sp.attrs.items():
            if key.startswith(("rows_", "n_")):
                agg[key] = agg.get(key, 0) + value
    return out


class TestAggregatesOnly:
    """A default tracer folds spans into stage aggregates and keeps none."""

    def _fake_clock(self, monkeypatch) -> None:
        # Durations on a 1/1024 s grid: every sum is exact in any order.
        ticks = itertools.count()
        monkeypatch.setattr(
            tracing, "time", SimpleNamespace(perf_counter=lambda: next(ticks) / 1024)
        )

    def test_100k_spans_keep_nothing_and_summarize_identically(self, monkeypatch):
        summaries = {}
        for keep in (False, True):
            self._fake_clock(monkeypatch)
            tracer = Tracer(keep_spans=keep)
            _nested_workload(tracer, 50_000)  # 100k spans
            summaries[keep] = tracer.stage_summary()
            if keep:
                assert len(tracer.finished()) == 100_000
                assert summaries[keep] == _summary_from_spans(tracer.finished())
            else:
                assert tracer.finished() == [] and tracer.to_dicts() == []
        assert summaries[False] == summaries[True]
        assert summaries[False]["repro.test.outer"]["calls"] == 50_000
        assert summaries[False]["repro.test.inner"]["n_items"] == 50_000

    def test_span_ids_still_link_parents(self):
        tracer = Tracer()
        with tracer.span("repro.test.outer") as outer:
            assert tracer.current_parent_id() == outer.span_id
            with tracer.span("repro.test.inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert tracer.finished() == []

    def test_absorbed_spans_fold_without_being_kept(self, monkeypatch):
        self._fake_clock(monkeypatch)
        src = Tracer(keep_spans=True)
        _nested_workload(src, 10)
        dst = Tracer()
        assert dst.absorb(src.to_dicts(), offset=5.0) == 20
        assert dst.finished() == []
        assert dst.stage_summary() == src.stage_summary()

    def test_captured_spans_fold_into_a_parent_that_keeps_none(self):
        with capture_obs() as delta:
            with tracing.span("repro.test.task", rows_in=4):
                pass
        assert [s["name"] for s in delta.spans] == ["repro.test.task"]
        parent = Tracer()
        with tracing.activate(parent):
            merge_obs(delta)
        agg = parent.stage_summary()["repro.test.task"]
        assert (agg["calls"], agg["rows_in"]) == (1, 4)
        assert parent.finished() == []

    def test_bare_activation_keeps_spans(self):
        with tracing.activate() as tracer:
            with tracing.span("repro.test.kept"):
                pass
        assert tracer.keep_spans
        assert [s.name for s in tracer.finished()] == ["repro.test.kept"]
