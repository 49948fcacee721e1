"""Windowed timeline: tick policy, deltas, ring bounds, merge, export."""

from __future__ import annotations

import json

import pytest

from repro.obs import metrics, timeline
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import (
    TickPolicy,
    Timeline,
    TimelineWindow,
    load_timeline_jsonl,
)


class TestTickPolicy:
    def test_defaults(self):
        policy = TickPolicy()
        assert policy.every_events == 1024
        assert policy.on_watermark
        assert policy.quantiles == (0.5, 0.9, 0.99)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"every_events": 0},
            {"max_windows": 0},
            {"quantiles": (0.5, 1.5)},
            {"quantiles": (-0.1,)},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TickPolicy(**kwargs)


class TestEventTicks:
    def test_windows_close_on_event_boundaries(self):
        tl = Timeline(TickPolicy(every_events=10), registry=MetricsRegistry())
        tl.record(25)
        windows = tl.windows()
        assert [w.events for w in windows] == [10, 10]
        assert [(w.start_events, w.end_events) for w in windows] == [
            (0, 10),
            (10, 20),
        ]
        assert all(w.reason == "events" for w in windows)
        tl.flush()
        last = tl.windows()[-1]
        assert last.reason == "flush" and last.events == 5

    def test_flush_on_empty_partial_is_noop(self):
        tl = Timeline(TickPolicy(every_events=5), registry=MetricsRegistry())
        tl.record(5)
        tl.flush()
        assert tl.windows_emitted == 1

    def test_watermark_advance_closes_window(self):
        tl = Timeline(TickPolicy(every_events=100), registry=MetricsRegistry())
        tl.record(7, watermark=3)
        tl.record(4, watermark=4)
        windows = tl.windows()
        assert len(windows) == 1
        assert windows[0].reason == "watermark"
        assert windows[0].events == 7
        assert windows[0].watermark == 3

    def test_watermark_ticks_disabled(self):
        tl = Timeline(
            TickPolicy(every_events=100, on_watermark=False),
            registry=MetricsRegistry(),
        )
        tl.record(7, watermark=3)
        tl.record(4, watermark=4)
        assert tl.windows_emitted == 0
        assert tl.watermark == 4

    def test_rejects_negative_events(self):
        tl = Timeline(registry=MetricsRegistry())
        with pytest.raises(ValueError):
            tl.record(-1)


class TestWindowContents:
    def test_counter_deltas_per_window(self):
        reg = MetricsRegistry()
        tl = Timeline(TickPolicy(every_events=5), registry=reg)
        c = reg.counter("repro_test_total", help="t").labels()
        c.inc(3)
        tl.record(5)
        c.inc(4)
        tl.record(5)
        w0, w1 = tl.windows()
        assert w0.counters == {"repro_test_total": 3.0}
        assert w1.counters == {"repro_test_total": 4.0}
        assert tl.summary()["counter_totals"] == {"repro_test_total": 7.0}

    def test_zero_delta_counters_omitted(self):
        reg = MetricsRegistry()
        tl = Timeline(TickPolicy(every_events=5), registry=reg)
        reg.counter("repro_test_total", help="t").labels().inc(2)
        tl.record(5)
        tl.record(5)
        w0, w1 = tl.windows()
        assert "repro_test_total" in w0.counters
        assert w1.counters == {}

    def test_gauges_report_level_not_delta(self):
        reg = MetricsRegistry()
        tl = Timeline(TickPolicy(every_events=5), registry=reg)
        g = reg.gauge("repro_test_depth", help="t").labels()
        g.set(8)
        tl.record(5)
        g.set(2)
        tl.record(5)
        w0, w1 = tl.windows()
        assert w0.gauges == {"repro_test_depth": 8.0}
        assert w1.gauges == {"repro_test_depth": 2.0}

    def test_quantiles_from_window_local_bucket_deltas(self):
        reg = MetricsRegistry()
        tl = Timeline(TickPolicy(every_events=4, quantiles=(0.5,)), registry=reg)
        h = reg.histogram(
            "repro_test_seconds", help="t", buckets=(1.0, 2.0, 4.0)
        ).labels()
        for v in (0.5, 0.5, 0.5, 0.5):
            h.observe(v)
        tl.record(4)
        for v in (3.0, 3.0, 3.0, 3.0):
            h.observe(v)
        tl.record(4)
        w0, w1 = tl.windows()
        # Each window sees only its own observations: the second window's
        # median comes from the 3.0s alone, not the cumulative stream.
        assert w0.quantiles["repro_test_seconds"]["p50"] <= 1.0
        assert w1.quantiles["repro_test_seconds"]["p50"] > 2.0
        assert w0.quantiles["repro_test_seconds"]["count"] == 4
        assert not w0.quantiles["repro_test_seconds"]["clamped"]

    def test_quantile_clamped_flag_on_overflow(self):
        reg = MetricsRegistry()
        tl = Timeline(TickPolicy(every_events=2, quantiles=(0.99,)), registry=reg)
        h = reg.histogram(
            "repro_test_seconds", help="t", buckets=(1.0,)
        ).labels()
        h.observe(50.0)
        h.observe(60.0)
        tl.record(2)
        entry = tl.windows()[0].quantiles["repro_test_seconds"]
        assert entry["clamped"] is True

    def test_labeled_series_keyed_prometheus_style(self):
        reg = MetricsRegistry()
        tl = Timeline(TickPolicy(every_events=1), registry=reg)
        fam = reg.counter("repro_test_total", help="t", labelnames=("fault",))
        fam.labels(fault="late").inc(2)
        tl.record(1)
        assert tl.windows()[0].counters == {'repro_test_total{fault="late"}': 2.0}


class TestRingBuffer:
    def test_old_windows_dropped_and_counted(self):
        reg = MetricsRegistry()
        tl = Timeline(TickPolicy(every_events=1, max_windows=3), registry=reg)
        c = reg.counter("repro_test_total", help="t").labels()
        for _ in range(5):
            c.inc()
            tl.record(1)
        assert tl.windows_emitted == 5
        assert tl.windows_dropped == 2
        assert [w.index for w in tl.windows()] == [2, 3, 4]
        # Totals survive the ring: summary is exact despite the drops.
        assert tl.summary()["counter_totals"] == {"repro_test_total": 5.0}


class TestAbsorb:
    def _worker_delta(self, n_events, inc):
        reg = MetricsRegistry()
        tl = Timeline(TickPolicy(every_events=4), registry=reg)
        reg.counter("repro_test_total", help="t").labels().inc(inc)
        tl.record(n_events)
        return tl.delta()

    def test_absorb_offsets_and_reindexes(self):
        parent = Timeline(
            TickPolicy(every_events=4), registry=MetricsRegistry()
        )
        parent.record(3)  # open partial window
        parent.absorb(self._worker_delta(6, inc=5))
        windows = parent.windows()
        # The parent's partial closed first, then the worker's two windows
        # spliced in with offsets shifted past the parent's 3 events.
        assert [w.reason for w in windows] == ["flush", "events", "flush"]
        assert [w.index for w in windows] == [0, 1, 2]
        assert windows[1].start_events == 3
        assert parent.events_total == 9
        assert parent.summary()["counter_totals"] == {"repro_test_total": 5.0}

    def test_merge_in_task_order_is_deterministic(self):
        def merged(deltas):
            parent = Timeline(
                TickPolicy(every_events=4), registry=MetricsRegistry()
            )
            for d in deltas:
                parent.absorb(d)
            return (
                [w.to_dict() for w in parent.windows()],
                parent.summary(),
            )

        deltas = [json.loads(json.dumps(self._worker_delta(5, inc=i + 1))) for i in range(3)]
        assert merged(deltas) == merged([dict(d) for d in deltas])


class TestExport:
    def test_jsonl_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        tl = Timeline(TickPolicy(every_events=3), registry=reg)
        c = reg.counter("repro_test_total", help="t").labels()
        c.inc(2)
        tl.record(7, watermark=12)
        tl.flush()
        path = tmp_path / "timeline.jsonl"
        assert tl.export_jsonl(path) == len(tl.windows())
        loaded = load_timeline_jsonl(path)
        assert [w.to_dict() for w in loaded] == [
            w.to_dict() for w in tl.windows()
        ]

    def test_export_that_dies_partway_keeps_the_old_file(
        self, tmp_path, monkeypatch
    ):
        reg = MetricsRegistry()
        tl = Timeline(TickPolicy(every_events=2), registry=reg)
        tl.record(6)
        path = tmp_path / "timeline.jsonl"
        tl.export_jsonl(path)
        old = path.read_bytes()

        tl.record(4)
        calls = []

        def dies_on_second_window(self):
            calls.append(self.index)
            if len(calls) == 2:
                raise RuntimeError("export interrupted")
            return {"index": self.index}

        monkeypatch.setattr(TimelineWindow, "to_dict", dies_on_second_window)
        with pytest.raises(RuntimeError, match="interrupted"):
            tl.export_jsonl(path)
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    def test_bad_line_reports_lineno(self, tmp_path):
        path = tmp_path / "timeline.jsonl"
        path.write_text('{"index": 0, "start_events": 0, "end_events": 3}\nnope\n')
        with pytest.raises(ValueError, match=":2:"):
            load_timeline_jsonl(path)


class TestModuleHelpers:
    def test_record_noops_when_inactive(self):
        assert timeline.current() is None
        timeline.record(100)  # must not raise

    def test_activate_installs_and_restores(self):
        with timeline.activate() as tl:
            assert timeline.current() is tl
            timeline.record(2)
            assert tl.events_total == 2
        assert timeline.current() is None

    def test_default_registry_follows_active(self):
        reg = MetricsRegistry()
        tl = Timeline(TickPolicy(every_events=1))
        with metrics.activate(reg):
            reg.counter("repro_test_total", help="t").labels().inc(3)
            tl.record(1)
        assert tl.windows()[0].counters == {"repro_test_total": 3.0}

    def test_window_roundtrip_from_dict(self):
        w = TimelineWindow(
            index=4,
            start_events=10,
            end_events=20,
            watermark=7,
            reason="watermark",
            counters={"a": 1.0},
            gauges={"g": 2.0},
            quantiles={"h": {"count": 3, "p50": 0.1, "clamped": False}},
        )
        assert TimelineWindow.from_dict(w.to_dict()).to_dict() == w.to_dict()
