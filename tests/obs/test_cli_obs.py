"""CLI tests for `obs tail` and `obs slo`.

These commands operate on artifacts (event logs, timeline exports), so
the tests craft files directly — no fleet required.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.eventlog import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import TickPolicy, Timeline


@pytest.fixture()
def event_log(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventLog(path) as log:
        log.emit("serve.engine.heartbeat", level="debug", events_seen=100)
        log.emit("serve.guard.dead_letter", "late event", level="warn", fault="late")
        log.emit("serve.health.transition", "ready -> degraded", level="warn")
    return path


@pytest.fixture()
def timeline_jsonl(tmp_path):
    reg = MetricsRegistry()
    tl = Timeline(TickPolicy(every_events=10), registry=reg)
    dlq = reg.counter("repro_dlq_total", help="d").labels()
    for i in range(4):
        if i == 3:  # fresh spike: only the newest window violates
            dlq.inc(5)
        tl.record(10)
    path = tmp_path / "timeline.jsonl"
    tl.export_jsonl(path)
    return path


def _spec(tmp_path, threshold, **over):
    body = {
        "name": "dlq",
        "metric": "counters.repro_dlq_total",
        "threshold": threshold,
        "short_windows": 2,
        "long_windows": 4,
        "warn_burn": 0.5,
        "breach_burn": 1.0,
    }
    body.update(over)
    path = tmp_path / f"slo_{threshold}.json"
    path.write_text(json.dumps({"objectives": [body]}))
    return path


class TestObsTail:
    def test_prints_all_events(self, event_log, capsys):
        assert main(["obs", "tail", str(event_log)]) == 0
        out = capsys.readouterr().out
        assert "serve.engine.heartbeat" in out
        assert "serve.guard.dead_letter" in out
        assert "fault=late" in out

    def test_level_and_kind_filters(self, event_log, capsys):
        assert (
            main(
                [
                    "obs",
                    "tail",
                    str(event_log),
                    "--level",
                    "warn",
                    "--kind",
                    "serve.health",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "serve.health.transition" in out
        assert "heartbeat" not in out
        assert "dead_letter" not in out

    def test_last_n(self, event_log, capsys):
        assert main(["obs", "tail", str(event_log), "--last", "1"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert "serve.health.transition" in out[0]

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["obs", "tail", str(tmp_path / "nope.jsonl")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_malformed_log_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["obs", "tail", str(path)]) == 2


class TestObsSlo:
    def test_ok_exits_zero(self, tmp_path, timeline_jsonl, capsys):
        spec = _spec(tmp_path, threshold=100.0)
        code = main(
            ["obs", "slo", "--spec", str(spec), "--timeline", str(timeline_jsonl)]
        )
        assert code == 0
        assert "slo ok" in capsys.readouterr().out

    def test_warn_exits_one(self, tmp_path, timeline_jsonl, capsys):
        # 1/4 windows violate: short fraction hits warn_burn, but the
        # long window stays under breach_burn.
        spec = _spec(tmp_path, threshold=1.0)
        code = main(
            ["obs", "slo", "--spec", str(spec), "--timeline", str(timeline_jsonl)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "slo warn" in out and "1/4" in out

    def test_breach_exits_two(self, tmp_path, timeline_jsonl, capsys):
        spec = _spec(tmp_path, threshold=100.0, metric="window.events", op=">=")
        code = main(
            ["obs", "slo", "--spec", str(spec), "--timeline", str(timeline_jsonl)]
        )
        assert code == 2
        assert "slo breach" in capsys.readouterr().out

    def test_missing_spec_exits_two(self, timeline_jsonl, tmp_path, capsys):
        code = main(
            [
                "obs",
                "slo",
                "--spec",
                str(tmp_path / "nope.json"),
                "--timeline",
                str(timeline_jsonl),
            ]
        )
        assert code == 2

    def test_missing_timeline_exits_two(self, tmp_path, capsys):
        spec = _spec(tmp_path, threshold=1.0)
        code = main(
            [
                "obs",
                "slo",
                "--spec",
                str(spec),
                "--timeline",
                str(tmp_path / "nope.jsonl"),
            ]
        )
        assert code == 2
        assert "--timeline-out" in capsys.readouterr().err
