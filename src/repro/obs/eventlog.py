"""Structured JSONL event log with levels and span correlation.

Where :mod:`repro.obs.tracing` answers "how long did stages take" and
:mod:`repro.obs.timeline` answers "what were the rates per window", the
event log answers "what *happened*": guard rejections, dead-letter
diversions, health-state transitions, heartbeats — discrete facts that
used to be ad-hoc prints or invisible.

Each event is one JSON line::

    {"seq": 12, "ts": 1733000000.0, "level": "warn",
     "kind": "serve.health.transition", "msg": "ready -> degraded",
     "span": 41, "from": "ready", "to": "degraded"}

- ``seq`` is per-file monotone and resumes from an existing file's
  complete records, so appends across restarts never collide (the one
  log policy of :mod:`repro.obs.durable`, shared with the DLQ journal).
- ``ts`` is :func:`repro.obs.durable.now` — the clock that also stamps
  :class:`repro.obs.manifest.RunManifest`, so golden event logs diff
  clean when it is pinned.
- ``span`` is the innermost open span id on the active tracer at emit
  time (``null`` outside any span), correlating events with the trace.
- extra keyword fields land top-level (reserved keys are prefixed with
  ``x_`` instead of clobbering the envelope).

Event *kinds* follow the span naming convention
(``repro.<module>.<what>``, DESIGN.md §10) minus the leading ``repro.``
— e.g. ``serve.guard.dead_letter``, ``serve.engine.heartbeat``.

Module-level :func:`emit` no-ops unless a log is activated, mirroring
tracing/metrics/timeline, so instrumented code never checks a flag.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from . import tracing
from .durable import JsonlLog, now, read_jsonl

__all__ = [
    "LEVELS",
    "EventLog",
    "activate",
    "current",
    "set_active",
    "emit",
    "iter_events",
    "load_events",
]

#: Level name -> numeric severity (filtering compares numerically).
LEVELS: dict[str, int] = {"debug": 10, "info": 20, "warn": 30, "error": 40}

_RESERVED = frozenset({"seq", "ts", "level", "kind", "msg", "span"})


def _level_num(level: str) -> int:
    try:
        return LEVELS[level]
    except KeyError:
        raise ValueError(
            f"unknown event level {level!r} (expected one of {sorted(LEVELS)})"
        ) from None


class EventLog:
    """Append-only JSONL event sink, thread-safe, flushed per line.

    The file is created on construction and follows the log policy of
    :mod:`repro.obs.durable`; emits after :meth:`close` are dropped.
    """

    def __init__(self, path: str | Path, min_level: str = "debug") -> None:
        self.path = Path(path)
        self.min_level = min_level
        self._threshold = _level_num(min_level)
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {name: 0 for name in LEVELS}
        self._log: JsonlLog | None = JsonlLog(self.path)
        self._log.open()

    # ------------------------------------------------------------- emitting
    def emit(self, kind: str, msg: str = "", level: str = "info", **fields: Any) -> None:
        """Append one event (dropped when below ``min_level``)."""
        severity = _level_num(level)
        if severity < self._threshold:
            return
        tracer = tracing.current()
        span_id = tracer.current_parent_id() if tracer is not None else None
        record: dict[str, Any] = {
            "seq": 0,  # patched under the lock below
            "ts": now(),
            "level": level,
            "kind": kind,
            "msg": msg,
            "span": span_id,
        }
        for key, value in fields.items():
            record[f"x_{key}" if key in _RESERVED else key] = value
        with self._lock:
            if self._log is None:
                return
            record["seq"] = self._log.appended
            self._counts[level] += 1
            self._log.append(record)

    def counts(self) -> dict[str, int]:
        """Events emitted by this instance, per level."""
        with self._lock:
            return dict(self._counts)

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        with self._lock:
            if self._log is not None:
                self._log.close()
                self._log = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# --------------------------------------------------------------------------
# reading (obs tail, tests)
# --------------------------------------------------------------------------

def iter_events(
    path: str | Path,
    min_level: str = "debug",
    kind_prefix: str | None = None,
) -> Iterator[dict[str, Any]]:
    """Stream events from a JSONL log, filtered by level and kind prefix.

    Malformed lines raise ``ValueError`` with the line number — a sick
    event log is itself an event worth hearing about.
    """
    threshold = _level_num(min_level)
    for _, record in read_jsonl(path):
        if LEVELS.get(record.get("level", "info"), 20) < threshold:
            continue
        if kind_prefix and not str(record.get("kind", "")).startswith(kind_prefix):
            continue
        yield record


def load_events(
    path: str | Path,
    min_level: str = "debug",
    kind_prefix: str | None = None,
) -> list[dict[str, Any]]:
    """:func:`iter_events`, materialized."""
    return list(iter_events(path, min_level=min_level, kind_prefix=kind_prefix))


# --------------------------------------------------------------------------
# process-wide activation (mirrors tracing/metrics/timeline)
# --------------------------------------------------------------------------

_active: EventLog | None = None


def current() -> EventLog | None:
    """The process-wide active event log, or ``None`` when off."""
    return _active


def set_active(log: EventLog | None) -> EventLog | None:
    """Install (or clear) the active event log; returns the previous one."""
    global _active
    previous = _active
    _active = log
    return previous


@contextmanager
def activate(log: EventLog) -> Iterator[EventLog]:
    """Activate an event log for the duration of the block."""
    previous = set_active(log)
    try:
        yield log
    finally:
        set_active(previous)


def emit(kind: str, msg: str = "", level: str = "info", **fields: Any) -> None:
    """Emit on the active event log (no-op when inactive)."""
    log = _active
    if log is None:
        return
    log.emit(kind, msg=msg, level=level, **fields)
