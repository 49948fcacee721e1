"""Deterministic windowed time-series over the active metrics registry.

The one-shot manifest (:mod:`repro.obs.manifest`) answers "what happened
over the whole run"; this module answers "what was happening *while* it
ran".  A :class:`Timeline` chops a stream of events into windows and
records, per window:

- **counter deltas** — how much each counter moved inside the window
  (rates follow by dividing by the window's event span);
- **gauge values** — the level at the window boundary;
- **histogram quantiles** — p50/p90/p99 estimated from the window's own
  bucket deltas, each carrying the ``clamped`` overflow flag from
  :func:`repro.obs.metrics.bucket_quantile`.

Ticks are driven by *event counts and watermark advances*, never wall
clock: the same event stream produces the same window boundaries on any
machine at any speed, which is what keeps ``serve replay`` bit-identical
with telemetry enabled (DESIGN.md §15).  Wall-clock timings still appear
*inside* windows (latency histograms), but never decide where a window
starts or ends.

Windows live in a bounded ring buffer; old windows are dropped (and
counted) rather than growing without bound in a long-running server.
Running totals survive the ring, so :meth:`Timeline.summary` is exact
even after drops.

Cross-process: workers under :mod:`repro.parallel` record into a private
timeline (activated by ``capture_obs``), ship it back as part of the
obs delta, and the parent absorbs it via :meth:`Timeline.absorb` — same
shape as span and metric merging in :mod:`repro.parallel.obsmerge`.

Like tracing and metrics, hot paths call the module-level
:func:`record`, which no-ops unless a timeline is activated.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from collections.abc import Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

from . import metrics as metrics_mod
from .durable import atomic_write, read_jsonl
from .metrics import MetricsRegistry, bucket_quantile

__all__ = [
    "DEFAULT_QUANTILES",
    "TickPolicy",
    "TimelineWindow",
    "Timeline",
    "activate",
    "current",
    "set_active",
    "record",
    "load_timeline_jsonl",
]

#: Quantiles estimated per window for every histogram family.
DEFAULT_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.99)


@dataclass(frozen=True)
class TickPolicy:
    """When a window closes.

    ``every_events`` closes a window after that many recorded events;
    ``on_watermark`` additionally closes one whenever the watermark
    advances (so windows align with fleet-day boundaries during replay).
    Both are deterministic functions of the event stream.
    """

    every_events: int = 1024
    on_watermark: bool = True
    max_windows: int = 512
    quantiles: tuple[float, ...] = DEFAULT_QUANTILES

    def __post_init__(self) -> None:
        if self.every_events < 1:
            raise ValueError("every_events must be >= 1")
        if self.max_windows < 1:
            raise ValueError("max_windows must be >= 1")
        for q in self.quantiles:
            if not 0.0 <= q <= 1.0:
                raise ValueError("quantiles must be in [0, 1]")


@dataclass
class TimelineWindow:
    """One closed window: counter deltas, gauge levels, quantiles."""

    index: int
    start_events: int
    end_events: int
    watermark: int = -1
    reason: str = "events"
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    quantiles: dict[str, dict[str, float | bool | int]] = field(default_factory=dict)

    @property
    def events(self) -> int:
        return self.end_events - self.start_events

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "start_events": self.start_events,
            "end_events": self.end_events,
            "watermark": self.watermark,
            "reason": self.reason,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "quantiles": dict(sorted(self.quantiles.items())),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> TimelineWindow:
        return cls(
            index=int(d["index"]),
            start_events=int(d["start_events"]),
            end_events=int(d["end_events"]),
            watermark=int(d.get("watermark", -1)),
            reason=str(d.get("reason", "events")),
            counters={str(k): float(v) for k, v in d.get("counters", {}).items()},
            gauges={str(k): float(v) for k, v in d.get("gauges", {}).items()},
            quantiles={str(k): dict(v) for k, v in d.get("quantiles", {}).items()},
        )


def _series_key(name: str, labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return name
    inner = ",".join(f'{ln}="{lv}"' for ln, lv in zip(labelnames, labelvalues))
    return f"{name}{{{inner}}}"


def _flatten(registry: MetricsRegistry) -> tuple[
    dict[str, float],
    dict[str, float],
    dict[str, tuple[tuple[float, ...], list[int], int]],
]:
    """Flatten a registry snapshot into ``key -> value`` maps.

    Returns ``(counters, gauges, histograms)`` where histogram values are
    ``(upper_bounds, bucket_counts, inf_count)`` — raw, non-cumulative,
    ready for delta arithmetic.
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    hists: dict[str, tuple[tuple[float, ...], list[int], int]] = {}
    for fam in registry.snapshot():
        names = fam["labelnames"]
        for entry in fam["series"]:
            key = _series_key(fam["name"], names, entry["labels"])
            if fam["kind"] == "counter":
                counters[key] = float(entry["value"])
            elif fam["kind"] == "gauge":
                gauges[key] = float(entry["value"])
            else:
                hists[key] = (
                    tuple(float(b) for b in fam["buckets"]),
                    [int(c) for c in entry["bucket_counts"]],
                    int(entry["inf_count"]),
                )
    return counters, gauges, hists


class Timeline:
    """Bounded ring of deterministic windows over the active registry.

    Thread-safe; a single lock guards the ring and the running totals.
    ``registry`` defaults to whatever :func:`repro.obs.metrics.current`
    returns *at each tick*, so one timeline follows registry swaps (e.g.
    worker capture) without rewiring.
    """

    def __init__(
        self,
        policy: TickPolicy | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.policy = policy or TickPolicy()
        self._registry = registry
        self._lock = threading.Lock()
        self._windows: deque[TimelineWindow] = deque(maxlen=self.policy.max_windows)
        self.events_total = 0
        self.windows_emitted = 0
        self.windows_dropped = 0
        self.watermark = -1
        self._window_start = 0
        self._last_counters: dict[str, float] = {}
        self._last_hists: dict[str, tuple[tuple[float, ...], list[int], int]] = {}
        self._counter_totals: dict[str, float] = {}

    # ------------------------------------------------------------ recording
    def record(self, n_events: int = 1, watermark: int | None = None) -> None:
        """Advance the event count; close windows at tick boundaries.

        ``watermark`` is the fleet-day high-water mark after these
        events; passing a value greater than the current one closes the
        window first (when ``on_watermark``) so windows never straddle a
        watermark advance.
        """
        if n_events < 0:
            raise ValueError("n_events must be >= 0")
        with self._lock:
            if (
                watermark is not None
                and watermark > self.watermark
                and self.policy.on_watermark
                and self.events_total > self._window_start
            ):
                self._close_window("watermark")
            if watermark is not None and watermark > self.watermark:
                self.watermark = watermark
            self.events_total += n_events
            while self.events_total - self._window_start >= self.policy.every_events:
                self._close_window("events")

    def flush(self) -> None:
        """Close the current partial window, if it has any events."""
        with self._lock:
            if self.events_total > self._window_start:
                self._close_window("flush")

    def _close_window(self, reason: str) -> None:
        """Close ``[self._window_start, boundary)``; caller holds the lock."""
        if reason == "events":
            boundary = self._window_start + self.policy.every_events
        else:
            boundary = self.events_total
        registry = self._registry or metrics_mod.current()
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        quantiles: dict[str, dict[str, float | bool | int]] = {}
        if registry is not None:
            cur_counters, gauges, cur_hists = _flatten(registry)
            for key, value in cur_counters.items():
                delta = value - self._last_counters.get(key, 0.0)
                if delta:
                    counters[key] = delta
                self._counter_totals[key] = (
                    self._counter_totals.get(key, 0.0) + delta
                )
            self._last_counters = cur_counters
            for key, (bounds, cum_counts, inf_count) in cur_hists.items():
                prev = self._last_hists.get(key)
                if prev is not None and prev[0] == bounds:
                    d_counts = [c - p for c, p in zip(cum_counts, prev[1])]
                    d_inf = inf_count - prev[2]
                else:
                    d_counts, d_inf = list(cum_counts), inf_count
                n = sum(d_counts) + d_inf
                if n:
                    entry: dict[str, float | bool | int] = {"count": n}
                    clamped_any = False
                    for q in self.policy.quantiles:
                        value, clamped = bucket_quantile(bounds, d_counts, d_inf, q)
                        entry[f"p{round(q * 100):d}"] = value
                        clamped_any = clamped_any or clamped
                    entry["clamped"] = clamped_any
                    quantiles[key] = entry
            self._last_hists = cur_hists
        window = TimelineWindow(
            index=self.windows_emitted,
            start_events=self._window_start,
            end_events=boundary,
            watermark=self.watermark,
            reason=reason,
            counters=counters,
            gauges=gauges,
            quantiles=quantiles,
        )
        if len(self._windows) == self._windows.maxlen:
            self.windows_dropped += 1
        self._windows.append(window)
        self.windows_emitted += 1
        self._window_start = boundary

    # ------------------------------------------------------------- reading
    def windows(self) -> list[TimelineWindow]:
        with self._lock:
            return list(self._windows)

    def summary(self) -> dict:
        """Exact running totals, independent of ring-buffer drops."""
        with self._lock:
            return {
                "events_total": self.events_total,
                "windows_emitted": self.windows_emitted,
                "windows_dropped": self.windows_dropped,
                "watermark": self.watermark,
                "counter_totals": dict(sorted(self._counter_totals.items())),
            }

    # -------------------------------------------------------- merge / export
    def delta(self) -> dict:
        """Picklable dump for cross-process merge (see ``obsmerge``)."""
        self.flush()
        with self._lock:
            return {
                "windows": [w.to_dict() for w in self._windows],
                "events_total": self.events_total,
                "windows_emitted": self.windows_emitted,
                "windows_dropped": self.windows_dropped,
                "watermark": self.watermark,
                "counter_totals": dict(self._counter_totals),
            }

    def absorb(self, delta: Mapping) -> None:
        """Fold a worker's :meth:`delta` into this timeline.

        Worker windows are re-indexed and their event offsets shifted
        past everything already recorded here, preserving arrival order;
        totals add.  Merging in deterministic task order therefore yields
        a deterministic merged timeline.
        """
        with self._lock:
            if self.events_total > self._window_start:
                self._close_window("flush")
            base = self.events_total
            for d in delta.get("windows", ()):
                w = TimelineWindow.from_dict(d)
                w.index = self.windows_emitted
                w.start_events += base
                w.end_events += base
                if len(self._windows) == self._windows.maxlen:
                    self.windows_dropped += 1
                self._windows.append(w)
                self.windows_emitted += 1
            self.events_total += int(delta.get("events_total", 0))
            self._window_start = self.events_total
            self.windows_dropped += int(delta.get("windows_dropped", 0))
            self.watermark = max(self.watermark, int(delta.get("watermark", -1)))
            for key, value in delta.get("counter_totals", {}).items():
                self._counter_totals[key] = (
                    self._counter_totals.get(key, 0.0) + float(value)
                )
            # Counter baselines no longer match the shared registry after a
            # foreign merge; resync so the next window's deltas stay local.
            registry = self._registry or metrics_mod.current()
            if registry is not None:
                self._last_counters, _, self._last_hists = _flatten(registry)

    def export_jsonl(self, path) -> int:
        """Write one JSON line per retained window; returns lines written.

        The file is replaced atomically: an export that dies partway
        leaves the previous timeline (the one ``obs slo`` gates on) whole.
        """
        windows = self.windows()
        with atomic_write(path, "w") as fh:
            for w in windows:
                fh.write(json.dumps(w.to_dict(), sort_keys=True) + "\n")
        return len(windows)


def load_timeline_jsonl(path) -> list[TimelineWindow]:
    """Parse a timeline JSONL export back into windows."""
    out: list[TimelineWindow] = []
    for lineno, body in read_jsonl(path):
        try:
            out.append(TimelineWindow.from_dict(body))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}:{lineno}: bad timeline line: {exc}") from exc
    return out


# --------------------------------------------------------------------------
# process-wide activation (mirrors tracing/metrics)
# --------------------------------------------------------------------------

_active: Timeline | None = None


def current() -> Timeline | None:
    """The process-wide active timeline, or ``None`` when off."""
    return _active


def set_active(timeline: Timeline | None) -> Timeline | None:
    """Install (or clear) the active timeline; returns the previous one."""
    global _active
    previous = _active
    _active = timeline
    return previous


@contextmanager
def activate(timeline: Timeline | None = None) -> Iterator[Timeline]:
    """Activate a timeline for the duration of the block."""
    timeline = timeline if timeline is not None else Timeline()
    previous = set_active(timeline)
    try:
        yield timeline
    finally:
        set_active(previous)


def record(n_events: int = 1, watermark: int | None = None) -> None:
    """Record events on the active timeline (no-op when inactive)."""
    tl = _active
    if tl is None:
        return
    tl.record(n_events, watermark=watermark)
