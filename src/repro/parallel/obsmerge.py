"""Observability under fan-out: capture in workers, merge in the parent.

A pool worker runs with no access to the parent's span tracer or metrics
registry (they live in another process), so instrumented library code
would silently lose its telemetry under ``workers > 1``.  Instead, every
worker task executes inside :func:`capture_obs`, which activates a
*private* :class:`~repro.obs.tracing.Tracer` and
:class:`~repro.obs.metrics.MetricsRegistry` for the duration of the task
and serializes both into a picklable :class:`ObsDelta`.  The delta ships
back with the task result, and the parent folds it into its own active
collectors via :func:`merge_obs`:

- spans are re-homed with fresh ids, re-parented onto the span that is
  open on the consuming thread, and shifted onto the parent's timeline
  (the worker's clock epoch is meaningless here); a parent tracer that
  does not keep spans folds them into its stage aggregates and drops
  them;
- counters and histograms are added, gauges take the worker's value.

The net effect: stage summaries, run manifests and Prometheus exports
look the same whether a run used 1 worker or 16 — only the timings (and
the shard-level span layout) reveal the fan-out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..obs import metrics, timeline as obs_timeline, tracing

__all__ = ["ObsDelta", "capture_obs", "merge_obs"]


@dataclass
class ObsDelta:
    """Serialized observability state recorded by one worker task."""

    spans: list[dict[str, Any]] = field(default_factory=list)
    metrics: list[dict[str, Any]] = field(default_factory=list)
    timeline: dict[str, Any] | None = None
    elapsed: float = 0.0

    def __bool__(self) -> bool:
        return bool(self.spans or self.metrics or self.timeline)


@contextmanager
def capture_obs(enabled: bool = True) -> Iterator[ObsDelta]:
    """Run the body under private obs collectors; fill the yielded delta.

    With ``enabled=False`` the body runs untouched (the parent had no
    active collectors, so there is nothing worth shipping back) and the
    delta stays empty.
    """
    delta = ObsDelta()
    if not enabled:
        yield delta
        return
    tracer = tracing.Tracer(keep_spans=True)  # shipped as span dicts
    registry = metrics.MetricsRegistry()
    timeline = obs_timeline.Timeline(registry=registry)
    t0 = time.perf_counter()
    with (
        tracing.activate(tracer),
        metrics.activate(registry),
        obs_timeline.activate(timeline),
    ):
        yield delta
    delta.elapsed = time.perf_counter() - t0
    delta.spans = tracer.to_dicts()
    delta.metrics = registry.snapshot()
    tl_delta = timeline.delta()
    # Ship the timeline only when the task actually recorded events —
    # most worker tasks (simulate shards, predict shards) never do.
    if tl_delta["events_total"] or tl_delta["windows"]:
        delta.timeline = tl_delta


def merge_obs(
    delta: ObsDelta | None, extra_attrs: dict[str, Any] | None = None
) -> None:
    """Fold a worker's delta into the parent's active collectors.

    A no-op when the delta is empty or when no tracer/registry is active
    (observability off).  Absorbed spans are parented onto the innermost
    span open on the calling thread and placed on the parent timeline so
    that they *end* at merge time — the closest monotone approximation
    available without a shared clock.

    ``extra_attrs`` is stamped onto the delta's *root* spans (those whose
    parent is outside the batch) — the supervision layer uses it to mark
    retried tasks with their winning attempt number.
    """
    if not delta:
        return
    tracer = tracing.current()
    if tracer is not None and delta.spans:
        spans = delta.spans
        if extra_attrs:
            span_ids = {s.get("span_id") for s in spans}
            stamped = []
            for s in spans:
                if s.get("parent_id") not in span_ids:
                    s = dict(s)
                    s["attrs"] = {**s.get("attrs", {}), **extra_attrs}
                stamped.append(s)
            spans = stamped
        offset = max(tracer.now() - delta.elapsed, 0.0)
        tracer.absorb(
            spans, offset=offset, parent_id=tracer.current_parent_id()
        )
    registry = metrics.current()
    if registry is not None and delta.metrics:
        registry.merge_snapshot(delta.metrics)
    timeline = obs_timeline.current()
    if timeline is not None and delta.timeline:
        timeline.absorb(delta.timeline)
