"""Zero-dependency span tracing with a thread-safe in-process collector.

A *span* is one timed stage of a run — loading a trace, simulating a
chunk of drives, fitting one CV fold — named after the convention
``repro.<module>.<stage>`` (DESIGN.md §10) and carrying numeric
attributes such as ``rows_in``/``rows_out``.  Spans nest: the span that
is open on the current thread when a new one starts becomes its parent,
so the collected list reconstructs the full call tree.

A :class:`Tracer` folds every finished span into per-stage aggregates
(:meth:`Tracer.stage_summary`) as it ends, so a long-running process's
tracer stays flat in memory.  The span objects themselves — the tree a
``--trace-spans`` manifest records — are kept only by a
``Tracer(keep_spans=True)``.

Instrumented library code never talks to a :class:`Tracer` directly; it
calls the module-level :func:`span` context manager (or the
:func:`traced` decorator), which is a near-free no-op unless a tracer
has been activated for the process::

    from repro.obs import tracing

    with tracing.activate() as tracer:
        with tracing.span("repro.data.load_records", rows_out=n):
            ...
    tracer.stage_summary()  # {"repro.data.load_records": {...}}

Timings use :func:`time.perf_counter` (monotonic), so span durations are
immune to wall-clock adjustments.  The collector takes its lock only on
span *start* (for its id) and *finish*; the per-thread open-span stack is
thread-local.
"""

from __future__ import annotations

import functools
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "Span",
    "Tracer",
    "activate",
    "current",
    "set_active",
    "span",
    "traced",
]


@dataclass
class Span:
    """One finished (or still-open) timed stage.

    Attributes
    ----------
    name:
        Dotted stage name (``repro.<module>.<stage>``).
    span_id, parent_id:
        Collector-unique ids; ``parent_id`` is ``None`` for roots.
    start:
        Seconds since the tracer's epoch (monotonic clock).
    duration:
        Seconds; ``None`` while the span is still open.
    attrs:
        Free-form attributes; numeric ``rows_*``/``n_*`` keys are summed
        into the per-stage aggregates of :meth:`Tracer.stage_summary`.
    """

    name: str
    span_id: int
    parent_id: int | None
    start: float
    duration: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    def set(self, **attrs: Any) -> "Span":
        """Set (overwrite) attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def add(self, **attrs: float) -> "Span":
        """Accumulate numeric attributes (missing keys start at 0)."""
        for key, value in attrs.items():
            self.attrs[key] = self.attrs.get(key, 0) + value
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }


class _NullSpan:
    """Attribute sink used when no tracer is active."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def add(self, **attrs: float) -> "_NullSpan":
        return self


class _NullContext:
    """Context manager that hands out the shared null span."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullContext()

#: Aggregated per-stage numeric attributes (summed in stage_summary).
_SUMMED_PREFIXES = ("rows_", "n_")


class Tracer:
    """Thread-safe collector: per-stage aggregates, plus the finished
    spans themselves when ``keep_spans`` is set."""

    def __init__(self, keep_spans: bool = False) -> None:
        self.keep_spans = keep_spans
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()
        self._stages: dict[str, dict[str, float]] = {}
        self._spans: list[Span] = []
        self._next_id = 0
        self._local = threading.local()

    # ------------------------------------------------------------- recording
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _fold(self, name: str, duration: float | None, attrs: dict) -> None:
        """Add one finished span to its stage's aggregate (lock held)."""
        agg = self._stages.get(name)
        if agg is None:
            agg = self._stages[name] = {
                "calls": 0,
                "total_seconds": 0.0,
                "min_seconds": float("inf"),
                "max_seconds": 0.0,
            }
        dur = duration or 0.0
        agg["calls"] += 1
        agg["total_seconds"] += dur
        agg["min_seconds"] = min(agg["min_seconds"], dur)
        agg["max_seconds"] = max(agg["max_seconds"], dur)
        for key, value in attrs.items():
            if key.startswith(_SUMMED_PREFIXES) and isinstance(value, (int, float)):
                agg[key] = agg.get(key, 0) + value

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a nested span; it is folded into the aggregates (and
        kept, under ``keep_spans``) when it finishes."""
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        t0 = time.perf_counter()
        sp = Span(
            name=name,
            span_id=span_id,
            parent_id=parent_id,
            start=t0 - self._epoch,
            attrs=dict(attrs),
        )
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.duration = time.perf_counter() - t0
            stack.pop()
            with self._lock:
                self._fold(sp.name, sp.duration, sp.attrs)
                if self.keep_spans:
                    self._spans.append(sp)

    def now(self) -> float:
        """Seconds since this tracer's epoch (monotonic clock)."""
        return time.perf_counter() - self._epoch

    def current_parent_id(self) -> int | None:
        """Span id of the innermost open span on this thread (or ``None``)."""
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def absorb(
        self,
        span_dicts: list[dict[str, Any]],
        offset: float = 0.0,
        parent_id: int | None = None,
    ) -> int:
        """Adopt spans recorded by another tracer (e.g. a pool worker).

        Each span is folded into this tracer's aggregates.  Kept spans
        get ids from this collector's sequence; parent links *within*
        the batch are preserved, batch roots are re-parented onto
        ``parent_id``.  ``offset`` shifts the foreign start times (the
        other tracer has its own epoch) onto this tracer's timeline.
        Returns the number of spans absorbed.
        """
        span_dicts = list(span_dicts)
        with self._lock:
            for d in span_dicts:
                self._fold(d["name"], d.get("duration"), d.get("attrs", {}))
            if not self.keep_spans:
                return len(span_dicts)
            base = self._next_id
            self._next_id += len(span_dicts)
        remap = {
            d["span_id"]: base + i
            for i, d in enumerate(span_dicts)
            if d.get("span_id") is not None
        }
        adopted = [
            Span(
                name=d["name"],
                span_id=base + i,
                parent_id=remap.get(d.get("parent_id"), parent_id),
                start=float(d.get("start", 0.0)) + offset,
                duration=d.get("duration"),
                attrs=dict(d.get("attrs", {})),
            )
            for i, d in enumerate(span_dicts)
        ]
        with self._lock:
            self._spans.extend(adopted)
        return len(adopted)

    # --------------------------------------------------------------- reading
    def finished(self) -> list[Span]:
        """Finished spans, ordered by start time (empty unless
        ``keep_spans``)."""
        with self._lock:
            return sorted(self._spans, key=lambda s: (s.start, s.span_id))

    def to_dicts(self) -> list[dict[str, Any]]:
        """JSON-ready list of finished spans (start order)."""
        return [s.to_dict() for s in self.finished()]

    def stage_summary(self) -> dict[str, dict[str, float]]:
        """Per-stage aggregates of every finished span.

        Per stage: ``calls``, ``total_seconds``, ``min_seconds``,
        ``max_seconds`` plus the sum of every numeric attribute whose key
        starts with ``rows_`` or ``n_`` (row accounting).
        """
        with self._lock:
            return {name: dict(agg) for name, agg in self._stages.items()}


# --------------------------------------------------------------------------
# process-wide activation
# --------------------------------------------------------------------------

_active: Tracer | None = None


def current() -> Tracer | None:
    """The process-wide active tracer, or ``None`` when tracing is off."""
    return _active


def set_active(tracer: Tracer | None) -> Tracer | None:
    """Install (or clear) the active tracer; returns the previous one."""
    global _active
    previous = _active
    _active = tracer
    return previous


@contextmanager
def activate(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Activate a tracer for the duration of the block (reentrant-safe).

    Without ``tracer`` the block gets a fresh one that keeps its spans:
    a block that makes its own tracer is there to read it back.
    """
    tracer = tracer if tracer is not None else Tracer(keep_spans=True)
    previous = set_active(tracer)
    try:
        yield tracer
    finally:
        set_active(previous)


def span(name: str, **attrs: Any):
    """Open a span on the active tracer; a cheap no-op when tracing is off.

    Returns a context manager yielding either a real :class:`Span` or a
    shared null span whose ``set``/``add`` do nothing.
    """
    tracer = _active
    if tracer is None:
        return _NULL_CONTEXT
    return tracer.span(name, **attrs)


def traced(name: str | None = None) -> Callable:
    """Decorator form of :func:`span` (stage name defaults to the
    ``repro.<module>.<function>`` convention)."""

    def decorate(fn: Callable) -> Callable:
        label = name or f"repro.{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with span(label):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
