"""In-memory span recorder and the wrappers that time each layer's calls.

The traced run wraps the public entry points of the objects the
benchmark builds (predictor, feature store, guard, journals, batcher,
engine, fleet runner pieces) from the outside: the program itself is
not edited.  Every wrapped call records one span — name, start, end and
the span open when it began (its parent) — into flat arrays, so a
traced run with hundreds of thousands of calls stays a few megabytes.
Spans are written out once, at the end of the run.

A span's *self time* is its duration minus the durations of its direct
children.  Calls run on one thread and nest strictly, so the children
of one span never overlap and their summed durations are exactly the
part of the parent's interval they cover.
"""

from __future__ import annotations

import time
from array import array
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

__all__ = ["SpanRecorder", "PolicyProxy", "percentile"]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of ``values`` (0 if empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return float(ordered[min(int(rank), len(ordered)) - 1])


class SpanRecorder:
    """Records nested spans into flat arrays; computes self times.

    ``clock`` is injectable so tests can drive the arithmetic with a
    fake clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        #: Free-form per-layer counters (bytes written, rows, ...).
        self.counts: dict[str, float] = {}
        #: Per-call samples some layers keep (rows per predict call, ...).
        self.samples: dict[str, list[float]] = {}

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(self.clock())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order ({popped} open)")

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    # ------------------------------------------------------------ wrapping
    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Callable[[Any, tuple, dict], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name``; ``after(result, args, kwargs)``
        runs outside the span to record counts from the call."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def instrument(
        self,
        obj: Any,
        method: str,
        name: str,
        after: Callable[[Any, tuple, dict], None] | None = None,
    ) -> None:
        """Shadow ``obj.method`` with a timed wrapper on the instance.

        Calls the object makes on itself (``self.method(...)``) resolve
        to the instance attribute too, so internal calls are timed.
        """
        setattr(obj, method, self.wrap(name, getattr(obj, method), after))

    # ------------------------------------------------------------ results
    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def own_times(self) -> list[float]:
        """Each span's self time: its duration minus its direct children's."""
        dur = self.durations()
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def self_times(self) -> dict[str, tuple[float, int]]:
        """``{name: (summed self seconds, calls)}`` over every span."""
        out: dict[str, list[float]] = {}
        for own, nid in zip(self.own_times(), self.name_id):
            acc = out.setdefault(self.names[nid], [0.0, 0])
            acc[0] += own
            acc[1] += 1
        return {k: (v[0], int(v[1])) for k, v in out.items()}

    def root_self_time(self, prefix: str) -> float:
        """Summed self time of the outermost spans (no parent) whose name
        starts with ``prefix``: the time such a span spends outside every
        wrapped call it makes."""
        return sum(
            own
            for own, nid, p in zip(self.own_times(), self.name_id, self.parent)
            if p < 0 and self.names[nid].startswith(prefix)
        )

    def call_durations(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [
            e - s
            for k, s, e in zip(self.name_id, self.start, self.end)
            if k == nid
        ]

    def save(self, path: Path) -> None:
        """Write every span (name, start, end, parent index) as one NPZ."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.asarray(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


class PolicyProxy:
    """Delegating stand-in for a frozen policy dataclass.

    Policies are frozen, so ``decide`` cannot be shadowed with
    ``setattr``; this proxy forwards every attribute and times
    ``decide``, counting the actions it proposes.
    """

    def __init__(self, policy: Any, recorder: SpanRecorder):
        self._policy = policy
        self._recorder = recorder

    def __getattr__(self, name: str) -> Any:
        return getattr(self._policy, name)

    def decide(self, view: Any, state: Any, day: int) -> list:
        with self._recorder.span("fleet.policy.decide"):
            actions = self._policy.decide(view, state, day)
        self._recorder.count("fleet.actions.proposed", len(actions))
        return actions
