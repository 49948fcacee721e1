"""Micro-batching for scoring requests.

Vectorized forest scoring amortizes per-call overhead across rows, so
the engine holds pending requests briefly and scores them together.
Two bounds control the trade-off (the classic serving knobs):

- ``max_batch_size`` — flush as soon as this many requests are pending
  (throughput bound);
- ``max_wait_seconds`` — flush once the *oldest* pending request has
  waited this long (latency bound, a hard one); ``0`` flushes on every
  add, i.e. unbatched operation.

Holding a request is only worth it while the wait it costs stays below
what batching saves, one scoring call.  So when the request loop is idle
(:meth:`MicroBatcher.poll`) a batch also closes once the summed wait of
its pending requests reaches the measured cost of one scoring call —
the delayed-ACK (rent-or-buy) rule, 2-competitive with the best offline
schedule (Dooly, Goldman & Scott, STOC 1998).  The cost is a running
mean of the engine's own scoring calls (:meth:`MicroBatcher.record_cost`);
until one is measured, ``poll`` flushes by the wait bound only.
:meth:`MicroBatcher.add` keeps to the two bounds, so a burst still fills
its batch.

The clock is injectable so tests (and the deterministic replay harness)
can drive time explicitly; batching never affects score *values* — rows
are independent under :meth:`FailurePredictor.predict_proba_matrix` —
only latency and throughput.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

__all__ = ["BatchPolicy", "QueuePolicy", "MicroBatcher"]


@dataclass(frozen=True)
class BatchPolicy:
    """Flush bounds for the micro-batcher.

    ``max_wait_seconds`` is a hard bound on the oldest request's wait;
    an idle batch may close sooner, once its summed wait pays for one
    scoring call (see the module docstring).
    """

    max_batch_size: int = 256
    max_wait_seconds: float = 0.005

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_seconds < 0:
            raise ValueError("max_wait_seconds must be >= 0")


@dataclass(frozen=True)
class QueuePolicy:
    """Backpressure bounds on the engine's submit queue.

    ``max_depth`` caps how many scoring requests may be pending when a
    new submission arrives; at the cap, ``on_full`` decides:

    - ``"block"`` — flush (score) the pending batch synchronously before
      admitting the new request: every event is scored, callers absorb
      the scoring latency (classic backpressure);
    - ``"shed"`` — divert the incoming event to the dead-letter queue
      (fault class ``shed``) without ingesting it: submit latency stays
      flat and nothing is silently lost — ``serve heal`` re-admits shed
      events later.

    ``max_depth=None`` disables the bound (the PR-5 behavior).
    """

    max_depth: int | None = None
    on_full: str = "block"

    def __post_init__(self) -> None:
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 (or None)")
        if self.on_full not in ("block", "shed"):
            raise ValueError("on_full must be 'block' or 'shed'")


#: Weight of the newest call in the running mean of scoring-call cost
#: (the 1/8 of TCP's smoothed round-trip time, RFC 6298).
COST_SMOOTHING = 0.125


class MicroBatcher:
    """Accumulates requests and emits them in flush-bounded batches.

    Not thread-safe on its own — the engine serializes access.  Each
    pending entry is ``(enqueued_at, request)``; flushed batches preserve
    arrival order, so downstream scoring is deterministic.  The summed
    wait of the pending requests is kept in O(1): ``len * (now - t0)``
    minus the running sum of their enqueue offsets from the oldest
    one's time ``t0``.
    """

    def __init__(
        self,
        policy: BatchPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.policy = policy or BatchPolicy()
        self.clock = clock
        self._pending: list[tuple[float, Any]] = []
        self._offset_sum = 0.0
        #: Running mean of one scoring call's seconds; ``None`` until
        #: :meth:`record_cost` has seen a call.
        self.call_cost: float | None = None

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def oldest_wait(self) -> float:
        """Seconds the oldest pending request has been waiting (0 if none)."""
        if not self._pending:
            return 0.0
        return self.clock() - self._pending[0][0]

    def summed_wait(self, now: float | None = None) -> float:
        """Seconds waited so far, summed over every pending request."""
        if not self._pending:
            return 0.0
        now = self.clock() if now is None else now
        return len(self._pending) * (now - self._pending[0][0]) - self._offset_sum

    def record_cost(self, seconds: float) -> None:
        """Fold one measured scoring call into :attr:`call_cost`."""
        if self.call_cost is None:
            self.call_cost = seconds
        else:
            self.call_cost += COST_SMOOTHING * (seconds - self.call_cost)

    def add(self, request: Any) -> list[Any] | None:
        """Enqueue one request; returns a flushed batch when a bound trips."""
        now = self.clock()
        if self._pending:
            self._offset_sum += now - self._pending[0][0]
        self._pending.append((now, request))
        if len(self._pending) >= self.policy.max_batch_size:
            return self.flush()
        if now - self._pending[0][0] >= self.policy.max_wait_seconds:
            return self.flush()
        return None

    def next_flush_in(self) -> float | None:
        """Seconds until :meth:`poll` would flush (``None`` when empty).

        The sooner of the wait bound's remainder and, once a call cost
        is known, the time the summed wait needs to reach it: it grows
        by one second per pending request per second.
        """
        if not self._pending:
            return None
        now = self.clock()
        due = self.policy.max_wait_seconds - (now - self._pending[0][0])
        if self.call_cost is not None:
            by_cost = (self.call_cost - self.summed_wait(now)) / len(self._pending)
            due = min(due, by_cost)
        return max(due, 0.0)

    def poll(self) -> list[Any] | None:
        """Flush on an idle tick: once the oldest pending request reached
        the wait bound, or the pending requests' summed wait reached one
        scoring call's measured cost (wait bound only until a cost is
        recorded): exactly when :meth:`next_flush_in` reads 0, so the
        idle tick and a caller's timer never disagree."""
        if self.next_flush_in() == 0:  # None when nothing is pending
            return self.flush()
        return None

    def flush(self) -> list[Any]:
        """Emit every pending request (possibly empty), oldest first."""
        batch = [req for _, req in self._pending]
        self._pending.clear()
        self._offset_sum = 0.0
        return batch
