"""Open-loop load generator for the ``live`` workload.

Arrivals follow a fixed, seeded Poisson schedule.  One thread offers
each event at its due time whether or not earlier events have been
scored, so a stall in the program delays every event behind it — and
because latency is measured from the *due* time, not from the moment
the generator got round to submitting, that wait is charged to those
events.  While idle the generator calls ``engine.poll()``, which flushes a
micro-batch whose oldest request has waited past the batch wait bound.

Between polls the generator waits by spinning on the clock, not by
sleeping.  On a shared VM a sleeping vCPU is descheduled, and when the
host is contended its wake-up is late: 0.5 ms sleeps overshot by 2.3 ms
at p99 and by up to 30 ms, with 14-16 steal ticks/s, where a spinning
wait overshot by 12-34 us at p99 with 1.5-2 steal ticks/s.  Those late
wake-ups landed in the program's latency.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["poisson_schedule", "spin_wait", "OpenLoopResult", "drive_open_loop"]


def poisson_schedule(n: int, rate: float, seed: int) -> np.ndarray:
    """Due offsets (seconds from start) of ``n`` Poisson arrivals."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EB]))
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


def spin_wait(seconds: float) -> None:
    """Wait ``seconds`` without giving up the CPU."""
    until = time.perf_counter() + seconds
    while time.perf_counter() < until:
        pass


@dataclass
class OpenLoopResult:
    #: Scored events in the order the engine returned them.
    scored: list = field(default_factory=list)
    #: Seconds from each scored event's due time to the return of its
    #: score, aligned with ``scored``.
    latency_s: list = field(default_factory=list)
    #: Due offset (seconds from start) of each scored event.
    due_s: list = field(default_factory=list)
    #: Seconds each arrival was offered after its due time.
    lag_s: list = field(default_factory=list)
    #: Seconds spent waiting for the next due time.
    idle_s: float = 0.0
    #: Wall seconds from the start of the schedule to the last score.
    elapsed_s: float = 0.0


def drive_open_loop(
    engine: Any,
    events: Iterable[dict],
    due: Sequence[float],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = spin_wait,
    idle_step: float = 0.0005,
) -> OpenLoopResult:
    """Offer ``events[i]`` at ``start + due[i]``; time every score.

    ``engine`` needs ``submit``/``poll``/``drain`` and the
    ``requests_total`` counter of :class:`repro.serve.ScoringEngine`.
    An arrival became a scoring request when ``requests_total`` grew
    during its ``submit``; scores come back in request order (the
    micro-batcher is FIFO), so a queue of due times pairs each score
    with its arrival.
    """
    out = OpenLoopResult()
    pending: deque[float] = deque()

    def collect(scored: list) -> None:
        if scored:
            now = clock()
            for ev in scored:
                due_at = pending.popleft()
                out.latency_s.append(now - due_at)
                out.due_s.append(due_at - start)
                out.scored.append(ev)

    start = clock()
    for ev, offset in zip(events, due):
        due_at = start + offset
        now = clock()
        while now < due_at:
            collect(engine.poll())
            now = clock()
            if now < due_at:
                sleep(min(due_at - now, idle_step))
                slept, now = now, clock()
                out.idle_s += now - slept
        out.lag_s.append(now - due_at)
        before = engine.requests_total
        scored = engine.submit(ev)
        if engine.requests_total > before:
            pending.append(due_at)
        collect(scored)
    collect(engine.drain())
    out.elapsed_s = clock() - start
    return out
