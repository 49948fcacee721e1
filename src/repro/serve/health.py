"""Serving health: circuit breaker, degraded state, staleness tagging.

The engine's health is a three-state machine, reusing the PR-4 circuit-
breaker pattern (count consecutive faults, trip, recover on sustained
success) at the serving layer:

``ready``
    The steady state: events admit and score normally.
``degraded``
    The breaker tripped — a streak of dead-lettered/shed events (or
    stale scores) crossed the threshold.  The engine *keeps scoring*
    (degraded, not down: a hyperscale scorer must survive a misbehaving
    telemetry pipeline), but the state is exported via status records,
    metrics, and the run manifest so operators see the input is sick.
``draining``
    Terminal: shutdown has begun, pending requests are being flushed,
    no new events are admitted.  Entered explicitly, never left.

Staleness is a separate, per-score concern: when a scored event's
calendar day lags the fleet watermark (the newest calendar day the
engine has seen) by more than :class:`StalenessPolicy.max_lag_days`,
the score is still produced but tagged ``stale`` with the lag attached —
downstream consumers decide whether a stale risk estimate is actionable.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..obs import eventlog

__all__ = [
    "STATUS_SCHEMA_VERSION",
    "HealthState",
    "StalenessPolicy",
    "ServeBreaker",
    "aggregate_statuses",
    "load_status",
    "render_sharded_status",
    "render_status",
    "status_exit_code",
]

#: Bumped whenever the ``status.json`` layout changes incompatibly.
STATUS_SCHEMA_VERSION = 1


class HealthState:
    """The serving health states (plain strings, JSON-friendly)."""

    READY = "ready"
    DEGRADED = "degraded"
    DRAINING = "draining"

    #: Legal transition order for rendering/asserts.
    ORDER = (READY, DEGRADED, DRAINING)


@dataclass(frozen=True)
class StalenessPolicy:
    """Watermark-lag bound past which a score is tagged stale.

    ``max_lag_days`` compares a scored event's ``calendar_day`` against
    the fleet watermark (newest calendar day seen by the engine) at
    admission, so the tag depends only on the arrival order, never on
    when the event's batch closes.  ``count_as_fault`` counts a stale
    admission as a circuit-breaker fault (in place of a healthy one), so
    a fleet scoring mostly-stale drives degrades visibly.
    """

    max_lag_days: int = 7
    count_as_fault: bool = False

    def __post_init__(self) -> None:
        if self.max_lag_days < 0:
            raise ValueError("max_lag_days must be >= 0")


class ServeBreaker:
    """Consecutive-fault circuit breaker over the admission stream.

    ``fault_threshold`` consecutive faults (dead letters, sheds, and —
    under ``StalenessPolicy(count_as_fault=True)`` — stale admissions) trip
    ``ready`` → ``degraded``; ``recovery_threshold`` consecutive healthy
    admissions close the breaker again.  ``begin_drain()`` moves to the
    terminal ``draining`` state from anywhere.
    """

    def __init__(
        self, fault_threshold: int = 8, recovery_threshold: int = 32
    ):
        if fault_threshold < 1:
            raise ValueError("fault_threshold must be >= 1")
        if recovery_threshold < 1:
            raise ValueError("recovery_threshold must be >= 1")
        self.fault_threshold = fault_threshold
        self.recovery_threshold = recovery_threshold
        self.state = HealthState.READY
        self.consecutive_faults = 0
        self.consecutive_oks = 0
        self.trips = 0
        self.recoveries = 0

    def _transition(self, new_state: str, level: str) -> None:
        old = self.state
        self.state = new_state
        eventlog.emit(
            "serve.health.transition",
            f"{old} -> {new_state}",
            level=level,
            previous=old,
            state=new_state,
            trips=self.trips,
        )

    def record_ok(self) -> str:
        """One healthy admission; may close a tripped breaker."""
        self.consecutive_faults = 0
        if self.state == HealthState.DEGRADED:
            self.consecutive_oks += 1
            if self.consecutive_oks >= self.recovery_threshold:
                self.recoveries += 1
                self.consecutive_oks = 0
                self._transition(HealthState.READY, "info")
        return self.state

    def record_fault(self) -> str:
        """One diverted/stale event; may trip the breaker."""
        self.consecutive_oks = 0
        self.consecutive_faults += 1
        if (
            self.state == HealthState.READY
            and self.consecutive_faults >= self.fault_threshold
        ):
            self.trips += 1
            self._transition(HealthState.DEGRADED, "warn")
        return self.state

    def begin_drain(self) -> str:
        """Enter the terminal draining state (shutdown has begun)."""
        if self.state != HealthState.DRAINING:
            self._transition(HealthState.DRAINING, "info")
        return self.state

    def to_dict(self) -> dict:
        return {
            "state": self.state,
            "trips": self.trips,
            "recoveries": self.recoveries,
            "fault_threshold": self.fault_threshold,
            "recovery_threshold": self.recovery_threshold,
        }


# --------------------------------------------------------------------------
# status.json (heartbeat file written by ScoringEngine, read by
# `serve status`)
# --------------------------------------------------------------------------

def load_status(path: str | Path) -> dict[str, Any]:
    """Read a ``status.json`` heartbeat; raises ``ValueError`` on problems.

    The file is rewritten atomically by the engine, so a reader never
    sees a torn write — a parse failure means the path is wrong or the
    file is not a status heartbeat at all.
    """
    path = Path(path)
    try:
        body = json.loads(path.read_text())
    except FileNotFoundError:
        raise ValueError(
            f"status file {path} does not exist (serve replay/run write it "
            "via --status-out)"
        ) from None
    except (OSError, ValueError) as exc:
        raise ValueError(f"status file {path} is unreadable: {exc}") from None
    if not isinstance(body, dict) or "health" not in body:
        raise ValueError(f"status file {path} is not a serve status heartbeat")
    return body


def status_exit_code(status: Mapping[str, Any]) -> int:
    """The ``serve status`` exit contract: 0 ok / 1 degraded-or-warn / 2 breach.

    An SLO breach in the embedded evaluation dominates; a ``degraded``
    health state or an SLO warning exits 1; ``ready`` and ``draining``
    (a clean shutdown in progress) are healthy.
    """
    slo_state = (status.get("slo") or {}).get("state", "ok")
    if slo_state == "breach":
        return 2
    if status.get("health") == HealthState.DEGRADED or slo_state == "warn":
        return 1
    return 0


#: Severity order for rolling up many shards into one verdict: a single
#: degraded shard degrades the plane; draining beats ready (a rollout in
#: progress is worth surfacing) but both are healthy per the exit code.
_HEALTH_RANK = {
    HealthState.READY: 0,
    HealthState.DRAINING: 1,
    HealthState.DEGRADED: 2,
}
_SLO_RANK = {"ok": 0, "warn": 1, "breach": 2}


def aggregate_statuses(
    statuses: Mapping[str, Mapping[str, Any]]
) -> dict[str, Any]:
    """Roll many per-shard status heartbeats into one plane verdict.

    The rollup mimics a single heartbeat — worst ``health`` across
    shards, worst embedded ``slo`` state, summed counters, merged guard
    stats, newest watermark — so :func:`status_exit_code` applies to it
    unchanged: the plane's exit code equals the worst shard's.  The
    full per-shard detail rides along under ``"shards"``.
    """
    if not statuses:
        raise ValueError("aggregate_statuses needs at least one status")
    worst_health = HealthState.READY
    worst_slo: str | None = None
    sums = {
        "events_seen": 0,
        "requests_total": 0,
        "batches_total": 0,
        "stale_scores": 0,
        "queue_depth": 0,
    }
    watermark = -1
    guard_totals: dict[str, Any] = {}
    by_fault: dict[str, int] = {}
    shards: dict[str, dict[str, Any]] = {}
    for name in sorted(statuses):
        status = statuses[name]
        health = status.get("health", HealthState.READY)
        if _HEALTH_RANK.get(health, 0) > _HEALTH_RANK[worst_health]:
            worst_health = health
        slo = status.get("slo")
        if slo is not None:
            state = slo.get("state", "ok")
            if worst_slo is None or _SLO_RANK.get(state, 0) > _SLO_RANK.get(
                worst_slo, 0
            ):
                worst_slo = state
        for key in sums:
            sums[key] += int(status.get(key, 0) or 0)
        watermark = max(watermark, int(status.get("watermark", -1)))
        guard = status.get("guard") or {}
        for key, value in guard.items():
            if key == "by_fault":
                for fault, count in (value or {}).items():
                    by_fault[fault] = by_fault.get(fault, 0) + int(count)
            elif isinstance(value, (int, float)):
                guard_totals[key] = guard_totals.get(key, 0) + value
        shards[name] = {
            "health": health,
            "exit_code": status_exit_code(status),
            "events_seen": int(status.get("events_seen", 0) or 0),
            "requests_total": int(status.get("requests_total", 0) or 0),
            "watermark": int(status.get("watermark", -1)),
        }
        if slo is not None:
            shards[name]["slo"] = slo.get("state", "ok")
        if "shard" in status:
            shards[name]["shard"] = status["shard"]
    rollup: dict[str, Any] = {
        "schema_version": STATUS_SCHEMA_VERSION,
        "sharded": True,
        "n_shards": len(shards),
        "health": worst_health,
        "watermark": watermark,
        **sums,
        "shards": shards,
    }
    if guard_totals or by_fault:
        guard_totals["by_fault"] = by_fault
        rollup["guard"] = guard_totals
    if worst_slo is not None:
        rollup["slo"] = {"state": worst_slo}
    return rollup


def render_sharded_status(rollup: Mapping[str, Any]) -> str:
    """One-screen summary of a plane rollup: verdict, totals, shard table."""
    lines = [
        f"serve status (sharded): {rollup.get('health', '?')} across "
        f"{rollup.get('n_shards', 0)} shard(s)",
        f"  events seen:   {rollup.get('events_seen', 0)}",
        f"  requests:      {rollup.get('requests_total', 0)} scored in "
        f"{rollup.get('batches_total', 0)} batch(es)",
        f"  watermark:     day {rollup.get('watermark', -1)}",
    ]
    guard = rollup.get("guard") or {}
    if guard:
        lines.append(
            f"  guard:         {guard.get('admitted', 0)} admitted, "
            f"{guard.get('duplicates_dropped', 0)} duplicate(s), "
            f"{guard.get('dead_lettered', 0)} dead-lettered, "
            f"{guard.get('shed', 0)} shed"
        )
    slo = rollup.get("slo") or {}
    if slo:
        lines.append(f"  slo:           {slo.get('state', '?')} (worst shard)")
    plane = rollup.get("plane") or {}
    if plane:
        lines.append(
            f"  plane:         {plane.get('n_shards', '?')} shard(s) over "
            f"{plane.get('n_rows', '?')} stream row(s)"
        )
    for name, shard in sorted((rollup.get("shards") or {}).items()):
        marker = " " if shard.get("exit_code", 0) == 0 else "!"
        detail = shard.get("shard") or {}
        extra = ""
        if detail.get("restored"):
            extra = f", restored at row {detail.get('resumed_at', 0)}"
        lines.append(
            f"  {marker} {name}: {shard.get('health', '?')}, "
            f"{shard.get('events_seen', 0)} seen, "
            f"{shard.get('requests_total', 0)} scored{extra}"
        )
    return "\n".join(lines)


def render_status(status: Mapping[str, Any]) -> str:
    """One-screen human-readable summary of a status heartbeat."""
    lines = [
        f"serve status: {status.get('health', '?')} "
        f"(schema v{status.get('schema_version', '?')})",
        f"  events seen:   {status.get('events_seen', 0)}",
        f"  requests:      {status.get('requests_total', 0)} scored in "
        f"{status.get('batches_total', 0)} batch(es)",
        f"  queue depth:   {status.get('queue_depth', 0)}",
        f"  watermark:     day {status.get('watermark', -1)}",
    ]
    if status.get("stale_scores"):
        lines.append(f"  stale scores:  {status['stale_scores']}")
    guard = status.get("guard") or {}
    if guard:
        by_fault = guard.get("by_fault") or {}
        faults = (
            ", ".join(f"{k}={v}" for k, v in sorted(by_fault.items()))
            or "none"
        )
        lines.append(
            f"  guard:         {guard.get('admitted', 0)} admitted, "
            f"{guard.get('duplicates_dropped', 0)} duplicate(s), "
            f"{guard.get('dead_lettered', 0)} dead-lettered "
            f"({faults}), {guard.get('shed', 0)} shed"
        )
    breaker = status.get("breaker") or {}
    if breaker:
        lines.append(
            f"  breaker:       {breaker.get('trips', 0)} trip(s), "
            f"{breaker.get('recoveries', 0)} recovery(ies)"
        )
    timeline = status.get("timeline") or {}
    if timeline:
        lines.append(
            f"  timeline:      {timeline.get('windows_emitted', 0)} window(s) "
            f"({timeline.get('windows_dropped', 0)} dropped from the ring)"
        )
    slo = status.get("slo") or {}
    if slo:
        lines.append(
            f"  slo:           {slo.get('state', '?')} "
            f"({len(slo.get('objectives') or [])} objective(s))"
        )
        for obj in slo.get("objectives") or []:
            if obj.get("state", "ok") != "ok":
                lines.append(
                    f"    {obj.get('state', '?'):<7s}"
                    f"{obj.get('name', '?')}: {obj.get('metric', '?')} "
                    f"{obj.get('op', '?')} {obj.get('threshold', '?')} "
                    f"violated {obj.get('violations', 0)}/"
                    f"{obj.get('windows_evaluated', 0)} window(s)"
                )
    return "\n".join(lines)
