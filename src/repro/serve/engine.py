"""Online scoring engine: ingest telemetry, micro-batch, predict.

The request loop of :mod:`repro.serve`: every incoming drive-day event
is folded into the :class:`~repro.serve.feature_store.FeatureStore`
(producing its feature row through the shared kernel) and queued as a
scoring request; the :class:`~repro.serve.batching.MicroBatcher` flushes
pending requests by size/wait bounds (or, on an idle tick, once their
summed wait pays for one scoring call) into one vectorized
:meth:`~repro.core.predictor.FailurePredictor.predict_proba_matrix`
call.  Large flushed batches (backfills) optionally fan out across
the warm workers of a :class:`repro.resilience.SupervisedPool`, under
the engine's supervision policy — scores are bit-identical for any
batch split and worker count, so batching and parallelism are pure
throughput knobs.

Instrumentation (``repro.serve.*`` spans, ``repro_serve_*`` metrics)
rides the ambient :mod:`repro.obs` collectors, Prometheus-exportable
like every other stage.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from ..core.features import feature_names, feature_schema_hash
from ..core.predictor import FailurePredictor
from ..data.io import iter_drive_day_chunks
from ..data.dataset import DriveDayDataset
from ..obs import eventlog, metrics, tracing
from ..obs import timeline as obs_timeline
from ..obs.durable import atomic_write, now
from ..obs.slo import SloSpec, evaluate_slos
from .batching import BatchPolicy, MicroBatcher, QueuePolicy
from .feature_store import FeatureStore, SchemaMismatchError
from .guard import AdmissionGuard
from .health import STATUS_SCHEMA_VERSION, HealthState, StalenessPolicy

__all__ = ["ScoredEvent", "ReplayResult", "ScoringEngine", "TelemetryConfig"]

#: Flushed batches at least this large fan out across workers (when the
#: engine was given ``workers > 1``); smaller batches stay in-process —
#: pool dispatch overhead would dominate.
BACKFILL_MIN_ROWS = 2048


def _calendar_day(record: Any) -> int:
    """The event's calendar day, or -1 when it carries no usable one."""
    try:
        return int(record["calendar_day"])
    except (KeyError, TypeError, ValueError, OverflowError):
        return -1


@dataclass(frozen=True)
class TelemetryConfig:
    """Live-telemetry knobs for the engine (heartbeats + SLO summary).

    ``status_path`` names the ``status.json`` file the engine atomically
    rewrites every ``heartbeat_every`` *seen* events (arrivals, counting
    diverted/shed events — a sick stream must still heartbeat).  With an
    ``slo_spec`` each heartbeat embeds a fresh evaluation of the active
    timeline, which is what ``serve status`` grades.  Heartbeats are
    event-count driven (never wall clock) and write only the status
    file — scores are untouched, so replay parity survives telemetry.
    """

    status_path: str | Path | None = None
    heartbeat_every: int = 5000
    slo_spec: SloSpec | None = None

    def __post_init__(self) -> None:
        if self.heartbeat_every < 1:
            raise ValueError("heartbeat_every must be >= 1")


@dataclass(frozen=True)
class ScoredEvent:
    """One scored drive-day.

    ``staleness_days``/``stale`` carry the degraded-scoring metadata:
    how far the event's calendar day lagged the fleet watermark at
    admission, and whether that lag crossed the engine's
    :class:`~repro.serve.health.StalenessPolicy` bound.  Both stay at
    their zero defaults when no staleness policy is configured.
    """

    drive_id: int
    age_days: int
    probability: float
    staleness_days: int = 0
    stale: bool = False
    #: Calendar day the event carried (-1 when the record had none) —
    #: the decision clock downstream consumers (``repro.fleet``) key on.
    calendar_day: int = -1


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of streaming a trace through the engine.

    ``n_diverted``/``n_duplicates`` are nonzero only on guarded replays:
    events the admission guard dead-lettered or dropped as exact
    duplicates (``probability`` covers accepted events only).  On
    guarded replays ``accepted_index`` maps each probability back to its
    source row: position ``i`` of ``probability`` scored row
    ``accepted_index[i]`` of the replayed stream (0 = the first
    post-``start_row`` row; the chunk's first row for
    :meth:`ScoringEngine.absorb`).  ``None`` on unguarded replays, where
    probabilities align 1:1 with the stream.  An event-wise replay
    (:meth:`ScoringEngine.replay_events`) has no ``accepted_index`` and
    keeps its :class:`ScoredEvent` records in ``scored``.
    """

    probability: np.ndarray
    n_events: int
    n_batches: int
    elapsed_seconds: float
    n_diverted: int = 0
    n_duplicates: int = 0
    accepted_index: np.ndarray | None = None
    scored: list[ScoredEvent] | None = None

    @property
    def events_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.n_events / self.elapsed_seconds


class ScoringEngine:
    """Ties the feature store, micro-batcher, and predictor together.

    Parameters
    ----------
    predictor:
        A fitted :class:`FailurePredictor` (typically loaded from the
        :class:`~repro.serve.registry.ModelRegistry`).
    store:
        Feature store to fold events into; a fresh one by default.
    batch_policy:
        Micro-batching bounds; default flushes at 256 requests / 5 ms,
        and :meth:`poll` may flush sooner by the cost rule.
    workers, policy, supervision:
        Execution controls applied to large flushed batches (see
        :data:`BACKFILL_MIN_ROWS`): worker processes for sharded predict
        plus an optional resilience supervision policy.  The workers are
        a warm :meth:`FailurePredictor.scoring_pool`, spawned on the
        first such batch and reaped by :meth:`close`.
    guard:
        Optional :class:`AdmissionGuard` bound to ``store``.  With a
        guard, bad events divert to the dead-letter queue instead of
        raising, and the engine exposes breaker-driven health states.
        Without one, behavior is exactly the PR-5 engine.
    queue_policy:
        Backpressure bounds (guarded engines only): bounded submit
        queue with a block-or-shed overflow policy.
    staleness:
        :class:`StalenessPolicy` enabling degraded scoring: scores for
        events lagging the fleet watermark are tagged, never withheld.
    telemetry:
        :class:`TelemetryConfig` enabling ``status.json`` heartbeats and
        per-heartbeat SLO evaluation; ``None`` (default) writes nothing.
        The windowed timeline itself rides the ambient
        :func:`repro.obs.timeline.record` hook, active or not.
    on_scored:
        Optional scored-event tap: called after every scored batch with
        four parallel arrays ``(drive_ids, ages, calendar_days,
        probabilities)`` covering exactly the *accepted* events of that
        batch, in scoring order.  This is how the fleet autopilot
        (:mod:`repro.fleet`) rides the serving plane without the engine
        knowing it exists.  The tap must not mutate the arrays.
    clock:
        Injectable monotonic clock (tests, deterministic replays).
    """

    def __init__(
        self,
        predictor: FailurePredictor,
        store: FeatureStore | None = None,
        batch_policy: BatchPolicy | None = None,
        workers: int | None = None,
        policy: Any | None = None,
        supervision: Any | None = None,
        guard: AdmissionGuard | None = None,
        queue_policy: QueuePolicy | None = None,
        staleness: StalenessPolicy | None = None,
        telemetry: TelemetryConfig | None = None,
        on_scored: Callable[
            [np.ndarray, np.ndarray, np.ndarray, np.ndarray], None
        ]
        | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        names = predictor.feature_names
        if names is None:
            raise ValueError("ScoringEngine needs a fitted predictor")
        if tuple(names) != feature_names():
            raise SchemaMismatchError(
                "predictor was fitted on a different feature layout than "
                f"this build produces (schema {feature_schema_hash()[:12]}…); "
                "retrain or activate a compatible registry version"
            )
        self.predictor = predictor
        # Not `store or ...`: an empty store is falsy via __len__.
        self.store = store if store is not None else FeatureStore()
        if guard is not None and guard.store is not self.store:
            raise ValueError(
                "guard must wrap the same FeatureStore as the engine"
            )
        self.guard = guard
        self.queue_policy = queue_policy or QueuePolicy()
        if self.queue_policy.on_full == "shed" and guard is None:
            raise ValueError(
                "QueuePolicy(on_full='shed') requires an AdmissionGuard: "
                "shed events are dead-lettered, never silently dropped"
            )
        self.staleness = staleness
        self.telemetry = telemetry
        self.on_scored = on_scored
        self.clock = clock
        self.batcher = MicroBatcher(batch_policy, clock=clock)
        self.workers = workers
        self.policy = policy
        self.supervision = supervision
        self.requests_total = 0
        self.batches_total = 0
        self.stale_scores = 0
        #: Warm scoring pool: the model bundle is installed in each
        #: worker once, then every backfill-sized batch ships only row
        #: slices.  ``None`` until first use, ``False`` when fan-out is
        #: configured off.
        self._scoring_pool: Any = None
        #: Every arrival observed, including diverted/shed/duplicate
        #: events that never became scoring requests.
        self.events_seen = 0
        self.heartbeats_written = 0
        self._since_heartbeat = 0
        #: Newest calendar day absorbed — the fleet watermark staleness
        #: is measured against (-1 until an event carries one).
        self._fleet_day = -1

    @property
    def health_state(self) -> str:
        """Current serving health (``ready`` without a breaker)."""
        if self.guard is not None and self.guard.breaker is not None:
            return self.guard.breaker.state
        return HealthState.READY

    # ------------------------------------------------------------------ telemetry
    def _observe_events(self, n: int, watermark: int | None = None) -> None:
        """Count ``n`` arrivals into the timeline and the heartbeat budget.

        Called once per arrival (or per chunk on replay), *including*
        events the guard diverted or shed — live telemetry must keep
        reporting on a stream that has gone entirely bad.
        """
        self.events_seen += n
        obs_timeline.record(n, watermark=watermark)
        tm = self.telemetry
        if tm is not None and tm.status_path is not None:
            self._since_heartbeat += n
            if self._since_heartbeat >= tm.heartbeat_every:
                self.heartbeat()

    def status(self) -> dict[str, Any]:
        """The current heartbeat payload (what ``status.json`` holds)."""
        out: dict[str, Any] = {
            "schema_version": STATUS_SCHEMA_VERSION,
            "ts": now(),
            "health": self.health_state,
            "events_seen": self.events_seen,
            "requests_total": self.requests_total,
            "batches_total": self.batches_total,
            "stale_scores": self.stale_scores,
            "queue_depth": len(self.batcher),
            "watermark": self._fleet_day,
            "heartbeats": self.heartbeats_written,
        }
        if self.guard is not None:
            out["guard"] = self.guard.stats.to_dict()
            if self.guard.breaker is not None:
                out["breaker"] = self.guard.breaker.to_dict()
        timeline = obs_timeline.current()
        if timeline is not None:
            out["timeline"] = timeline.summary()
            tm = self.telemetry
            if tm is not None and tm.slo_spec is not None:
                report = evaluate_slos(tm.slo_spec, timeline.windows())
                out["slo"] = report.to_dict()
        return out

    def heartbeat(self) -> dict[str, Any]:
        """Atomically rewrite ``status.json`` (when configured) now.

        Returns the payload either way, so transports can forward it
        even without a status file.  Resets the event budget; the next
        automatic heartbeat lands ``heartbeat_every`` events later.
        """
        payload = self.status()
        self._since_heartbeat = 0
        tm = self.telemetry
        if tm is not None and tm.status_path is not None:
            self.heartbeats_written += 1
            payload["heartbeats"] = self.heartbeats_written
            with atomic_write(tm.status_path, "w") as fh:
                fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            eventlog.emit(
                "serve.engine.heartbeat",
                level="debug",
                events_seen=self.events_seen,
                health=payload["health"],
                slo=(payload.get("slo") or {}).get("state"),
            )
        return payload

    def _count(self, seen: int, accepted: int, day: int) -> None:
        """Book one admission step: advance the fleet watermark to
        ``day``, count ``accepted`` scoring requests, and observe ``seen``
        arrivals (diverted and duplicate ones included)."""
        if day > self._fleet_day:
            self._fleet_day = day
        self.requests_total += accepted
        metrics.inc(
            "repro_serve_events_total",
            accepted,
            help="Telemetry events absorbed by the serving feature store",
        )
        metrics.inc(
            "repro_serve_requests_total",
            accepted,
            help="Scoring requests accepted by the engine",
        )
        self._observe_events(
            seen, watermark=self._fleet_day if self._fleet_day >= 0 else None
        )

    # ------------------------------------------------------------------ request loop
    def submit(self, record: Mapping[str, Any]) -> list[ScoredEvent]:
        """Ingest one event and request a score for it.

        Returns the scored events flushed by this submission — usually
        empty until a batch bound trips, then the whole batch at once.
        On a guarded engine, dead-lettered/duplicate events produce no
        request (the guard accounts for them); under a full queue the
        :class:`QueuePolicy` decides between a synchronous flush
        (``block``) and shedding the incoming event (``shed``).
        """
        pre: list[ScoredEvent] = []
        max_depth = self.queue_policy.max_depth
        if max_depth is not None and len(self.batcher) >= max_depth:
            if self.queue_policy.on_full == "shed" and self.guard is not None:
                self.guard.shed(
                    record,
                    f"submit queue at max_depth={max_depth}",
                )
                self._observe_events(1)
                return []
            # Backpressure: score the pending batch before admitting.
            batch = self.batcher.flush()
            if batch:
                pre = self._score_batch(batch)
        cal = _calendar_day(record)
        if self.guard is not None:
            # A stale event under count_as_fault is a breaker fault, not
            # a healthy admission — decided here, at admission, so the
            # health state never depends on when a batch closes.
            _, stale = self._lag(cal, self._fleet_day)
            outcome = self.guard.admit(
                record,
                healthy=not (stale and self.staleness.count_as_fault),
            )
            if not outcome.accepted:
                self._observe_events(1)
                return pre
            row = outcome.row
            drive_id, age = outcome.drive_id, outcome.age_days
        else:
            row = self.store.ingest(record)
            drive_id = int(record["drive_id"])
            age = int(record["age_days"])
        self._count(1, 1, cal)
        # Stamped with the fleet watermark at admission: staleness is a
        # function of the arrival order, never of the batch boundaries.
        request = (drive_id, age, cal, row, self._fleet_day)
        batch = self.batcher.add(request)
        metrics.set_gauge(
            "repro_serve_queue_depth",
            float(len(self.batcher)),
            help="Scoring requests pending in the submit queue",
        )
        if batch is None:
            return pre
        return pre + self._score_batch(batch)

    def poll(self) -> list[ScoredEvent]:
        """Idle tick of the request loop: flush once the oldest request
        reached the wait bound, or once the pending requests' summed wait
        reached the measured cost of one scoring call (see
        :class:`~repro.serve.batching.MicroBatcher`)."""
        batch = self.batcher.poll()
        if not batch:
            return []
        return self._score_batch(batch)

    def drain(self) -> list[ScoredEvent]:
        """Score everything still pending (stream end / shutdown).

        On a guarded engine with a breaker this enters the terminal
        ``draining`` health state — no new events should be admitted.
        """
        if self.guard is not None and self.guard.breaker is not None:
            self.guard.breaker.begin_drain()
        batch = self.batcher.flush()
        scored = self._score_batch(batch) if batch else []
        if self.telemetry is not None and self.telemetry.status_path is not None:
            self.heartbeat()
        return scored

    def scoring_pool(self) -> Any:
        """The engine's warm pool, spawned on the first backfill-sized
        batch (or on this call); ``None`` when fan-out is off (a resolved
        worker count of 1).  Other scoring of the same model, such as
        ``serve replay``'s offline parity check, can run on it."""
        if self._scoring_pool is None:
            from ..parallel import resolve_workers

            self._scoring_pool = (
                self.predictor.scoring_pool(
                    self.workers, self.policy, self.supervision
                )
                if resolve_workers(self.workers) > 1
                else False
            )
        return self._scoring_pool or None

    def close(self) -> None:
        """Reap the warm scoring pool (idempotent)."""
        pool, self._scoring_pool = self._scoring_pool, None
        if pool:
            pool.close()

    def __enter__(self) -> "ScoringEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _score_rows(self, X: np.ndarray, ages: np.ndarray) -> np.ndarray:
        """Vectorized predict; fans out only for backfill-sized batches,
        on the warm :meth:`scoring_pool` under the engine's
        supervision policy.  Row sharding never changes the bytes."""
        pool = (
            self.scoring_pool() if X.shape[0] >= BACKFILL_MIN_ROWS else None
        )
        if pool is not None:
            return self.predictor.predict_proba_matrix(X, ages, pool=pool)
        return self.predictor.predict_proba_matrix(X, ages, workers=1)

    def _lag(self, cal: int, watermark: int) -> tuple[int, bool]:
        """Lag of an event's calendar day behind a fleet watermark, and
        whether it crosses the staleness bound."""
        if self.staleness is None or cal < 0 or watermark < 0:
            return 0, False
        lag = max(0, watermark - cal)
        return lag, lag > self.staleness.max_lag_days

    def _score(
        self, X: np.ndarray, ages: np.ndarray, ids: np.ndarray, cals: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """The one scoring step of every path: predict through
        :meth:`_score_rows` under the ``repro.serve.score_batch`` span,
        count the batch, and feed the scored-event tap.  Returns the
        probabilities and the call's seconds."""
        m = X.shape[0]
        t0 = self.clock()
        with tracing.span("repro.serve.score_batch", rows_in=m, rows_out=m):
            probs = self._score_rows(X, ages)
        seconds = self.clock() - t0
        self.batches_total += 1
        metrics.inc(
            "repro_serve_batches_total",
            help="Micro-batches scored by the engine",
        )
        metrics.observe(
            "repro_serve_batch_size",
            float(m),
            help="Scoring requests per flushed micro-batch",
        )
        metrics.observe(
            "repro_serve_score_seconds",
            seconds,
            help="Wall time of one vectorized scoring call",
        )
        if self.on_scored is not None:
            self.on_scored(ids, ages, cals, probs)
        return probs, seconds

    def _score_batch(self, batch: list[tuple]) -> list[ScoredEvent]:
        probs, seconds = self._score(
            np.stack([req[3] for req in batch]),
            np.asarray([req[1] for req in batch], dtype=np.int64),
            np.asarray([req[0] for req in batch], dtype=np.int64),
            np.asarray([req[2] for req in batch], dtype=np.int64),
        )
        self.batcher.record_cost(seconds)
        out: list[ScoredEvent] = []
        for (d, a, c, _, watermark), p in zip(batch, probs):
            lag, stale = self._lag(c, watermark)
            if self.staleness is not None and c >= 0 and watermark >= 0:
                metrics.set_gauge(
                    "repro_serve_staleness_days",
                    float(lag),
                    help="Calendar lag of the most recently scored event vs the watermark",
                )
            if stale:
                self.stale_scores += 1
                metrics.inc(
                    "repro_serve_stale_scores_total",
                    help="Scores tagged stale (calendar lag past the policy bound)",
                )
            out.append(
                ScoredEvent(
                    drive_id=d,
                    age_days=a,
                    probability=float(p),
                    staleness_days=lag,
                    stale=stale,
                    calendar_day=c,
                )
            )
        return out

    # ------------------------------------------------------------------ replay
    def absorb(self, chunk: Mapping[str, np.ndarray]) -> ReplayResult:
        """One step of a chunked replay: admit a column chunk, score its
        accepted rows, and count them; returns the chunk's replay result.

        The guard admits the chunk (:meth:`AdmissionGuard.admit_columns`)
        or, unguarded, the store ingests it whole; the accepted rows are
        scored in one call through the scoring step the micro-batch
        flush also uses, and the watermark, request counters and
        telemetry advance.  :meth:`replay` and every shard task of the
        sharded plane run on this step.  The feature matrix is not
        returned, so a caller's loop never keeps one chunk's matrix
        alive while the next one is built.
        """
        t0 = self.clock()
        ids = np.asarray(chunk["drive_id"], dtype=np.int64)
        n = ids.shape[0]
        if self.guard is not None:
            adm = self.guard.admit_columns(chunk)
            X, ages, cals = adm.features, adm.ages, adm.calendar_days
            index = adm.accepted_index
            ids = ids[index]
            n_diverted, n_duplicates = adm.n_diverted, adm.n_duplicates
        else:
            X = self.store.ingest_columns(chunk)
            ages = np.asarray(chunk["age_days"], dtype=np.int64)
            cals = chunk["calendar_day"] if "calendar_day" in chunk else np.full(n, -1)
            cals = np.asarray(cals, dtype=np.int64)
            index = None
            n_diverted = n_duplicates = 0
        m = X.shape[0]
        probs = self._score(X, ages, ids, cals)[0] if m else np.empty(0)
        self._count(n, m, int(cals.max()) if cals.size else -1)
        return ReplayResult(
            probability=probs,
            n_events=m,
            n_batches=int(m > 0),
            elapsed_seconds=self.clock() - t0,
            n_diverted=n_diverted,
            n_duplicates=n_duplicates,
            accepted_index=index,
        )

    def _write_snapshot(
        self, path: str | Path, keep: int | None, rows_seen: int
    ) -> Path:
        """One snapshot write: in-place without ``keep``, rotated with.
        It records ``rows_seen``, the stream rows consumed so far, which
        is where a restored replay resumes, and the records the guard's
        journal and DLQ hold by then, which a restore cuts them back to."""
        journal = self.guard.journal if self.guard is not None else None
        dlq = self.guard.dlq if self.guard is not None else None
        write = partial(
            self.store.snapshot,
            rows_seen=rows_seen,
            journal_lines=None if journal is None else journal.appended,
            dlq_lines=None if dlq is None else dlq.appended,
        )
        if keep is None:
            return write(path)
        from .snapshots import write_rotated

        return write_rotated(Path(path), write, keep=keep)

    def replay(
        self,
        source: DriveDayDataset | str | Path,
        chunk_rows: int = 4096,
        start_row: int = 0,
        snapshot_every: int | None = None,
        snapshot_path: str | Path | None = None,
        snapshot_keep: int | None = None,
        progress: Callable[[int], None] | None = None,
    ) -> ReplayResult:
        """Stream a trace through the online path, scoring every event.

        Events arrive in the stored ``(drive_id, age_days)`` order via
        :func:`repro.data.iter_drive_day_chunks`; each chunk folds into
        the store in one vectorized pass and its rows are scored through
        the same predict kernel as interactive requests.  The returned
        probabilities align with the source's row order, so they compare
        elementwise against the offline
        :meth:`FailurePredictor.predict_proba_records` output — the
        online/offline parity gate.  On a guarded engine the admission
        guard may divert or dedup rows, so probabilities cover accepted
        events only; the result's ``accepted_index`` records which
        stream rows they came from.

        ``start_row`` skips that many leading rows *without ingesting
        them* — for resuming a killed replay from a restored store (the
        skipped rows are already folded into the restored state).  The
        snapshots a replay writes record the stream rows it had consumed,
        diverted and duplicate rows included
        (:attr:`FeatureStore.rows_seen`), which is where it resumes.

        ``snapshot_every``/``snapshot_path`` persist the store every N
        events (crash-safe serving: a killed replay restores the last
        snapshot and resumes with identical subsequent scores).  With
        ``snapshot_keep`` each write rotates a new generation
        (``store-g000001.npz``, …) and prunes all but the newest K —
        strictly after the new generation is durable, so retention can
        never delete the only good copy (see
        :mod:`repro.serve.snapshots`).  Without it the single path is
        overwritten in place, the pre-PR-9 behavior.
        """
        t0 = self.clock()
        parts: list[np.ndarray] = []
        index_parts: list[np.ndarray] = []
        n_events = 0
        n_diverted = 0
        n_duplicates = 0
        batches_before = self.batches_total
        since_snapshot = 0
        to_skip = int(start_row)
        #: Stream row offset of the current chunk's first row (post-skip).
        pos = 0
        with tracing.span("repro.serve.replay") as sp:
            for chunk in iter_drive_day_chunks(source, chunk_rows=chunk_rows):
                if to_skip > 0:
                    have = len(chunk["drive_id"])
                    if have <= to_skip:
                        to_skip -= have
                        continue
                    chunk = {k: v[to_skip:] for k, v in chunk.items()}
                    to_skip = 0
                step = self.absorb(chunk)
                parts.append(step.probability)
                if step.accepted_index is not None:
                    index_parts.append(pos + step.accepted_index)
                n_diverted += step.n_diverted
                n_duplicates += step.n_duplicates
                pos += len(chunk["drive_id"])
                n_events += step.n_events
                since_snapshot += step.n_events
                if (
                    snapshot_every is not None
                    and snapshot_path is not None
                    and since_snapshot >= snapshot_every
                ):
                    self._write_snapshot(snapshot_path, snapshot_keep, start_row + pos)
                    since_snapshot = 0
                if progress is not None:
                    progress(n_events)
            sp.set(rows_in=n_events, rows_out=n_events)
        if snapshot_every is not None and snapshot_path is not None:
            self._write_snapshot(snapshot_path, snapshot_keep, start_row + pos)
        if self.telemetry is not None and self.telemetry.status_path is not None:
            self.heartbeat()
        elapsed = self.clock() - t0
        metrics.set_gauge(
            "repro_serve_store_drives",
            float(self.store.n_drives),
            help="Drives with live state in the serving feature store",
        )
        return ReplayResult(
            probability=np.concatenate(parts) if parts else np.empty(0),
            n_events=n_events,
            n_batches=self.batches_total - batches_before,
            elapsed_seconds=elapsed,
            n_diverted=n_diverted,
            n_duplicates=n_duplicates,
            accepted_index=(
                np.concatenate(index_parts)
                if index_parts
                else np.empty(0, dtype=np.int64)
            )
            if self.guard is not None
            else None,
        )

    def replay_events(
        self, events: Iterable[Mapping[str, Any]]
    ) -> ReplayResult:
        """Stream individual events through the guarded request loop.

        The event-wise sibling of :meth:`replay` for sources that are
        not ordered column chunks — chiefly chaos-perturbed telemetry
        streams (:func:`repro.resilience.chaos_telemetry_events`), where
        reordered/duplicated/garbled arrivals must route through the
        admission guard one at a time.  It is :meth:`score_stream` plus
        its result: scores cover accepted events in admission order, the
        scored events themselves ride along in ``scored``, and diverted
        and duplicate counts land on the result.
        """
        t0 = self.clock()
        before_requests = self.requests_total
        batches_before = self.batches_total
        stats = self.guard.stats if self.guard is not None else None
        div0 = stats.dead_lettered if stats is not None else 0
        dup0 = stats.duplicates_dropped if stats is not None else 0
        with tracing.span("repro.serve.replay_events") as sp:
            scored = list(self.score_stream(events))
            sp.set(rows_in=self.requests_total - before_requests)
        return ReplayResult(
            probability=np.asarray([ev.probability for ev in scored], dtype=np.float64),
            n_events=self.requests_total - before_requests,
            n_batches=self.batches_total - batches_before,
            elapsed_seconds=self.clock() - t0,
            n_diverted=(stats.dead_lettered - div0) if stats else 0,
            n_duplicates=(stats.duplicates_dropped - dup0) if stats else 0,
            scored=scored,
        )

    # ------------------------------------------------------------------ misc
    def score_stream(
        self, records: Iterable[Mapping[str, Any]]
    ) -> Iterable[ScoredEvent]:
        """Generator transport: events in, scored events out (in order).

        Used by the event-wise chaos replays of ``serve replay`` and
        ``fleet run`` and by ``serve heal``; flushes whatever is pending
        when the input stream ends.
        """
        for record in records:
            yield from self.submit(record)
        yield from self.drain()
