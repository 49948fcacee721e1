"""Admission guard in front of the serving feature store.

Every event entering :class:`~repro.serve.engine.ScoringEngine` passes
through an :class:`AdmissionGuard`, which classifies it against the
PR-1 validation bounds and the store's per-drive watermarks and takes
one of three actions:

- **accept** — fold into the store (and the optional accepted-event
  journal), produce the feature row;
- **drop duplicate** — an exact re-delivery of the last absorbed
  drive-day (same canonical payload): idempotent re-ingest, dropped
  silently and counted;
- **dead-letter** — late/out-of-order, malformed, schema-violating, or
  conflicting events are diverted to the
  :class:`~repro.serve.dlq.DeadLetterQueue` with fault class, drive id,
  and watermark context, replayable later via ``serve heal``.

The guard never raises on bad input — that is the point: PR-5's store
hard-fails on the first out-of-order event, while a guarded engine keeps
scoring through a misbehaving telemetry pipeline and accounts for every
diverted event.

Two code paths mirror the store's: :meth:`AdmissionGuard.admit` for
single records (the ``serve run`` transport) and
:meth:`AdmissionGuard.admit_columns` for ordered column chunks (the
replay hot path).  The chunk path keeps the vectorized segment-cumsum
ingest: schema checks are vector ops, and only chunks with ordering
anomalies (interleaved drives, rewinds, equal-age rows — never produced
by a clean trace) fall back to the per-event loop, so guarded clean
replay stays within the <5% overhead budget pinned in
``benchmarks/test_guard_overhead.py``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..obs import eventlog, metrics
from ..reliability.validation import (
    COUNT_FIELDS,
    REQUIRED_COLUMNS,
    SENTINEL_CEILING,
)
from .dlq import DeadLetterQueue, EventJournal, canonical_event, event_digest
from .feature_store import FeatureStore
from .health import ServeBreaker

__all__ = ["AdmissionOutcome", "ChunkAdmission", "GuardStats", "AdmissionGuard"]

#: Statuses an admission decision can take.
ACCEPTED = "accepted"
DUPLICATE = "duplicate"
DEAD_LETTERED = "dead_lettered"


@dataclass(frozen=True)
class AdmissionOutcome:
    """Decision for one event: what happened and why."""

    status: str
    fault: str | None = None
    reason: str = ""
    row: np.ndarray | None = None
    drive_id: int | None = None
    age_days: int | None = None
    watermark: int | None = None

    @property
    def accepted(self) -> bool:
        return self.status == ACCEPTED


@dataclass(frozen=True)
class ChunkAdmission:
    """Outcome of admitting one column chunk."""

    features: np.ndarray
    ages: np.ndarray
    calendar_days: np.ndarray
    accepted_index: np.ndarray
    n_diverted: int
    n_duplicates: int


@dataclass
class GuardStats:
    """Running admission tallies (exported into the run manifest)."""

    admitted: int = 0
    duplicates_dropped: int = 0
    dead_lettered: int = 0
    shed: int = 0
    by_fault: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "admitted": self.admitted,
            "duplicates_dropped": self.duplicates_dropped,
            "dead_lettered": self.dead_lettered,
            "shed": self.shed,
            "by_fault": dict(sorted(self.by_fault.items())),
        }


class AdmissionGuard:
    """Classify events against validation bounds and drive watermarks.

    Parameters
    ----------
    store:
        The feature store admitted events fold into.
    dlq:
        Destination for diverted events; with ``None``, diverted events
        are still classified and counted but only the stats remember
        them (the transport may choose to surface that loudly).
    journal:
        Optional accepted-event journal — required input for
        ``serve heal`` to rebuild a byte-identical store.
    breaker:
        Optional circuit breaker fed one ok/fault signal per event.

    Not thread-safe (like the micro-batcher): the engine serializes
    access.
    """

    def __init__(
        self,
        store: FeatureStore,
        dlq: DeadLetterQueue | None = None,
        journal: EventJournal | None = None,
        breaker: ServeBreaker | None = None,
    ):
        self.store = store
        self.dlq = dlq
        self.journal = journal
        self.breaker = breaker
        self.stats = GuardStats()
        #: Outcome of the most recent :meth:`admit`/:meth:`shed` call —
        #: lets the transport report *why* an event it just submitted
        #: through the engine produced no score.
        self.last_outcome: AdmissionOutcome | None = None
        #: drive_id -> digest of the last absorbed event, for idempotent
        #: duplicate detection at the watermark boundary.  Shared with
        #: (and persisted by) the store: a restored store remembers its
        #: boundary digests, so re-delivery of the last pre-restart
        #: event still drops as a duplicate instead of dead-lettering
        #: as a conflict.
        self._last_digest = store.boundary_digests

    # ------------------------------------------------------------------ classify
    def classify(self, record: Any) -> AdmissionOutcome:
        """Pure classification: no store mutation, no DLQ write."""
        if not isinstance(record, Mapping):
            return AdmissionOutcome(
                DEAD_LETTERED,
                fault="malformed",
                reason=f"event is not an object ({type(record).__name__})",
            )
        missing = [c for c in REQUIRED_COLUMNS if c not in record]
        if missing:
            return AdmissionOutcome(
                DEAD_LETTERED,
                fault="malformed",
                reason=f"missing field(s): {', '.join(missing)}",
            )
        try:
            drive_id = int(record["drive_id"])
            age = int(record["age_days"])
        except (TypeError, ValueError):
            return AdmissionOutcome(
                DEAD_LETTERED,
                fault="malformed",
                reason="drive_id/age_days are not integers",
            )
        if age < 0:
            return AdmissionOutcome(
                DEAD_LETTERED,
                fault="schema",
                reason=f"age_days is negative ({age})",
                drive_id=drive_id,
                age_days=age,
            )
        for name in COUNT_FIELDS:
            try:
                value = float(record[name])
            except (TypeError, ValueError):
                return AdmissionOutcome(
                    DEAD_LETTERED,
                    fault="malformed",
                    reason=f"field {name} is not numeric "
                    f"({record[name]!r})",
                    drive_id=drive_id,
                    age_days=age,
                )
            if not math.isfinite(value):
                return AdmissionOutcome(
                    DEAD_LETTERED,
                    fault="schema",
                    reason=f"field {name} is not finite ({value!r})",
                    drive_id=drive_id,
                    age_days=age,
                )
            if value < 0:
                return AdmissionOutcome(
                    DEAD_LETTERED,
                    fault="schema",
                    reason=f"field {name} is negative ({value})",
                    drive_id=drive_id,
                    age_days=age,
                )
            if value > SENTINEL_CEILING:
                return AdmissionOutcome(
                    DEAD_LETTERED,
                    fault="schema",
                    reason=f"field {name} exceeds the collector sentinel "
                    f"ceiling ({value:.3g} > {SENTINEL_CEILING:.0e})",
                    drive_id=drive_id,
                    age_days=age,
                )
        watermark = self.store.watermark(drive_id)
        if age < watermark:
            return AdmissionOutcome(
                DEAD_LETTERED,
                fault="late",
                reason=f"age {age}d is {watermark - age}d behind the "
                f"drive's absorbed watermark {watermark}d",
                drive_id=drive_id,
                age_days=age,
                watermark=watermark,
            )
        if age == watermark and watermark >= 0:
            digest = event_digest(record)
            if self._last_digest.get(drive_id) == digest:
                return AdmissionOutcome(
                    DUPLICATE,
                    reason="exact re-delivery of the last absorbed "
                    "drive-day",
                    drive_id=drive_id,
                    age_days=age,
                    watermark=watermark,
                )
            return AdmissionOutcome(
                DEAD_LETTERED,
                fault="conflict",
                reason="drive-day already absorbed with a different "
                "payload",
                drive_id=drive_id,
                age_days=age,
                watermark=watermark,
            )
        return AdmissionOutcome(
            ACCEPTED, drive_id=drive_id, age_days=age, watermark=watermark
        )

    # ------------------------------------------------------------------ admit
    def admit(self, record: Any, healthy: bool = True) -> AdmissionOutcome:
        """Classify one event and carry out the decision.

        Accepted events fold into the store (returning the feature row
        on the outcome); duplicates are dropped; everything else is
        diverted to the DLQ.  Never raises on bad input.  With
        ``healthy=False`` an accepted event counts as a breaker fault
        (the engine's stale events under
        ``StalenessPolicy(count_as_fault=True)``).
        """
        outcome = self.classify(record)
        if outcome.accepted:
            row = self.store.ingest(record)
            self._last_digest[outcome.drive_id] = event_digest(record)
            if self.journal is not None:
                self.journal.record(record)
            self.stats.admitted += 1
            self._signal(ok=healthy)
            metrics.inc(
                "repro_serve_admitted_total",
                help="Events accepted by the admission guard",
            )
            outcome = AdmissionOutcome(
                ACCEPTED,
                row=row,
                drive_id=outcome.drive_id,
                age_days=outcome.age_days,
                watermark=outcome.watermark,
            )
        elif outcome.status == DUPLICATE:
            self.stats.duplicates_dropped += 1
            self._signal(ok=True)
            metrics.inc(
                "repro_serve_duplicate_total",
                help="Exact duplicate events dropped (idempotent re-ingest)",
            )
            eventlog.emit(
                "serve.guard.duplicate",
                "exact re-delivery dropped",
                level="debug",
                drive_id=outcome.drive_id,
                age_days=outcome.age_days,
            )
        else:
            self._divert(
                outcome, record if isinstance(record, Mapping) else None
            )
        self.last_outcome = outcome
        return outcome

    def shed(self, record: Mapping[str, Any], reason: str) -> AdmissionOutcome:
        """Divert one event under backpressure — never validated or ingested.

        The latency-preserving shed mode: the event lands in the DLQ
        (fault class ``shed``) instead of being silently dropped, so
        ``serve heal`` can re-admit it once the overload has passed.
        """
        try:
            drive_id = int(record["drive_id"])
            age = int(record["age_days"])
        except (KeyError, TypeError, ValueError):
            drive_id = age = None
        outcome = AdmissionOutcome(
            DEAD_LETTERED,
            fault="shed",
            reason=reason,
            drive_id=drive_id,
            age_days=age,
        )
        self._divert(outcome, record, source="backpressure")
        self.stats.shed += 1
        metrics.inc(
            "repro_serve_shed_total",
            help="Events load-shed to the dead-letter queue",
        )
        self.last_outcome = outcome
        return outcome

    def divert_raw(self, raw: str, reason: str) -> AdmissionOutcome:
        """Dead-letter an unparseable transport line."""
        outcome = AdmissionOutcome(
            DEAD_LETTERED, fault="malformed", reason=reason
        )
        self._divert(outcome, None, raw=raw, source="transport")
        self.last_outcome = outcome
        return outcome

    def _divert(
        self,
        outcome: AdmissionOutcome,
        record: Mapping[str, Any] | None,
        raw: str | None = None,
        source: str = "guard",
    ) -> None:
        if self.dlq is not None:
            self.dlq.divert(
                outcome.fault,
                outcome.reason,
                event=record,
                raw=raw,
                drive_id=outcome.drive_id,
                age_days=outcome.age_days,
                watermark=outcome.watermark,
                source=source,
            )
        self.stats.dead_lettered += 1
        self.stats.by_fault[outcome.fault] = (
            self.stats.by_fault.get(outcome.fault, 0) + 1
        )
        self._signal(ok=False)
        metrics.inc(
            "repro_serve_dead_letter_total",
            help="Events diverted to the dead-letter queue",
            fault=outcome.fault,
        )
        eventlog.emit(
            "serve.guard.dead_letter",
            outcome.reason,
            level="warn",
            fault=outcome.fault,
            drive_id=outcome.drive_id,
            age_days=outcome.age_days,
            watermark=outcome.watermark,
            source=source,
        )

    def _signal(self, ok: bool) -> None:
        if self.breaker is not None:
            if ok:
                self.breaker.record_ok()
            else:
                self.breaker.record_fault()

    # ------------------------------------------------------------------ chunks
    def admit_columns(self, cols: Mapping[str, np.ndarray]) -> ChunkAdmission:
        """Admit an ordered column chunk, diverting bad rows.

        The fast path (clean chunk: grouped runs, strictly increasing
        ages above every watermark) is one vectorized
        :meth:`FeatureStore.ingest_columns` call after vector schema
        checks.  Chunks with ordering anomalies fall back to the
        per-event :meth:`admit` loop — correctness over speed for the
        rare sick chunk.
        """
        ids = np.asarray(cols["drive_id"]).astype(np.int64, copy=False)
        m = ids.shape[0]
        if m == 0:
            empty = np.empty(0, dtype=np.int64)
            return ChunkAdmission(
                features=np.empty((0, 0)),
                ages=empty,
                calendar_days=empty,
                accepted_index=empty,
                n_diverted=0,
                n_duplicates=0,
            )
        missing = [c for c in REQUIRED_COLUMNS if c not in cols]
        if missing:
            # A chunk without required columns is a trace-level defect,
            # not a per-event fault — surface it, don't dead-letter m rows.
            raise KeyError(
                f"chunk is missing required column(s): {', '.join(missing)}"
            )
        age = np.asarray(cols["age_days"]).astype(np.int64, copy=False)

        # Vectorized schema mask over the validation bounds.
        bad = age < 0
        for name in COUNT_FIELDS:
            v = np.asarray(cols[name])
            if v.dtype.kind == "f":
                bad = bad | ~np.isfinite(v) | (v < 0) | (v > SENTINEL_CEILING)
            else:
                bad = bad | (v < 0) | (v > SENTINEL_CEILING)

        ok_idx = np.flatnonzero(~bad)
        sub_ids, sub_age = ids[ok_idx], age[ok_idx]
        ordered = self._chunk_is_ordered(sub_ids, sub_age)
        if not ordered:
            return self._admit_rows(cols, m)

        # Divert the schema-bad rows, then ingest the clean remainder in
        # one vectorized pass.
        if bad.any():
            names = list(cols)
            for i in np.flatnonzero(bad):
                record = {k: cols[k][i] for k in names}
                self.admit(record)  # classifies to schema/malformed
            sub = {k: np.asarray(v)[ok_idx] for k, v in cols.items()}
        else:
            sub = cols
        X = self.store.ingest_columns(sub)
        n = len(ok_idx)
        self.stats.admitted += n
        if n:
            self._last_digest.update(self._run_end_digests(sub))
            if self.journal is not None:
                self._journal_rows(sub)
            # One breaker signal per chunk keeps the fast path cheap;
            # per-event signalling happens on the record path.
            self._signal(ok=True)
        metrics.inc(
            "repro_serve_admitted_total",
            n,
            help="Events accepted by the admission guard",
        )
        cal = np.asarray(sub["calendar_day"]).astype(np.int64, copy=False)
        return ChunkAdmission(
            features=X,
            ages=sub_age,
            calendar_days=cal,
            accepted_index=ok_idx,
            n_diverted=int(bad.sum()),
            n_duplicates=0,
        )

    def _chunk_is_ordered(
        self, ids: np.ndarray, age: np.ndarray
    ) -> bool:
        """True when the remaining rows take the vectorized fast path."""
        if len(ids) == 0:
            return True
        change = np.flatnonzero(ids[1:] != ids[:-1]) + 1
        starts = np.concatenate(([0], change))
        run_ids = ids[starts]
        if len(np.unique(run_ids)) != len(run_ids):
            return False  # interleaved drive runs
        same = ids[1:] == ids[:-1]
        if bool(np.any(same & (age[1:] <= age[:-1]))):
            return False  # rewind or equal-age row inside a run
        watermarks = self.store.watermarks(run_ids)
        if bool(np.any(age[starts] <= watermarks)):
            return False  # run starts at/behind the absorbed watermark
        return True

    def _admit_rows(
        self, cols: Mapping[str, np.ndarray], m: int
    ) -> ChunkAdmission:
        """Per-event fallback for chunks with ordering anomalies."""
        names = list(cols)
        rows: list[np.ndarray] = []
        ages: list[int] = []
        cals: list[int] = []
        index: list[int] = []
        diverted = duplicates = 0
        for i in range(m):
            record = {k: cols[k][i] for k in names}
            outcome = self.admit(record)
            if outcome.accepted:
                rows.append(outcome.row)
                ages.append(outcome.age_days)
                cals.append(int(record["calendar_day"]))
                index.append(i)
            elif outcome.status == DUPLICATE:
                duplicates += 1
            else:
                diverted += 1
        features = (
            np.stack(rows) if rows else np.empty((0, 0), dtype=np.float64)
        )
        return ChunkAdmission(
            features=features,
            ages=np.asarray(ages, dtype=np.int64),
            calendar_days=np.asarray(cals, dtype=np.int64),
            accepted_index=np.asarray(index, dtype=np.int64),
            n_diverted=diverted,
            n_duplicates=duplicates,
        )

    def _run_end_digests(
        self, cols: Mapping[str, np.ndarray]
    ) -> dict[int, str]:
        """Digest of the last row of each per-drive run (cheap: per run)."""
        ids = np.asarray(cols["drive_id"]).astype(np.int64, copy=False)
        ends = np.concatenate(
            (np.flatnonzero(ids[1:] != ids[:-1]), [len(ids) - 1])
        )
        names = list(cols)
        return {
            int(ids[e]): event_digest({k: cols[k][e] for k in names})
            for e in ends
        }

    def _journal_rows(self, cols: Mapping[str, np.ndarray]) -> None:
        names = list(cols)
        for i in range(len(cols["drive_id"])):
            self.journal.record({k: cols[k][i] for k in names})
