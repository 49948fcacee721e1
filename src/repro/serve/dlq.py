"""Dead-letter queue and accepted-event journal for the serving path.

When the admission guard (:mod:`repro.serve.guard`) refuses an event —
late, malformed, schema-violating, conflicting, or shed under load — the
event is not silently dropped: it is appended to a **dead-letter queue**,
an append-only JSONL file where every entry carries the fault class, the
drive id, the watermark the event was judged against, and the event
payload itself (or the raw line, when it never parsed).  Accepted events
are optionally appended to a matching **journal**.

Together the two files make faults *replayable*: ``serve heal`` merges
the journal with the healable dead letters, restores per-drive age order,
deduplicates exact duplicates, and re-admits everything into a fresh
feature store — producing scores byte-identical to a run that never saw
the faults (DESIGN.md §14).  Events are stored canonically (Python
scalars, exact JSON float round-trip), so the healed feature rows are
bit-for-bit the rows a clean ingest would have produced.

Fault classes:

=============  ==========================================================
``malformed``  the line never parsed, or required fields are missing
``schema``     a field is non-numeric, non-finite, negative, or a
               collector sentinel (reuses the PR-1 validation bounds)
``late``       the event's age is behind the drive's absorbed watermark
``conflict``   same drive-day as the last absorbed event but a different
               payload (ambiguous without an upstream source of truth)
``shed``       diverted by backpressure load-shedding, never validated
=============  ==========================================================

``late`` and ``shed`` events heal from the DLQ alone; ``schema`` and
``conflict`` events heal when ``--refetch`` provides the upstream trace
(keys are intact, the payload is re-read); ``malformed`` entries have no
usable keys and stay dead.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..data.fields import FIELD_DTYPES
from ..errors import ReproError
from ..obs.durable import JsonlLog, read_jsonl

__all__ = [
    "FAULT_CLASSES",
    "HEALABLE_FAULTS",
    "REFETCHABLE_FAULTS",
    "DeadLetterError",
    "DeadLetterEntry",
    "DeadLetterQueue",
    "EventJournal",
    "HealPlan",
    "canonical_event",
    "event_digest",
    "build_heal_plan",
]

#: Serve-path fault classes, in documentation order.
FAULT_CLASSES = ("malformed", "schema", "late", "conflict", "shed")

#: Faults whose DLQ payload is the intact original event.
HEALABLE_FAULTS = frozenset({"late", "shed"})

#: Faults healable only by re-reading the payload from upstream
#: (``serve heal --refetch``): keys survive, the payload does not.
REFETCHABLE_FAULTS = frozenset({"schema", "conflict"})


class DeadLetterError(RuntimeError, ReproError):
    """A DLQ or journal file is unreadable or inconsistent."""


def canonical_event(record: Mapping[str, Any]) -> dict[str, Any]:
    """Normalize a record to plain Python scalars in registry order.

    NumPy scalars become ``int``/``float`` per the field registry dtype,
    so the JSON round-trip is exact (``repr`` floats) and two copies of
    the same drive-day always serialize to the same bytes.  Unknown keys
    are preserved (as-is) after the registry fields.

    Values the registry dtype cannot absorb — a NaN in an integer
    counter, a string where a number belongs — are kept verbatim: the
    DLQ must be able to record *any* sick event, and the admission
    guard (not this normalizer) is where such payloads get rejected.
    """
    out: dict[str, Any] = {}
    for name, dtype in FIELD_DTYPES.items():
        if name not in record:
            continue
        value = record[name]
        try:
            if dtype.kind in "iu":
                coerced = int(value)
                # int(7.5) would silently change the payload; keep the
                # original so the digest reflects what actually arrived.
                if float(coerced) != float(value):
                    raise ValueError
                out[name] = coerced
            else:
                out[name] = float(value)
        except (TypeError, ValueError, OverflowError):
            out[name] = value
    for name in record:
        if name not in out:
            out[name] = record[name]
    return out


def event_digest(event: Mapping[str, Any]) -> str:
    """sha256 of the canonical JSON payload — the duplicate/conflict key."""
    payload = json.dumps(
        canonical_event(event), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class DeadLetterEntry:
    """One diverted event, as recorded in the DLQ JSONL."""

    seq: int
    fault: str
    reason: str
    drive_id: int | None = None
    age_days: int | None = None
    watermark: int | None = None
    event: dict[str, Any] | None = None
    raw: str | None = None
    source: str = "guard"

    def to_dict(self) -> dict[str, Any]:
        body: dict[str, Any] = {
            "seq": self.seq,
            "fault": self.fault,
            "reason": self.reason,
            "drive_id": self.drive_id,
            "age_days": self.age_days,
            "watermark": self.watermark,
            "source": self.source,
        }
        if self.event is not None:
            body["event"] = self.event
        if self.raw is not None:
            body["raw"] = self.raw
        return body

    @classmethod
    def from_dict(cls, body: Mapping[str, Any]) -> "DeadLetterEntry":
        try:
            return cls(
                seq=int(body["seq"]),
                fault=str(body["fault"]),
                reason=str(body.get("reason", "")),
                drive_id=(
                    None if body.get("drive_id") is None else int(body["drive_id"])
                ),
                age_days=(
                    None if body.get("age_days") is None else int(body["age_days"])
                ),
                watermark=(
                    None
                    if body.get("watermark") is None
                    else int(body["watermark"])
                ),
                event=body.get("event"),
                raw=body.get("raw"),
                source=str(body.get("source", "guard")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DeadLetterError(f"malformed dead-letter entry ({exc})") from None


class DeadLetterQueue(JsonlLog):
    """Append-only JSONL sink for diverted events.

    ``seq`` numbers are assigned monotonically (resuming from the
    complete records of an existing file, under the log policy of
    :mod:`repro.obs.durable`) and recorded in every entry, so the heal
    ordering ``(drive_id, age_days, seq)`` is deterministic even across
    equal drive-days and restarts.  The file is created by the first
    divert: a run without faults leaves none behind.
    """

    def __init__(self, path: str | Path):
        super().__init__(path)
        self.by_fault: dict[str, int] = {}

    def divert(
        self,
        fault: str,
        reason: str,
        *,
        event: Mapping[str, Any] | None = None,
        raw: str | None = None,
        drive_id: int | None = None,
        age_days: int | None = None,
        watermark: int | None = None,
        source: str = "guard",
    ) -> DeadLetterEntry:
        if fault not in FAULT_CLASSES:
            raise DeadLetterError(
                f"unknown fault class {fault!r}; choose from "
                f"{', '.join(FAULT_CLASSES)}"
            )
        entry = DeadLetterEntry(
            seq=self.appended,
            fault=fault,
            reason=reason,
            drive_id=drive_id,
            age_days=age_days,
            watermark=watermark,
            event=None if event is None else canonical_event(event),
            raw=raw,
            source=source,
        )
        self.append(entry.to_dict())
        self.by_fault[fault] = self.by_fault.get(fault, 0) + 1
        return entry

    @staticmethod
    def read(path: str | Path) -> list[DeadLetterEntry]:
        """Load every entry of a DLQ file, in append order."""
        return [
            DeadLetterEntry.from_dict(body)
            for body in _records(path, "dead-letter queue")
        ]


class EventJournal(JsonlLog):
    """Append-only JSONL journal of accepted (admitted) events.

    Same log policy and lazy creation as :class:`DeadLetterQueue`.
    """

    def record(self, event: Mapping[str, Any]) -> None:
        self.append({"seq": self.appended, "event": canonical_event(event)})

    @staticmethod
    def read(path: str | Path) -> list[dict[str, Any]]:
        """Accepted events in admission order (each with its ``seq``)."""
        out = _records(path, "journal")
        for body in out:
            if "event" not in body or "seq" not in body:
                raise DeadLetterError(
                    f"journal file {path} entry is missing seq/event: {body}"
                )
        return out


def _records(path: str | Path, what: str) -> list[dict[str, Any]]:
    """Every record of a DLQ or journal file, as :class:`DeadLetterError`."""
    if not Path(path).exists():
        raise DeadLetterError(f"{what} file {path} does not exist")
    return [body for _, body in read_jsonl(path, DeadLetterError)]


@dataclass
class HealPlan:
    """The deterministic re-admission plan built by :func:`build_heal_plan`.

    ``events`` is the healed stream: accepted + healed dead letters,
    exact duplicates dropped, sorted by ``(drive_id, age_days, seq)`` —
    the canonical trace order, so re-ingesting it into a fresh store
    reproduces a fault-free run bit-for-bit.
    """

    events: list[dict[str, Any]] = field(default_factory=list)
    healed_by_fault: dict[str, int] = field(default_factory=dict)
    duplicates_dropped: int = 0
    conflicts_resolved: int = 0
    unhealable: list[DeadLetterEntry] = field(default_factory=list)

    @property
    def n_healed(self) -> int:
        return sum(self.healed_by_fault.values())


def _finite_payload(event: Mapping[str, Any]) -> bool:
    return all(
        not (isinstance(v, float) and not math.isfinite(v))
        for v in event.values()
    )


def build_heal_plan(
    journal_events: Iterable[Mapping[str, Any]],
    entries: Iterable[DeadLetterEntry],
    refetch: Mapping[tuple[int, int], Mapping[str, Any]] | None = None,
) -> HealPlan:
    """Merge journal + dead letters into a deterministic healed stream.

    - ``late``/``shed`` entries re-admit their stored payload;
    - ``schema``/``conflict`` entries re-admit the upstream payload from
      ``refetch`` (a ``(drive_id, age_days) → record`` mapping) when
      provided, and are unhealable otherwise;
    - ``malformed`` entries are always unhealable (no usable keys);
    - exact duplicates (same drive-day, same canonical payload) collapse
      to the earliest occurrence; same drive-day with differing payloads
      resolves to the refetched truth when available and is otherwise a
      conflict kept from the journal side.

    The result is sorted by ``(drive_id, age_days, seq)`` — the order
    :func:`repro.data.iter_drive_day_chunks` streams a clean trace in —
    so replaying the plan reproduces per-drive cumulative state exactly.
    """
    plan = HealPlan()
    # (drive_id, age_days) -> (sort_seq, event, digest, from_journal)
    chosen: dict[tuple[int, int], tuple[int, dict[str, Any], str, bool]] = {}

    def consider(
        event: Mapping[str, Any], seq: int, from_journal: bool
    ) -> bool:
        """Fold one candidate into the plan; True if it survived."""
        body = canonical_event(event)
        key = (int(body["drive_id"]), int(body["age_days"]))
        digest = event_digest(body)
        existing = chosen.get(key)
        if existing is None:
            chosen[key] = (seq, body, digest, from_journal)
            return True
        if existing[2] == digest:
            plan.duplicates_dropped += 1
            return False
        # Differing payloads for one drive-day: prefer the upstream
        # truth when we can refetch it, else keep the journal side.
        if refetch is not None and key in refetch:
            truth = canonical_event(refetch[key])
            chosen[key] = (min(existing[0], seq), truth, event_digest(truth), True)
            plan.conflicts_resolved += 1
            return True
        plan.conflicts_resolved += 1
        return existing[3] is from_journal

    for body in journal_events:
        consider(body["event"], int(body["seq"]), True)

    for entry in sorted(entries, key=lambda e: e.seq):
        # Resolve the payload to re-admit; None means unhealable.
        payload: Mapping[str, Any] | None = None
        if entry.fault in HEALABLE_FAULTS and entry.event is not None:
            payload = entry.event
        elif (
            entry.fault in REFETCHABLE_FAULTS
            and refetch is not None
            and entry.drive_id is not None
            and entry.age_days is not None
        ):
            truth = refetch.get((entry.drive_id, entry.age_days))
            if truth is not None and _finite_payload(canonical_event(truth)):
                payload = truth
        if payload is None:
            plan.unhealable.append(entry)
            continue
        # A False return means the drive-day was already covered (an
        # exact duplicate, or a conflict that kept the other side) —
        # still accounted as healed: the event needs no further action.
        consider(payload, 10**9 + entry.seq, False)
        plan.healed_by_fault[entry.fault] = (
            plan.healed_by_fault.get(entry.fault, 0) + 1
        )

    plan.events = [
        body
        for _, body, _, _ in sorted(
            chosen.values(),
            key=lambda c: (int(c[1]["drive_id"]), int(c[1]["age_days"]), c[0]),
        )
    ]
    return plan
