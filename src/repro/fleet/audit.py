"""Append-only, hash-chained audit journal for fleet decisions.

Every action the autopilot takes — and every revert — is one JSON line:

.. code-block:: json

    {"seq": 3, "ts": 1733000000.0, "day": 412, "kind": "action",
     "action": "replace", "drive_id": 17, "prev_status": "watched",
     "new_status": "replaced", "risk": 0.974, "cost": 50.0,
     "reason": "risk 0.974000 >= replace_at 0.95",
     "chain": "ab12..."}

The file is a :class:`repro.obs.durable.JsonlLog`, so it shares the one
log policy with the serving DLQ/journal and the event log:

- **append-only, flushed per line** — a record exists once its line
  ends in ``\n``; a crashed process leaves whole lines plus at most one
  torn tail, which reopening the journal drops, so the journal after
  SIGKILL and resume is byte-for-byte the uninterrupted run's journal;
- **seq resumes** from an existing file's complete records, so appends
  across restarts never collide;
- **ts** comes from :func:`repro.obs.durable.now`; the what-if/run
  decision loop pins it to logical time (the decision day) instead, so
  two runs of the same policy on the same trace are byte-identical
  without any env knob.

On top of those, entries are **hash-chained**: each entry's ``chain`` is
``sha256(prev_chain + canonical_body)``.  ``fleet audit --verify``
recomputes the chain and replays the entries through the same
:func:`repro.fleet.actions.apply_entry` fold the live run used — a
journal that verifies is one whose reconstructed
:class:`~repro.fleet.actions.FleetState` provably matches what the run
held, and any in-place edit, reorder, or mid-file truncation breaks the
chain.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

from ..errors import ReproError
from ..obs.durable import JsonlLog, read_jsonl
from .actions import FleetState, apply_entry

__all__ = [
    "AUDIT_SCHEMA_VERSION",
    "AuditError",
    "AuditEntry",
    "AuditJournal",
    "VerifyReport",
    "read_journal",
    "replay_journal",
    "verify_journal",
    "journal_summary",
]

#: Bumped whenever the entry layout changes incompatibly.
AUDIT_SCHEMA_VERSION = 1

#: Chain seed for the first entry of a journal.
GENESIS = "0" * 64


class AuditError(RuntimeError, ReproError):
    """An audit journal is unreadable, inconsistent, or tampered with."""


@dataclass(frozen=True)
class AuditEntry:
    """One journaled action or revert (see the module docstring)."""

    seq: int
    ts: float
    day: int
    kind: str  # "action" | "revert"
    action: str
    drive_id: int
    prev_status: str
    new_status: str
    risk: float
    reason: str
    cost: float
    ref: int | None = None
    chain: str = ""

    def body(self) -> dict[str, Any]:
        """The canonical chained payload (everything but ``chain``)."""
        out: dict[str, Any] = {
            "seq": self.seq,
            "ts": self.ts,
            "day": self.day,
            "kind": self.kind,
            "action": self.action,
            "drive_id": self.drive_id,
            "prev_status": self.prev_status,
            "new_status": self.new_status,
            "risk": self.risk,
            "reason": self.reason,
            "cost": self.cost,
        }
        if self.ref is not None:
            out["ref"] = self.ref
        return out

    def to_dict(self) -> dict[str, Any]:
        return {**self.body(), "chain": self.chain}

    @classmethod
    def from_dict(cls, body: Mapping[str, Any]) -> "AuditEntry":
        try:
            return cls(
                seq=int(body["seq"]),
                ts=float(body["ts"]),
                day=int(body["day"]),
                kind=str(body["kind"]),
                action=str(body["action"]),
                drive_id=int(body["drive_id"]),
                prev_status=str(body["prev_status"]),
                new_status=str(body["new_status"]),
                risk=float(body["risk"]),
                reason=str(body.get("reason", "")),
                cost=float(body["cost"]),
                ref=None if body.get("ref") is None else int(body["ref"]),
                chain=str(body.get("chain", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise AuditError(f"malformed audit entry ({exc})") from None


def chain_digest(prev_chain: str, body: Mapping[str, Any]) -> str:
    """``sha256(prev_chain + canonical_json(body))`` — the chain step."""
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256((prev_chain + payload).encode()).hexdigest()


class AuditJournal(JsonlLog):
    """Append-only JSONL sink for audit entries, chain included.

    Opening an existing journal resumes both ``seq`` (from its complete
    records) and the hash chain (from the last complete line), so a
    restarted run extends the same tamper-evident history rather than
    forking it.  A complete last line that does not parse is refused:
    that is corruption, not a torn append.

    Opening a fresh journal creates the file immediately: a run that
    takes zero actions still leaves a (valid, empty) journal behind, so
    "the journal exists" is a post-condition of the run, not of the
    first action.
    """

    def __init__(self, path: str | Path):
        super().__init__(path)
        self._chain = GENESIS
        if self.last_line is not None:
            try:
                self._chain = str(json.loads(self.last_line)["chain"])
            except (ValueError, KeyError, TypeError) as exc:
                raise AuditError(
                    f"audit journal {self.path} has an unreadable "
                    f"final entry ({exc}); cannot resume the chain"
                ) from None
        self.open()

    @property
    def next_seq(self) -> int:
        return self.appended

    @property
    def chain(self) -> str:
        """The chain head (digest of the newest entry)."""
        return self._chain

    def append(self, entry: AuditEntry) -> AuditEntry:
        """Stamp seq + chain onto ``entry``, write it, and return it."""
        if entry.seq != self.appended:
            entry = replace(entry, seq=self.appended)
        chained = replace(entry, chain=chain_digest(self._chain, entry.body()))
        super().append(chained.to_dict())
        self._chain = chained.chain
        return chained


# --------------------------------------------------------------------------
# reading, replaying, verifying
# --------------------------------------------------------------------------

def read_journal(path: str | Path) -> list[AuditEntry]:
    """Load every entry of a journal, in append order.

    Raises :class:`AuditError` on a missing file or a line that does not
    parse.  Under the log policy a torn tail can exist (a SIGKILL mid
    append) until the journal is reopened for writing; the error names
    it, and this reader never repairs it.
    """
    path = Path(path)
    if not path.exists():
        raise AuditError(f"audit journal {path} does not exist")
    return [AuditEntry.from_dict(body) for _, body in read_jsonl(path, AuditError)]


def replay_journal(
    path: str | Path, state: FleetState | None = None
) -> FleetState:
    """Reconstruct the fleet state by folding the journal's entries.

    This is the recovery path after a crash *and* the verification path:
    it runs the exact :func:`repro.fleet.actions.apply_entry` fold the
    live actuator ran, so the result is the state the journaled run
    held — bit-for-bit (``FleetState.digest()`` equality).
    """
    state = state if state is not None else FleetState()
    for entry in read_journal(path):
        apply_entry(state, entry)
    return state


@dataclass
class VerifyReport:
    """Outcome of :func:`verify_journal`."""

    n_entries: int = 0
    problems: list[str] = field(default_factory=list)
    state: FleetState | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "ok": self.ok,
            "n_entries": self.n_entries,
            "problems": list(self.problems),
        }
        if self.state is not None:
            out["state_digest"] = self.state.digest()
        return out


def verify_journal(path: str | Path) -> VerifyReport:
    """Full integrity check: seq contiguity, hash chain, legal replay.

    Returns a report rather than raising on *integrity* problems (the
    CLI turns them into exit code 1); an unreadable file still raises
    :class:`AuditError` (exit code 2) — "corrupt beyond parsing" and
    "parsed but tampered" are different failures.
    """
    report = VerifyReport()
    entries = read_journal(path)
    report.n_entries = len(entries)
    prev_chain = GENESIS
    state = FleetState()
    for i, entry in enumerate(entries):
        if entry.seq != i:
            report.problems.append(
                f"entry {i}: seq is {entry.seq}, expected {i}"
            )
        expected = chain_digest(prev_chain, entry.body())
        if entry.chain != expected:
            report.problems.append(
                f"entry {i}: chain mismatch (entry was edited, reordered, "
                "or an earlier line was removed)"
            )
        prev_chain = entry.chain
        try:
            apply_entry(state, entry)
        except Exception as exc:  # FleetActionError and kin
            report.problems.append(f"entry {i}: illegal replay ({exc})")
    if report.ok:
        report.state = state
    return report


def journal_summary(entries: list[AuditEntry]) -> dict[str, Any]:
    """Aggregate view of a journal for ``fleet audit`` output."""
    by_action: dict[str, int] = {}
    reverts = 0
    cost = 0.0
    drives: set[int] = set()
    first_day = None
    last_day = None
    for entry in entries:
        drives.add(entry.drive_id)
        cost += entry.cost
        if entry.kind == "revert":
            reverts += 1
        else:
            by_action[entry.action] = by_action.get(entry.action, 0) + 1
        first_day = entry.day if first_day is None else min(first_day, entry.day)
        last_day = entry.day if last_day is None else max(last_day, entry.day)
    return {
        "n_entries": len(entries),
        "by_action": dict(sorted(by_action.items())),
        "reverts": reverts,
        "cost_total": cost,
        "drives_touched": len(drives),
        "first_day": first_day,
        "last_day": last_day,
    }
