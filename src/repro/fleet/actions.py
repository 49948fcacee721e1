"""The fleet actuator: typed, reversible state transitions with audit.

Policies *propose* :class:`~repro.fleet.policy.FleetAction`\\ s; this
module is where they take effect.  Every drive is in exactly one status:

====================  =====================================================
``active``            in the serving rotation (the default; drives never
                      acted on carry no state at all)
``watched``           flagged for closer monitoring
``quarantined``       pulled from rotation, still powered — reversible
``replaced``          swapped out; a spare was consumed
====================  =====================================================

Transitions are typed (:data:`TRANSITIONS`): ``watch`` only escalates an
active drive, ``clear`` only de-escalates, ``replace`` is legal from any
in-service status.  An illegal transition raises
:class:`FleetActionError` — the actuator refuses rather than papers
over, because the audit journal must replay to exactly one state.

Reversibility: every applied entry records the *previous* status, so a
``revert`` is exact — the drive returns to where it was, a consumed
spare returns to the pool — and the journal's replay (a fold of
:func:`apply_entry` over entries) reconstructs the live
:class:`FleetState` bit-for-bit.  ``apply_entry`` is deliberately the
only place state mutates: the live actuator and the journal replayer
share it, so they cannot drift apart.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..errors import ReproError
from ..obs import eventlog, metrics
from ..obs.durable import now
from .policy import ACTIONS, FleetAction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .audit import AuditEntry, AuditJournal

__all__ = [
    "STATUSES",
    "TRANSITIONS",
    "FleetActionError",
    "FleetState",
    "Actuator",
    "apply_entry",
]

#: Drive statuses, in escalation order.
STATUSES = ("active", "watched", "quarantined", "replaced")

#: action -> (legal source statuses, resulting status).
TRANSITIONS: dict[str, tuple[frozenset[str], str]] = {
    "watch": (frozenset({"active"}), "watched"),
    "quarantine": (frozenset({"active", "watched"}), "quarantined"),
    "replace": (frozenset({"active", "watched", "quarantined"}), "replaced"),
    "clear": (frozenset({"watched", "quarantined"}), "active"),
}


class FleetActionError(RuntimeError, ReproError):
    """An action's transition is illegal for the drive's current status."""


@dataclass
class FleetState:
    """The full mutable fleet action state.

    Everything here is reconstructible from the audit journal alone
    (:func:`repro.fleet.audit.replay_journal`); :meth:`digest` is the
    equality gate tests and ``fleet audit --verify`` compare on.
    """

    #: drive_id -> status; absent drives are ``active``.
    status: dict[int, str] = field(default_factory=dict)
    #: drive_id -> day of the drive's most recent action (cooldown input).
    last_action_day: dict[int, int] = field(default_factory=dict)
    #: Days on which replace actions landed (sorted; budget-window input).
    replace_days: list[int] = field(default_factory=list)
    spares_used: int = 0
    actions_total: int = 0
    reverts_total: int = 0
    cost_total: float = 0.0
    by_action: dict[str, int] = field(default_factory=dict)

    def status_of(self, drive_id: int) -> str:
        return self.status.get(int(drive_id), "active")

    def count(self, status: str) -> int:
        """Drives currently in ``status`` (``active`` counts only acted-on
        drives that returned — pristine drives carry no state)."""
        if status not in STATUSES:
            raise FleetActionError(f"unknown status {status!r}")
        return sum(1 for s in self.status.values() if s == status)

    def replacements_since(self, day: int) -> int:
        """Replace actions on days ``>= day`` (rolling budget window)."""
        return len(self.replace_days) - bisect_left(self.replace_days, day)

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON form (sorted keys, plain scalars)."""
        return {
            "status": {
                str(d): self.status[d] for d in sorted(self.status)
            },
            "last_action_day": {
                str(d): self.last_action_day[d]
                for d in sorted(self.last_action_day)
            },
            "replace_days": list(self.replace_days),
            "spares_used": self.spares_used,
            "actions_total": self.actions_total,
            "reverts_total": self.reverts_total,
            "cost_total": self.cost_total,
            "by_action": dict(sorted(self.by_action.items())),
        }

    def digest(self) -> str:
        """sha256 of the canonical state — the reconstruction gate."""
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def apply_entry(state: FleetState, entry: "AuditEntry") -> None:
    """Fold one audit entry into the state — the single mutation path.

    Both the live :class:`Actuator` and the journal replayer call this,
    so the reconstructed state cannot diverge from the state the run
    actually held.  Raises :class:`FleetActionError` on an entry whose
    transition is illegal against the current state (a corrupt or
    reordered journal).
    """
    drive = int(entry.drive_id)
    current = state.status_of(drive)
    if current != entry.prev_status:
        raise FleetActionError(
            f"journal entry seq={entry.seq} expects drive {drive} in "
            f"{entry.prev_status!r} but state says {current!r}"
        )
    if entry.kind == "action":
        sources, target = TRANSITIONS[entry.action]
        if current not in sources or target != entry.new_status:
            raise FleetActionError(
                f"journal entry seq={entry.seq}: illegal {entry.action} "
                f"from {current!r} to {entry.new_status!r}"
            )
        state.status[drive] = target
        state.last_action_day[drive] = int(entry.day)
        state.actions_total += 1
        state.by_action[entry.action] = (
            state.by_action.get(entry.action, 0) + 1
        )
        state.cost_total += float(entry.cost)
        if entry.action == "replace":
            state.spares_used += 1
            insort(state.replace_days, int(entry.day))
    elif entry.kind == "revert":
        # The revert restores the *original* entry's prev_status, which
        # the revert entry carries as its own new_status.
        state.status[drive] = entry.new_status
        state.reverts_total += 1
        state.cost_total += float(entry.cost)
        if entry.action == "replace":
            # The spare returns to the pool; the budget window forgets
            # the replacement day.
            state.spares_used -= 1
            idx = bisect_left(state.replace_days, int(entry.day))
            if idx < len(state.replace_days) and state.replace_days[
                idx
            ] == int(entry.day):
                del state.replace_days[idx]
    else:
        raise FleetActionError(f"unknown journal entry kind {entry.kind!r}")


class Actuator:
    """Applies policy actions to a :class:`FleetState`, journaling each.

    Parameters
    ----------
    state:
        The fleet state to mutate (fresh by default).
    journal:
        Optional :class:`~repro.fleet.audit.AuditJournal`; every applied
        action and revert appends one entry, making the state exactly
        reconstructible after a crash.
    strict:
        With ``strict=True`` (default) an illegal transition raises;
        with ``strict=False`` it is counted in ``rejected_total`` and
        skipped — the mode the policy runner uses, since a policy
        deciding from a slightly stale view may legitimately re-propose
        an action that already took effect.
    """

    def __init__(
        self,
        state: FleetState | None = None,
        journal: "AuditJournal | None" = None,
        strict: bool = True,
    ):
        self.state = state if state is not None else FleetState()
        self.journal = journal
        self.strict = strict
        self.rejected_total = 0
        #: seq -> applied entry, for revert-by-sequence.
        self._applied: dict[int, "AuditEntry"] = {}
        self._seq = 0

    def _next_seq(self) -> int:
        if self.journal is not None:
            return self.journal.next_seq
        seq = self._seq
        self._seq += 1
        return seq

    def apply(
        self, action: FleetAction, ts: float | None = None
    ) -> "AuditEntry | None":
        """Validate, apply, and journal one action.

        Returns the journal entry (journaled or not), or ``None`` when a
        non-strict actuator rejected an illegal transition.
        """
        from .audit import AuditEntry

        if action.action not in ACTIONS:
            raise FleetActionError(f"unknown action {action.action!r}")
        current = self.state.status_of(action.drive_id)
        sources, target = TRANSITIONS[action.action]
        if current not in sources:
            if self.strict:
                raise FleetActionError(
                    f"cannot {action.action} drive {action.drive_id}: "
                    f"status is {current!r} (legal from "
                    f"{', '.join(sorted(sources))})"
                )
            self.rejected_total += 1
            metrics.inc(
                "repro_fleet_rejected_total",
                help="Policy actions rejected as illegal transitions",
            )
            return None
        entry = AuditEntry(
            seq=self._next_seq(),
            ts=now() if ts is None else float(ts),
            day=action.day,
            kind="action",
            action=action.action,
            drive_id=action.drive_id,
            prev_status=current,
            new_status=target,
            risk=float(action.risk),
            reason=action.reason,
            cost=float(action.cost),
        )
        if self.journal is not None:
            entry = self.journal.append(entry)
        apply_entry(self.state, entry)
        self._applied[entry.seq] = entry
        metrics.inc(
            "repro_fleet_actions_total",
            help="Fleet actions applied by the actuator",
            action=action.action,
        )
        metrics.set_gauge(
            "repro_fleet_spares_used",
            float(self.state.spares_used),
            help="Spares consumed by replace actions (net of reverts)",
        )
        eventlog.emit(
            "fleet.action.applied",
            f"{action.action} drive {action.drive_id}",
            level="info",
            action=action.action,
            drive_id=action.drive_id,
            day=action.day,
            risk=action.risk,
            cost=action.cost,
        )
        return entry

    def revert(
        self, seq: int, reason: str = "", ts: float | None = None
    ) -> "AuditEntry":
        """Reverse a previously applied action by its sequence number.

        The drive returns to the status it held before the original
        action; a reverted ``replace`` returns its spare.  The revert
        entry carries the *original* action's day, so replaying it
        removes exactly that replacement from the budget window.
        Illegal when the drive has moved on since (a later action
        changed its status) — reverts are exact or not at all.
        """
        from .audit import AuditEntry

        original = self._applied.get(seq)
        if original is None or original.kind != "action":
            raise FleetActionError(
                f"no applied action with seq={seq} to revert"
            )
        drive = original.drive_id
        current = self.state.status_of(drive)
        if current != original.new_status:
            raise FleetActionError(
                f"cannot revert seq={seq}: drive {drive} has moved from "
                f"{original.new_status!r} to {current!r} since"
            )
        entry = AuditEntry(
            seq=self._next_seq(),
            ts=now() if ts is None else float(ts),
            day=original.day,
            kind="revert",
            action=original.action,
            drive_id=drive,
            prev_status=current,
            new_status=original.prev_status,
            risk=original.risk,
            reason=reason or f"revert of seq={seq}",
            cost=0.0,
            ref=seq,
        )
        if self.journal is not None:
            entry = self.journal.append(entry)
        apply_entry(self.state, entry)
        del self._applied[seq]
        metrics.inc(
            "repro_fleet_reverts_total",
            help="Fleet actions reverted",
        )
        metrics.set_gauge(
            "repro_fleet_spares_used",
            float(self.state.spares_used),
            help="Spares consumed by replace actions (net of reverts)",
        )
        eventlog.emit(
            "fleet.action.reverted",
            f"revert {original.action} drive {drive}",
            level="warn",
            action=original.action,
            drive_id=drive,
            ref=seq,
        )
        return entry
