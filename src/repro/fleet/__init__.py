"""``repro.fleet`` — the closed-loop fleet autopilot.

The serving plane (:mod:`repro.serve`) turns telemetry into failure
probabilities; this package turns probabilities into *operations*:

score → decide → act → audit

- :mod:`repro.fleet.health` — per-drive rolling risk (EWMA over the
  scored-event stream, staleness-aware, deterministic snapshots);
- :mod:`repro.fleet.policy` — cost-aware replacement policies
  (threshold with hysteresis/cooldown, top-k budgeted ranking) emitting
  typed actions with per-action cost attribution;
- :mod:`repro.fleet.actions` — the actuator: typed, reversible status
  transitions over a :class:`FleetState` that is exactly
  reconstructible from the audit journal;
- :mod:`repro.fleet.audit` — the append-only, hash-chained JSONL
  journal and its verifier;
- :mod:`repro.fleet.whatif` — byte-deterministic policy replay with a
  cost/availability report, for pricing a policy before activation.

Everything downstream of the scores is deterministic by construction:
decisions depend only on the *admitted* event set (never arrival
order), journals are byte-identical across runs and worker counts, and
``fleet audit --verify`` proves a journal replays to the exact state
the run held.
"""

from .._lazy import lazy_exports

__all__ = [
    "ACTIONS",
    "STATUSES",
    "TRANSITIONS",
    "ActionCosts",
    "Actuator",
    "AuditEntry",
    "AuditError",
    "AuditJournal",
    "BasePolicy",
    "FleetAction",
    "FleetActionError",
    "FleetHealth",
    "FleetState",
    "FleetView",
    "GroundTruth",
    "HealthError",
    "POLICY_KINDS",
    "PolicyError",
    "PolicyRunner",
    "RiskPolicy",
    "RunOutcome",
    "ThresholdPolicy",
    "TopKPolicy",
    "VerifyReport",
    "WhatIfReport",
    "apply_entry",
    "evaluate_outcome",
    "ground_truth",
    "journal_summary",
    "load_policy",
    "policy_from_spec",
    "read_journal",
    "replay_journal",
    "run_whatif",
    "verify_journal",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".actions": (
            "Actuator",
            "FleetActionError",
            "FleetState",
            "STATUSES",
            "TRANSITIONS",
            "apply_entry",
        ),
        ".audit": (
            "AuditEntry",
            "AuditError",
            "AuditJournal",
            "VerifyReport",
            "journal_summary",
            "read_journal",
            "replay_journal",
            "verify_journal",
        ),
        ".health": ("FleetHealth", "FleetView", "HealthError", "RiskPolicy"),
        ".policy": (
            "ACTIONS",
            "ActionCosts",
            "BasePolicy",
            "FleetAction",
            "POLICY_KINDS",
            "PolicyError",
            "ThresholdPolicy",
            "TopKPolicy",
            "load_policy",
            "policy_from_spec",
        ),
        ".whatif": (
            "GroundTruth",
            "PolicyRunner",
            "RunOutcome",
            "WhatIfReport",
            "evaluate_outcome",
            "ground_truth",
            "run_whatif",
        ),
    },
)
