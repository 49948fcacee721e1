"""Reliability subsystem: fault injection, validation, repair, crash safety.

The paper studies drives that fail in the field; this package makes the
*pipeline itself* survive field conditions (see DESIGN.md §9):

- :mod:`repro.reliability.corruption` — seeded fault injector covering
  the telemetry failure modes of real fleet collectors;
- :mod:`repro.reliability.validation` — schema + invariant validator
  producing a structured :class:`ValidationReport`;
- :mod:`repro.reliability.repair` — ``strict`` / ``repair`` /
  ``quarantine`` policies turning dirty traces into usable datasets;
- :mod:`repro.reliability.runner` — atomic writes, retry with backoff,
  and chunked checkpointed simulation (``repro-ssd simulate --resume``).
"""

from .._lazy import lazy_exports

__all__ = [
    "DEFAULT_RATES",
    "FAULT_CLASSES",
    "FaultInjector",
    "InjectedFault",
    "InjectionResult",
    "truncate_file",
    "POLICIES",
    "RepairAction",
    "RepairResult",
    "TraceValidationError",
    "apply_policy",
    "CheckpointStore",
    "atomic_save_npz",
    "atomic_write",
    "retry_io",
    "simulate_fleet_resumable",
    "CheckResult",
    "ValidationReport",
    "validate_columns",
    "validate_trace",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".corruption": (
            "DEFAULT_RATES",
            "FAULT_CLASSES",
            "FaultInjector",
            "InjectedFault",
            "InjectionResult",
            "truncate_file",
        ),
        ".repair": (
            "POLICIES",
            "RepairAction",
            "RepairResult",
            "TraceValidationError",
            "apply_policy",
        ),
        "..data.npz": ("atomic_save_npz",),
        ".runner": (
            "CheckpointStore",
            "atomic_write",
            "retry_io",
            "simulate_fleet_resumable",
        ),
        ".validation": (
            "CheckResult",
            "ValidationReport",
            "validate_columns",
            "validate_trace",
        ),
    },
)
