"""repro.resilience — the worker pool and its supervision.

:class:`SupervisedPool` runs every fan-out of :mod:`repro.parallel`,
with per-task deadlines, deterministic retries, poison-task quarantine,
a pool-level circuit breaker, and graceful SIGTERM/SIGINT draining.
See DESIGN.md §12.
"""

from .._lazy import lazy_exports

__all__ = [
    "SupervisorPolicy",
    "SupervisionLog",
    "FailureReport",
    "TaskFailure",
    "TaskTimeout",
    "PoisonTask",
    "QuarantinedRunError",
    "SupervisedPool",
    "supervised_iter_tasks",
    "force_fail",
    "ShutdownRequested",
    "graceful_shutdown",
    "EXIT_INTERRUPTED",
    "ChaosError",
    "parse_chaos_spec",
    "planned_fault",
    "CHAOS_MODES",
    "TELEMETRY_MODES",
    "SHARD_MODES",
    "GARBLE_FIELDS",
    "chaos_telemetry_events",
    "garble_event",
    "telemetry_spec_from_env",
    "shard_spec_from_env",
    "planned_shard_kill",
    "ENV_CHAOS",
    "ENV_CHAOS_SEED",
    "ENV_CHAOS_HANG",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".chaos": (
            "CHAOS_MODES",
            "ENV_CHAOS",
            "ENV_CHAOS_HANG",
            "ENV_CHAOS_SEED",
            "GARBLE_FIELDS",
            "SHARD_MODES",
            "TELEMETRY_MODES",
            "ChaosError",
            "chaos_telemetry_events",
            "garble_event",
            "parse_chaos_spec",
            "planned_fault",
            "planned_shard_kill",
            "shard_spec_from_env",
            "telemetry_spec_from_env",
        ),
        ".shutdown": ("EXIT_INTERRUPTED", "ShutdownRequested", "graceful_shutdown"),
        ".supervisor": (
            "FailureReport",
            "PoisonTask",
            "QuarantinedRunError",
            "SupervisedPool",
            "SupervisionLog",
            "SupervisorPolicy",
            "TaskFailure",
            "TaskTimeout",
            "force_fail",
            "supervised_iter_tasks",
        ),
    },
)
