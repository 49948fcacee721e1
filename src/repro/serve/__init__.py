"""Online scoring service: incremental features, model registry, engine.

The batch pipeline (simulate → train → score) answers "how well would
the paper's models have predicted failures"; this package answers "how
would those models run in production".  Seven pieces:

- :mod:`repro.serve.feature_store` — per-drive incremental state that
  reproduces the batch feature rows bit-for-bit, one event at a time;
- :mod:`repro.serve.registry` — versioned model artifacts with
  publish/activate/rollback and schema-hash compatibility gating;
- :mod:`repro.serve.batching` — size/wait-bounded micro-batching of
  scoring requests with backpressure bounds;
- :mod:`repro.serve.guard` — the admission guard classifying every
  event (accept / drop-duplicate / dead-letter) against validation
  bounds and per-drive watermarks;
- :mod:`repro.serve.dlq` — the append-only dead-letter queue, the
  accepted-event journal, and the ``serve heal`` rebuild planner;
- :mod:`repro.serve.health` — circuit breaker, health states, and the
  staleness policy behind degraded scoring;
- :mod:`repro.serve.engine` — the request loop tying them together,
  with replay/backfill over recorded traces;
- :mod:`repro.serve.partition` — the versioned drive-ID hash partition
  splitting the fleet across scorer shards;
- :mod:`repro.serve.shard` — the sharded serving plane: supervised
  shard processes, checkpoint/journal failover, and resharding;
- :mod:`repro.serve.snapshots` — rotated keep-last-K snapshot
  generations under atomic writes.

The cornerstone invariant is *online/offline parity*: for any trace,
streaming it through the engine yields exactly the probabilities the
offline ``score`` pipeline computes (``serve replay`` verifies this
bit-for-bit; see DESIGN.md §13).  The robustness layer extends it to
sick inputs: a chaos-perturbed stream plus ``serve heal`` converges
back to the byte-identical clean scores (DESIGN.md §14), and the
sharded plane extends it across topology: any shard count, an N→M
reshard, and a SIGKILLed-and-healed shard all produce the same bytes
(DESIGN.md §17).
"""

from .._lazy import lazy_exports

__all__ = [
    "BatchPolicy",
    "MicroBatcher",
    "QueuePolicy",
    "ScoredEvent",
    "ReplayResult",
    "ScoringEngine",
    "TelemetryConfig",
    "FeatureStore",
    "FeatureStoreError",
    "OutOfOrderError",
    "SchemaMismatchError",
    "ModelRegistry",
    "RegistryError",
    "ACCEPTED",
    "DUPLICATE",
    "DEAD_LETTERED",
    "AdmissionGuard",
    "AdmissionOutcome",
    "ChunkAdmission",
    "GuardStats",
    "FAULT_CLASSES",
    "HEALABLE_FAULTS",
    "REFETCHABLE_FAULTS",
    "DeadLetterEntry",
    "DeadLetterError",
    "DeadLetterQueue",
    "EventJournal",
    "HealPlan",
    "build_heal_plan",
    "canonical_event",
    "event_digest",
    "HealthState",
    "ServeBreaker",
    "StalenessPolicy",
    "aggregate_statuses",
    "load_status",
    "render_sharded_status",
    "render_status",
    "status_exit_code",
    "PARTITION_VERSION",
    "PartitionMap",
    "drive_shard",
    "drive_shards",
    "SHARD_SCHEMA_VERSION",
    "ShardError",
    "ShardPaths",
    "ShardedReplayResult",
    "merged_plane_events",
    "plane_scores",
    "plane_status",
    "read_plane_manifest",
    "reshard_plane",
    "run_sharded_replay",
    "latest_snapshot",
    "list_generations",
    "prune_generations",
    "write_rotated",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".batching": ("BatchPolicy", "MicroBatcher", "QueuePolicy"),
        ".dlq": (
            "FAULT_CLASSES",
            "HEALABLE_FAULTS",
            "REFETCHABLE_FAULTS",
            "DeadLetterEntry",
            "DeadLetterError",
            "DeadLetterQueue",
            "EventJournal",
            "HealPlan",
            "build_heal_plan",
            "canonical_event",
            "event_digest",
        ),
        ".engine": ("ReplayResult", "ScoredEvent", "ScoringEngine", "TelemetryConfig"),
        ".feature_store": (
            "FeatureStore",
            "FeatureStoreError",
            "OutOfOrderError",
            "SchemaMismatchError",
        ),
        ".guard": (
            "ACCEPTED",
            "DEAD_LETTERED",
            "DUPLICATE",
            "AdmissionGuard",
            "AdmissionOutcome",
            "ChunkAdmission",
            "GuardStats",
        ),
        ".health": (
            "HealthState",
            "ServeBreaker",
            "StalenessPolicy",
            "aggregate_statuses",
            "load_status",
            "render_sharded_status",
            "render_status",
            "status_exit_code",
        ),
        ".partition": (
            "PARTITION_VERSION",
            "PartitionMap",
            "drive_shard",
            "drive_shards",
        ),
        ".registry": ("ModelRegistry", "RegistryError"),
        ".shard": (
            "SHARD_SCHEMA_VERSION",
            "ShardError",
            "ShardPaths",
            "ShardedReplayResult",
            "merged_plane_events",
            "plane_scores",
            "plane_status",
            "read_plane_manifest",
            "reshard_plane",
            "run_sharded_replay",
        ),
        ".snapshots": (
            "latest_snapshot",
            "list_generations",
            "prune_generations",
            "write_rotated",
        ),
    },
)
