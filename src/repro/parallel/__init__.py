"""Deterministic parallel execution (``repro.parallel``).

Process-pool fan-out for the pipeline's embarrassingly parallel hot
paths — fleet simulation (one RNG stream per drive) and cross-validated
model selection (one downsampling stream per fold) — with three hard
guarantees:

1. **Bit-identical results for any worker count.**  Every unit of work
   owns a pre-spawned seed stream, so scheduling cannot leak into the
   output; ``workers=4`` produces byte-identical artifacts to serial.
2. **Serial fallback.**  ``workers=1`` (the default), unpicklable
   payloads, and unavailable pools all run the same code in-process.
   Pooled work runs on the workers of
   :class:`repro.resilience.SupervisedPool`, the package's one pool.
3. **Observability survives fan-out.**  Workers capture spans/metrics
   locally and ship the delta back for merge into the parent collector
   (:mod:`~repro.parallel.obsmerge`), so run manifests and Prometheus
   exports stay complete under ``--workers > 1``.

See DESIGN.md §11 for the sharding/seed-stream scheme.
"""

from .._lazy import lazy_exports

__all__ = [
    "ENV_WORKERS",
    "ObsDelta",
    "WorkerConfigError",
    "WorkerCrash",
    "capture_obs",
    "iter_tasks",
    "merge_obs",
    "resolve_workers",
    "run_tasks",
    "shard_ranges",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".obsmerge": ("ObsDelta", "capture_obs", "merge_obs"),
        ".pool": (
            "ENV_WORKERS",
            "WorkerConfigError",
            "WorkerCrash",
            "iter_tasks",
            "resolve_workers",
            "run_tasks",
            "shard_ranges",
        ),
    },
)
