"""Observability subsystem: tracing, metrics, manifests, live telemetry.

Zero-dependency pieces, imported by every other layer but importing none
of them (so instrumentation can never create an import cycle):

- :mod:`repro.obs.tracing` — nested spans with monotonic timings and
  per-span row accounting, collected by a thread-safe in-process
  :class:`~repro.obs.tracing.Tracer`;
- :mod:`repro.obs.metrics` — counters/gauges/histograms with labeled
  series and Prometheus-text/JSON exporters;
- :mod:`repro.obs.timeline` — deterministic windowed time-series over
  the metrics registry, ticking on event-count/watermark boundaries
  (DESIGN.md §15);
- :mod:`repro.obs.slo` — declarative objectives over timeline windows
  with multi-window burn-rate classification (ok/warn/breach);
- :mod:`repro.obs.eventlog` — structured JSONL event log with levels
  and span correlation (guard/DLQ/health transitions);
- :mod:`repro.obs.durable` — the one append-only JSONL log (torn-tail
  repair, seq resume, cut-back), the one clock and the one atomic write
  behind every record file and rewritten artifact;
- :mod:`repro.obs.manifest` — the per-run manifest (config hash, seeds,
  file digests, stage timings, validation tallies) written atomically
  next to every artifact;
- :mod:`repro.obs.reportobs` — human-readable summaries and ``obs diff``
  drift detection between two manifests.

Instrumented code calls :func:`repro.obs.tracing.span` /
:func:`repro.obs.metrics.inc` / :func:`repro.obs.timeline.record` /
:func:`repro.obs.eventlog.emit`, which no-op unless the CLI (or a test)
activates a collector — the hot paths pay one global read when
observability is off (measured <5 % in ``benchmarks/test_obs_overhead``).
"""

from .._lazy import lazy_exports

__all__ = [
    "MANIFEST_SCHEMA",
    "MANIFEST_VERSION",
    "ManifestError",
    "RunManifest",
    "config_digest",
    "file_digest",
    "load_manifest",
    "validate_manifest",
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "bucket_quantile",
    "DiffEntry",
    "ManifestDiff",
    "diff_manifests",
    "render_manifest",
    "LEVELS",
    "EventLog",
    "iter_events",
    "load_events",
    "Objective",
    "ObjectiveResult",
    "SloReport",
    "SloSpec",
    "evaluate_objective",
    "evaluate_slos",
    "load_slo_spec",
    "slo_exit_code",
    "TickPolicy",
    "Timeline",
    "TimelineWindow",
    "load_timeline_jsonl",
    "Span",
    "Tracer",
    "traced",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".eventlog": ("LEVELS", "EventLog", "iter_events", "load_events"),
        ".manifest": (
            "MANIFEST_SCHEMA",
            "MANIFEST_VERSION",
            "ManifestError",
            "RunManifest",
            "config_digest",
            "file_digest",
            "load_manifest",
            "validate_manifest",
        ),
        ".metrics": ("DEFAULT_BUCKETS", "MetricsRegistry", "bucket_quantile"),
        ".reportobs": (
            "DiffEntry",
            "ManifestDiff",
            "diff_manifests",
            "render_manifest",
        ),
        ".slo": (
            "Objective",
            "ObjectiveResult",
            "SloReport",
            "SloSpec",
            "evaluate_objective",
            "evaluate_slos",
            "load_slo_spec",
            "slo_exit_code",
        ),
        ".timeline": ("TickPolicy", "Timeline", "TimelineWindow", "load_timeline_jsonl"),
        ".tracing": ("Span", "Tracer", "traced"),
    },
)
