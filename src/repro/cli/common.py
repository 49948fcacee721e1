"""What the ``repro-ssd`` commands share: flag groups, input loaders and
the one run context.

:func:`run_context` is the only place a command's observability is
wired.  It builds the span tracer, the metrics registry and the run
manifest; resolves the worker count and supervision policy from the
execution flags; builds the timeline, event log, status heartbeat and
SLO spec the telemetry flags ask for; and opens every record file (DLQ,
event journal, audit journal) under the active event log, so a torn-tail
repair reaches ``--eventlog``.  On a clean exit it flushes the
telemetry, records workers and supervision, and writes the manifest and
the ``--metrics-out`` dump.  Every exit, clean or raising, closes the
command's scoring engine, so no worker outlives the command.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..errors import ReproError
from ..obs.durable import atomic_write

if TYPE_CHECKING:
    from ..core import FailurePredictor
    from ..obs import RunManifest
    from ..obs.eventlog import EventLog
    from ..obs.metrics import MetricsRegistry
    from ..obs.slo import SloReport
    from ..obs.timeline import Timeline
    from ..obs.tracing import Tracer
    from ..reliability import RepairResult
    from ..resilience import SupervisionLog, SupervisorPolicy
    from ..serve import ScoringEngine, TelemetryConfig
    from ..simulator import FleetTrace


class CLIError(RuntimeError, ReproError):
    """Actionable user-facing error; printed as one line, exit code 2."""


#: Exit code for a run that completed but quarantined poison tasks.
EXIT_QUARANTINE = 3


def add_execution_args(parser: argparse.ArgumentParser) -> None:
    """The shared execution flag group: workers + supervision.

    Every command with a pooled stage (simulate, train, score, the serve
    family) takes the same four knobs; adding them through one helper
    keeps the flag names, defaults, and help text identical everywhere.
    """
    group = parser.add_argument_group("execution")
    group.add_argument(
        "--workers",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the parallelizable stages "
        "(default: $REPRO_WORKERS or 1; results are byte-identical "
        "for any value)",
    )
    group.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt deadline for pooled tasks; a task past it is "
        "killed and retried (default: no deadline)",
    )
    group.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="retries per failed task before it is poison (default: 2); "
        "retried tasks re-run the same seed stream, so results are "
        "byte-identical to a clean run",
    )
    group.add_argument(
        "--on-poison",
        choices=("fail", "quarantine"),
        default="fail",
        help="poison-task handling: fail the run (default) or "
        "quarantine the task, finish healthy work, and exit "
        f"{EXIT_QUARANTINE}",
    )


def add_obs_args(
    parser: argparse.ArgumentParser, span_flag: str = "--trace-spans"
) -> None:
    """The --trace/--metrics-out observability flag group.

    ``span_flag`` is ``--trace`` on ``simulate`` and ``--trace-spans``
    on commands where ``--trace`` already names the input directory.
    """
    group = parser.add_argument_group("observability")
    group.add_argument(
        span_flag,
        dest="trace_spans",
        action="store_true",
        help="include the full span tree in the run manifest "
        "(stage aggregates are always recorded)",
    )
    group.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="also write the metrics registry in Prometheus text format",
    )
    group.add_argument(
        "--manifest-out",
        metavar="PATH",
        default=None,
        help="override the default run-manifest path",
    )
    group.add_argument(
        "--no-manifest",
        action="store_true",
        help="skip writing the run manifest",
    )


def add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    """The live-telemetry flag group shared by ``serve replay``/``run``.

    Any of these flags turns the telemetry plane on; without them the
    serving path runs exactly as before (no timeline, no heartbeats).
    """
    group = parser.add_argument_group("telemetry")
    group.add_argument(
        "--status-out",
        metavar="PATH",
        default=None,
        help="heartbeat a status.json here every --status-every events "
        "(read by `serve status`)",
    )
    group.add_argument(
        "--status-every",
        type=int,
        default=5000,
        metavar="EVENTS",
        help="heartbeat cadence in events seen (default: 5000)",
    )
    group.add_argument(
        "--timeline-out",
        metavar="PATH",
        default=None,
        help="export the windowed timeline as JSONL at stream end "
        "(input for `obs slo`)",
    )
    group.add_argument(
        "--tick-every",
        type=int,
        default=1024,
        metavar="EVENTS",
        help="timeline window width in events (default: 1024; windows "
        "also close on watermark advances)",
    )
    group.add_argument(
        "--eventlog",
        metavar="PATH",
        default=None,
        help="append structured events (guard diversions, health "
        "transitions, heartbeats) to this JSONL (read by `obs tail`)",
    )
    group.add_argument(
        "--slo-spec",
        metavar="PATH",
        default=None,
        help="evaluate this SLO spec over the timeline; the verdict "
        "lands in status.json and the run manifest",
    )


def add_model_source(parser: argparse.ArgumentParser) -> None:
    """``--model`` / ``--registry`` (+ ``--version``) model selection."""
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--model", default=None, help="trained model pickle (train output)"
    )
    group.add_argument(
        "--registry", default=None, help="model registry directory"
    )
    parser.add_argument(
        "--version",
        default=None,
        metavar="vNNNN",
        help="registry version to serve (default: the active one)",
    )


def require_trace_dir(path: Path) -> Path:
    if not path.is_dir():
        raise CLIError(
            f"trace directory {path} does not exist or is not a directory "
            "(create one with `repro-ssd simulate --out ...`)"
        )
    return path


def load_trace(
    path: Path, policy: str | None = None
) -> tuple[FleetTrace, RepairResult | None]:
    """Load a trace directory; returns the trace plus the repair outcome
    (``None`` when no load policy ran), so callers can fold validation
    and quarantine tallies into their run manifest."""
    from ..data import (
        load_dataset_checked,
        load_dataset_npz,
        load_drivetable_npz,
        load_swaplog_npz,
    )
    from ..simulator import FleetConfig, FleetTrace

    require_trace_dir(path)
    repair: RepairResult | None = None
    if policy is None or policy == "off":
        records = load_dataset_npz(path / "records.npz")
    else:
        repair = load_dataset_checked(path / "records.npz", policy=policy)
        records = repair.dataset
        if repair.actions:
            print(repair.summary(), file=sys.stderr)
    drives = load_drivetable_npz(path / "drives.npz")
    swaps = load_swaplog_npz(path / "swaps.npz")
    horizon = int((drives.deploy_day + drives.end_of_observation_age).max())
    config = FleetConfig(
        n_drives_per_model=max(len(drives) // 3, 1),
        horizon_days=max(horizon, 30),
        deploy_spread_days=min(int(drives.deploy_day.max()), max(horizon, 30) - 1),
    )
    trace = FleetTrace(records=records, drives=drives, swaps=swaps, config=config)
    return trace, repair


def trace_inputs(manifest: RunManifest, trace_dir: Path) -> None:
    for name in ("records.npz", "drives.npz", "swaps.npz"):
        if (trace_dir / name).exists():
            manifest.add_input(trace_dir / name)


def load_predictor(model_path: Path) -> FailurePredictor:
    """Unpickle a trained predictor from a ``train`` output file."""
    import pickle

    from ..core import FailurePredictor

    if not model_path.exists():
        raise CLIError(
            f"model file {model_path} does not exist "
            "(train one with `repro-ssd train --model ...`)"
        )
    try:
        with open(model_path, "rb") as fh:
            predictor = pickle.load(fh)
    except (pickle.UnpicklingError, EOFError) as exc:
        raise CLIError(
            f"model file {model_path} is not a readable predictor pickle ({exc})"
        ) from None
    if not isinstance(predictor, FailurePredictor):
        raise CLIError(f"model file {model_path} is not a FailurePredictor")
    return predictor


def serve_predictor(
    args: argparse.Namespace,
) -> tuple[FailurePredictor, Path, str]:
    """Resolve the served model from ``--model`` or ``--registry``.

    Returns the predictor, the artifact path (for manifest inputs), and
    a short human-readable description of where it came from.
    """
    from ..serve import ModelRegistry

    if args.model:
        path = Path(args.model)
        return load_predictor(path), path, f"model {path}"
    registry = ModelRegistry(args.registry)
    version = args.version or registry.active_version()
    if version is None:
        raise CLIError(
            f"registry {args.registry} has no active version "
            "(publish one with `repro-ssd serve publish --activate`)"
        )
    predictor = registry.load(version)
    path = registry.versions_dir / version / "model.pkl"
    return predictor, path, f"registry {args.registry} {version}"


def serve_summary(engine: ScoringEngine, dlq_path, journal_path) -> dict:
    """The manifest ``serve`` section for a guarded engine."""
    guard = engine.guard
    body = {
        "health": engine.health_state,
        **guard.stats.to_dict(),
        "stale_scores": engine.stale_scores,
    }
    if guard.breaker is not None:
        body["breaker"] = guard.breaker.to_dict()
    if dlq_path:
        body["dlq_path"] = str(dlq_path)
    if journal_path:
        body["journal_path"] = str(journal_path)
    return body


def print_slo(command: str, report: SloReport) -> None:
    bad = sum(1 for r in report.objectives if r.state != "ok")
    print(
        f"{command}: slo {report.state} "
        f"({len(report.objectives)} objective(s), {bad} violating)",
        file=sys.stderr,
    )


# --------------------------------------------------------------------------
# the run context
# --------------------------------------------------------------------------


@dataclass
class Run:
    """One command's run, as :func:`run_context` hands it out."""

    manifest: RunManifest
    tracer: Tracer
    registry: MetricsRegistry
    #: From the execution flag group; ``None`` on commands without it.
    workers: int | None = None
    policy: SupervisorPolicy | None = None
    supervision: SupervisionLog | None = None
    #: From the telemetry flags.  The engine built with it goes in
    #: ``engine``, whose final heartbeat the exit flush writes and whose
    #: workers every exit reaps.
    telemetry: TelemetryConfig | None = None
    engine: ScoringEngine | None = None
    #: Set on a clean exit.
    slo_report: SloReport | None = None
    manifest_path: Path | None = None
    files: contextlib.ExitStack = field(default_factory=contextlib.ExitStack)
    opened: list[Path] = field(default_factory=list)

    def open(self, factory: Callable[[Path], Any], path: str | Path) -> Any:
        """Open a record file under the run's telemetry; it closes with
        the run and, once it holds records, is a manifest output."""
        log = self.files.enter_context(factory(path))
        self.opened.append(Path(path))
        return log


@contextlib.contextmanager
def run_context(
    args: argparse.Namespace,
    command: str,
    config: Mapping[str, Any] | None = None,
    seeds: Mapping[str, int] | None = None,
    manifest_path: Path | None = None,
    keep_spans: bool = False,
) -> Iterator[Run]:
    """Run ``command`` under the collectors and telemetry its flags ask for.

    ``manifest_path`` is where the manifest goes by default; with
    ``None`` it is written only to ``--manifest-out``.  A block that
    raises writes nothing.  The tracer keeps span objects only under
    ``--trace-spans`` or ``keep_spans`` (a command that reads its own
    spans back); otherwise it keeps just the stage aggregates.
    """
    from ..obs import RunManifest, eventlog, metrics, timeline, tracing

    run = Run(
        RunManifest(command=command, config=dict(config or {}), seeds=dict(seeds or {})),
        tracing.Tracer(keep_spans=keep_spans or args.trace_spans),
        metrics.MetricsRegistry(),
    )
    if hasattr(args, "workers"):
        from ..parallel import resolve_workers
        from ..resilience import SupervisionLog, SupervisorPolicy

        try:
            run.workers = resolve_workers(args.workers)
            run.policy = SupervisorPolicy(
                task_timeout=args.task_timeout,
                max_retries=args.max_retries,
                on_poison=args.on_poison,
            )
        except ValueError as exc:
            raise CLIError(str(exc)) from None
        run.supervision = SupervisionLog()
    tl, log = _telemetry(args, run)
    with contextlib.ExitStack() as stack:
        stack.enter_context(tracing.activate(run.tracer))
        stack.enter_context(metrics.activate(run.registry))
        if tl is not None:
            stack.enter_context(timeline.activate(tl))
        if log is not None:
            stack.enter_context(eventlog.activate(log))
        with run.files:
            try:
                yield run
                if tl is not None:
                    run.slo_report = _flush_telemetry(args, run, tl, log)
            finally:
                if run.engine is not None:
                    run.engine.close()
    for path in run.opened:
        if path.exists():
            run.manifest.add_output(path)
    if run.workers is not None:
        # Recorded under results, not config: the worker count must not
        # feed the config digest — same-seed serial and parallel runs
        # are meant to `obs diff` clean against each other.
        run.manifest.results["workers"] = run.workers
    if run.supervision is not None and run.supervision.events:
        run.manifest.record_resilience(run.supervision.to_dict())
    run.manifest.finish(run.tracer, run.registry, include_spans=args.trace_spans)
    path = args.manifest_out or manifest_path
    if path is not None and not args.no_manifest:
        run.manifest_path = run.manifest.write(path)
    if args.metrics_out:
        with atomic_write(args.metrics_out, "w") as fh:
            fh.write(run.registry.render_prometheus())


def _telemetry(
    args: argparse.Namespace, run: Run
) -> tuple[Timeline | None, EventLog | None]:
    """Build the telemetry plane from its flag group (all or nothing)."""
    if not any(
        getattr(args, name, None)
        for name in ("status_out", "timeline_out", "eventlog", "slo_spec")
    ):
        return None, None
    from ..obs import eventlog, slo, timeline
    from ..serve import TelemetryConfig

    spec = None
    if args.slo_spec:
        try:
            spec = slo.load_slo_spec(args.slo_spec)
        except (OSError, ValueError) as exc:
            raise CLIError(f"bad SLO spec: {exc}") from None
    try:
        policy = timeline.TickPolicy(every_events=args.tick_every)
        run.telemetry = TelemetryConfig(
            status_path=args.status_out,
            heartbeat_every=args.status_every,
            slo_spec=spec,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    log = eventlog.EventLog(args.eventlog) if args.eventlog else None
    return timeline.Timeline(policy), log


def _flush_telemetry(
    args: argparse.Namespace, run: Run, tl: Timeline, log: EventLog | None
) -> SloReport | None:
    """Close the telemetry plane at stream end and record its outputs.

    Flushes the partial timeline window, evaluates the SLO spec, rewrites
    the final heartbeat so ``status.json`` reflects the flushed state,
    exports the timeline JSONL and closes the event log.
    """
    from ..obs import slo

    tl.flush()
    report = None
    if run.telemetry.slo_spec is not None:
        report = slo.evaluate_slos(run.telemetry.slo_spec, tl.windows())
        run.manifest.record_slo(report.to_dict())
    if run.telemetry.status_path:
        run.engine.heartbeat()
        run.manifest.add_output(run.telemetry.status_path)
    if args.timeline_out:
        tl.export_jsonl(args.timeline_out)
        run.manifest.add_output(args.timeline_out)
    if log is not None:
        log.close()
        if log.path.exists():
            run.manifest.add_output(log.path)
    return report
