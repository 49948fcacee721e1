"""Command-line interface: simulate, report, train, score, audit, inject, obs.

Wraps the library's main workflows for shell use::

    repro-ssd simulate --out fleet/ --drives 300 --days 1460 --seed 7
    repro-ssd simulate --out fleet/ --resume          # continue a killed run
    repro-ssd simulate --out fleet/ --trace --quiet   # full spans, 1-line output
    repro-ssd report   --trace fleet/
    repro-ssd audit    --trace fleet/ --deep          # telemetry validation
    repro-ssd inject   --trace fleet/ --out dirty/ --faults value_spikes
    repro-ssd train    --trace fleet/ --model model.pkl --lookahead 3
    repro-ssd score    --trace fleet/ --model model.pkl --top 10
    repro-ssd obs show fleet/run_manifest.json
    repro-ssd obs diff fleet_a/run_manifest.json fleet_b/run_manifest.json
    repro-ssd serve publish --model model.pkl --registry reg/ --activate
    repro-ssd serve replay  --trace fleet/ --registry reg/   # parity gate
    repro-ssd serve bench   --drives 40 --days 365 --json-out BENCH_serve.json
    repro-ssd serve run     --registry reg/ --dlq dlq.jsonl < events.jsonl
    repro-ssd serve heal    --registry reg/ --journal j.jsonl --dlq dlq.jsonl
    repro-ssd serve status  status.json               # exit 0/1/2 health gate
    repro-ssd obs tail events.jsonl --level warn      # structured event log
    repro-ssd obs slo --spec slo.json --timeline tl.jsonl   # SLO CI gate
    repro-ssd obs bench-diff BENCH_base.json BENCH_new.json

A "trace directory" holds the three NPZ files written by ``simulate``:
``records.npz``, ``drives.npz``, ``swaps.npz``.

Every ``simulate``/``train``/``score`` run executes under an active span
tracer + metrics registry (:mod:`repro.obs`) and writes a **run
manifest** next to its artifacts — config digest, RNG seeds, input and
output file sha256s, per-stage timings with rows in/out, and
validation/quarantine tallies.  ``--metrics-out`` additionally dumps the
metrics registry in Prometheus text format; ``obs show``/``obs diff``
inspect and compare manifests.

Exit codes: 0 success; 1 a requested analysis/validation found failures
(for ``obs diff``: the runs are not comparable); 2 the trace, model, or
manifest is missing, corrupt, or rejected by the ``strict`` policy (also
bad configuration and worker crashes); 3 a run under ``--on-poison
quarantine`` completed its healthy work but quarantined poison tasks;
130 the run was interrupted (SIGINT/SIGTERM) after draining in-flight
tasks — ``simulate --resume`` continues from the last checkpoint.  See
DESIGN.md §12 for the full table.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import pickle
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ReproError
from .obs import metrics as obs_metrics
from .obs import tracing as obs_tracing
from .obs.durable import atomic_write
from .resilience.shutdown import EXIT_INTERRUPTED, ShutdownRequested, graceful_shutdown

if TYPE_CHECKING:
    from .core import FailurePredictor
    from .fleet import RiskPolicy
    from .obs import RunManifest
    from .obs import eventlog as obs_eventlog
    from .obs import slo as obs_slo
    from .obs import timeline as obs_timeline
    from .reliability import RepairResult
    from .resilience import SupervisionLog, SupervisorPolicy
    from .serve import LoadProfile, ScoringEngine, TelemetryConfig
    from .simulator import FleetTrace

__all__ = ["main", "build_parser", "add_execution_args", "CLIError"]


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
    from .parallel import ENV_WORKERS

    group = parser.add_argument_group("execution")
    group.add_argument(
        "--workers",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the parallelizable stages "
        f"(default: ${ENV_WORKERS} or 1; results are byte-identical "
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


def _telemetry_setup(
    args: argparse.Namespace,
) -> tuple[
    TelemetryConfig | None,
    "obs_timeline.Timeline | None",
    "obs_eventlog.EventLog | None",
]:
    """Build the telemetry pieces from the flag group (all-or-nothing).

    Returns ``(config, timeline, event_log)`` — all ``None`` when no
    telemetry flag was given, so the serving path stays untouched.
    """
    from .obs import eventlog as obs_eventlog
    from .obs import slo as obs_slo
    from .obs import timeline as obs_timeline
    from .serve import TelemetryConfig

    enabled = bool(
        args.status_out or args.timeline_out or args.eventlog or args.slo_spec
    )
    if not enabled:
        return None, None, None
    spec = None
    if args.slo_spec:
        try:
            spec = obs_slo.load_slo_spec(args.slo_spec)
        except (OSError, ValueError) as exc:
            raise CLIError(f"bad SLO spec: {exc}") from None
    try:
        policy = obs_timeline.TickPolicy(every_events=args.tick_every)
        config = TelemetryConfig(
            status_path=args.status_out,
            heartbeat_every=args.status_every,
            slo_spec=spec,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    timeline = obs_timeline.Timeline(policy)
    event_log = obs_eventlog.EventLog(args.eventlog) if args.eventlog else None
    return config, timeline, event_log


@contextlib.contextmanager
def _activate_telemetry(timeline, event_log):
    """Activate the optional timeline/event-log pair for the block."""
    from .obs import eventlog as obs_eventlog
    from .obs import timeline as obs_timeline

    with contextlib.ExitStack() as stack:
        if timeline is not None:
            stack.enter_context(obs_timeline.activate(timeline))
        if event_log is not None:
            stack.enter_context(obs_eventlog.activate(event_log))
        yield


def _finish_telemetry(
    args: argparse.Namespace,
    manifest: RunManifest,
    engine: ScoringEngine,
    timeline,
    event_log,
) -> "obs_slo.SloReport | None":
    """Flush/export the telemetry plane and record the SLO verdict.

    Runs after the stream ends but before the manifest is finalized:
    flushes the partial timeline window, rewrites the final heartbeat so
    ``status.json`` reflects the flushed state, exports the timeline
    JSONL, evaluates the SLO spec, and closes the event log.
    """
    from .obs import slo as obs_slo

    if timeline is None:
        return None
    timeline.flush()
    report = None
    spec = engine.telemetry.slo_spec if engine.telemetry else None
    if spec is not None:
        report = obs_slo.evaluate_slos(spec, timeline.windows())
        manifest.record_slo(report.to_dict())
    if engine.telemetry is not None and engine.telemetry.status_path:
        engine.heartbeat()
        manifest.add_output(engine.telemetry.status_path)
    if args.timeline_out:
        timeline.export_jsonl(args.timeline_out)
        manifest.add_output(args.timeline_out)
    if event_log is not None:
        event_log.close()
        if event_log.path.exists():
            manifest.add_output(event_log.path)
    return report


def _workers_arg(args: argparse.Namespace) -> int:
    """Resolve ``--workers``/``$REPRO_WORKERS`` to a worker count."""
    from .parallel import resolve_workers

    try:
        return resolve_workers(getattr(args, "workers", None))
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def _policy_arg(args: argparse.Namespace) -> SupervisorPolicy:
    """Build the supervision policy from the resilience flag group."""
    from .resilience import SupervisorPolicy

    try:
        return SupervisorPolicy(
            task_timeout=getattr(args, "task_timeout", None),
            max_retries=getattr(args, "max_retries", 2),
            on_poison=getattr(args, "on_poison", "fail"),
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def _record_supervision(
    manifest: RunManifest, supervision: SupervisionLog
) -> None:
    """Fold supervision events into the manifest (only when any fired)."""
    if supervision.events:
        manifest.record_resilience(supervision.to_dict())


def _chunk_timings(tracer: obs_tracing.Tracer) -> list[dict]:
    """Per-chunk/shard wall times harvested from the simulator spans."""
    timings = []
    for sp in tracer.finished():
        if sp.name != "repro.simulator.chunk":
            continue
        timings.append(
            {
                "chunk": sp.attrs.get("chunk"),
                "n_drives": sp.attrs.get("n_drives"),
                "cached": bool(sp.attrs.get("cached", False)),
                "seconds": round(sp.duration or 0.0, 6),
            }
        )
    return sorted(timings, key=lambda t: (t["chunk"] is None, t["chunk"]))


def _require_trace_dir(path: Path) -> Path:
    if not path.is_dir():
        raise CLIError(
            f"trace directory {path} does not exist or is not a directory "
            "(create one with `repro-ssd simulate --out ...`)"
        )
    return path


def _records_path(trace_dir: Path) -> Path:
    """The preferred records artifact of a trace directory.

    A packed columnar store (``records.cst``, written by ``repro-ssd
    pack``) wins over ``records.npz`` when both exist: replay streams it
    zero-copy instead of inflating zip entries.  Both hold bit-identical
    logical columns, so every consumer is free to take either.
    """
    cst = trace_dir / "records.cst"
    if cst.exists():
        return cst
    return trace_dir / "records.npz"


def _load_trace(
    path: Path, policy: str | None = None
) -> tuple[FleetTrace, RepairResult | None]:
    """Load a trace directory; returns the trace plus the repair outcome
    (``None`` when no load policy ran), so callers can fold validation
    and quarantine tallies into their run manifest."""
    from .data import (
        load_dataset_checked,
        load_dataset_npz,
        load_drivetable_npz,
        load_swaplog_npz,
    )
    from .simulator import FleetConfig, FleetTrace

    _require_trace_dir(path)
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


# --------------------------------------------------------------------------
# observability wiring (manifests, metrics export)
# --------------------------------------------------------------------------

#: Default manifest filename written into a simulate output directory.
RUN_MANIFEST = "run_manifest.json"


def _record_repair(manifest: RunManifest, repair: RepairResult | None) -> None:
    if repair is None:
        return
    manifest.record_validation(
        n_errors=repair.report.n_errors,
        n_warnings=repair.report.n_warnings,
        n_quarantined=repair.n_quarantined,
        n_repair_actions=len(repair.actions),
    )


def _trace_inputs(manifest: RunManifest, trace_dir: Path) -> None:
    for name in ("records.npz", "drives.npz", "swaps.npz"):
        if (trace_dir / name).exists():
            manifest.add_input(trace_dir / name)


def _finish_obs(
    args: argparse.Namespace,
    manifest: RunManifest,
    tracer: obs_tracing.Tracer,
    registry: obs_metrics.MetricsRegistry,
    default_path: Path,
) -> Path | None:
    """Finalize + write the manifest and optional Prometheus dump.

    Returns the manifest path (``None`` with ``--no-manifest``).
    """
    include_spans = bool(getattr(args, "trace_spans", False))
    manifest.finish(tracer, registry, include_spans=include_spans)
    path: Path | None = None
    if not getattr(args, "no_manifest", False):
        out = getattr(args, "manifest_out", None)
        path = Path(out) if out else default_path
        manifest.write(path)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        with atomic_write(metrics_out, "w") as fh:
            fh.write(registry.render_prometheus())
    return path


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .data import save_dataset_npz, save_drivetable_npz, save_swaplog_npz
    from .obs import RunManifest
    from .reliability import CheckpointStore, simulate_fleet_resumable
    from .resilience import QuarantinedRunError, SupervisionLog
    from .simulator import FleetConfig, default_models

    config = FleetConfig(
        n_drives_per_model=args.drives,
        horizon_days=args.days,
        deploy_spread_days=args.deploy_spread,
        seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workers = _workers_arg(args)
    quiet = args.quiet
    if not quiet:
        suffix = f" ({workers} workers)" if workers > 1 else ""
        print(f"Simulating fleet: {config}{suffix} ...")

    def progress(done: int, total: int) -> None:
        print(f"  checkpoint {done}/{total}", flush=True)

    manifest = RunManifest(
        command="simulate",
        config={
            "fleet": asdict(config),
            "models": [asdict(m) for m in default_models()],
            "checkpoint_every": args.checkpoint_every,
        },
        seeds={"seed": args.seed},
    )
    tracer = obs_tracing.Tracer()
    registry = obs_metrics.MetricsRegistry()
    ckpt_dir = out / ".checkpoints"
    policy = _policy_arg(args)
    supervision = SupervisionLog()
    quarantined: QuarantinedRunError | None = None
    with obs_tracing.activate(tracer), obs_metrics.activate(registry):
        try:
            trace = simulate_fleet_resumable(
                config,
                checkpoint_dir=ckpt_dir,
                chunk_size=args.checkpoint_every,
                resume=args.resume,
                progress=progress if (args.verbose and not quiet) else None,
                workers=workers,
                policy=policy,
                supervision=supervision,
            )
        except QuarantinedRunError as exc:
            quarantined = exc
        else:
            save_dataset_npz(trace.records, out / "records.npz")
            save_drivetable_npz(trace.drives, out / "drives.npz")
            save_swaplog_npz(trace.swaps, out / "swaps.npz")
    # Recorded under results, not config: the worker count must not feed
    # the config digest — same-seed serial and parallel runs are meant to
    # `obs diff` clean against each other.
    manifest.results["workers"] = workers
    manifest.results["chunk_timings"] = _chunk_timings(tracer)
    _record_supervision(manifest, supervision)
    if quarantined is not None:
        # Healthy chunks are checkpointed; keep them (no cleanup) so a
        # --resume after fixing the fault only redoes the poison ones.
        manifest.counts = {
            "chunks_completed": quarantined.completed,
            "chunks_total": quarantined.total,
        }
        manifest_path = _finish_obs(
            args, manifest, tracer, registry, out / RUN_MANIFEST
        )
        print(f"error: {quarantined}", file=sys.stderr)
        print(
            f"simulate quarantined: {len(supervision.quarantined)} poison "
            f"chunk(s), {quarantined.completed}/{quarantined.total} chunks "
            "checkpointed"
            + (f", manifest {manifest_path}" if manifest_path else "")
        )
        return EXIT_QUARANTINE
    CheckpointStore(directory=ckpt_dir, digest="", n_chunks=0).cleanup()
    for name in ("records.npz", "drives.npz", "swaps.npz"):
        manifest.add_output(out / name)
    manifest.counts = {
        "drives": len(trace.drives),
        "records": len(trace.records),
        "swaps": len(trace.swaps),
        "days": config.horizon_days,
    }
    manifest_path = _finish_obs(args, manifest, tracer, registry, out / RUN_MANIFEST)
    if not quiet:
        print(trace.summary())
        print(f"Wrote {out}/records.npz, drives.npz, swaps.npz")
        if supervision.events:
            print(supervision.summary())
    # The one-line summary (always printed, the only success output in
    # --quiet mode) is sourced from the manifest, not recomputed.
    print(
        f"simulate ok: {manifest.counts['drives']} drives, "
        f"{manifest.counts['days']} days, {manifest.counts['swaps']} swaps, "
        f"{manifest.elapsed_seconds:.1f}s elapsed"
        + (f", manifest {manifest_path}" if manifest_path else "")
    )
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    from .data import load_dataset_npz, save_dataset_store

    trace_dir = _require_trace_dir(Path(args.trace))
    npz_path = trace_dir / "records.npz"
    if not npz_path.exists():
        raise CLIError(f"{npz_path} does not exist; nothing to pack")
    cst_path = trace_dir / "records.cst"
    records = load_dataset_npz(npz_path)
    save_dataset_store(records, cst_path)
    # Prove the pack before advertising it: the store must read back
    # bit-identical to the NPZ it came from.
    verify = load_dataset_npz(cst_path)
    for name in records.column_names:
        a, b = records[name], verify[name]
        if a.dtype != b.dtype or not np.array_equal(a, b):
            cst_path.unlink()
            raise CLIError(f"pack verification failed on column {name!r}")
    npz_mb = npz_path.stat().st_size / 1e6
    cst_mb = cst_path.stat().st_size / 1e6
    print(
        f"pack ok: {cst_path} ({cst_mb:.1f} MB, mmap) from {npz_path} "
        f"({npz_mb:.1f} MB, zip); replay now streams the store zero-copy"
    )
    return 0


def _cmd_bench_sim(args: argparse.Namespace) -> int:
    from .simulator import FleetConfig, simulate_fleet

    workers = _workers_arg(args)
    config = FleetConfig(
        n_drives_per_model=args.drives,
        horizon_days=args.days,
        deploy_spread_days=max(min(args.days // 2, 700), 1),
        seed=args.seed,
    )
    # Warm runs pay the one-time costs (imports, allocator growth) so the
    # timed run measures steady-state throughput like the pytest benches.
    for _ in range(max(args.warmups, 0)):
        simulate_fleet(config, workers=workers)
    t0 = time.perf_counter()
    trace = simulate_fleet(config, workers=workers)
    elapsed = time.perf_counter() - t0
    n_events = len(trace.records)
    payload = {
        "n_events": n_events,
        "n_drives": int(trace.records.n_drives()),
        "elapsed_seconds": round(elapsed, 4),
        "events_per_second": round(n_events / elapsed, 1),
        "workers": workers,
        "drives": args.drives,
        "days": args.days,
        "seed": args.seed,
    }
    if args.json_out:
        with atomic_write(args.json_out, "w") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
    print(
        f"bench sim: {payload['events_per_second']:,.0f} drive-day events/s "
        f"over {n_events} events ({payload['n_drives']} drives, "
        f"workers={workers}, {elapsed:.3f}s)"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis import figure6, table1, table3, table4, table5

    trace, _ = _load_trace(Path(args.trace), policy=args.policy)
    print(trace.summary())
    print("\n=== Error incidence (Table 1) ===")
    print(table1(trace).render())
    print("\n=== Failure incidence (Table 3) ===")
    print(table3(trace).render())
    print("\n=== Repeat failures (Table 4) ===")
    print(table4(trace).render())
    print("\n=== Repair pipeline (Table 5) ===")
    print(table5(trace).render())
    print("\n=== Infant mortality (Figure 6) ===")
    print(figure6(trace).render())
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from .analysis import check_observations
    from .data import load_drivetable_npz, load_swaplog_npz
    from .reliability import validate_trace

    trace_dir = _require_trace_dir(Path(args.trace))
    deep_ok = True
    if args.deep:
        from .data import load_raw_columns_npz

        cols = load_raw_columns_npz(trace_dir / "records.npz")
        drives = load_drivetable_npz(trace_dir / "drives.npz")
        swaps = load_swaplog_npz(trace_dir / "swaps.npz")
        validation = validate_trace(
            cols, drives, swaps, max_gap_days=args.max_gap_days
        )
        print("=== Telemetry validation (audit --deep) ===")
        print(validation.render())
        print()
        deep_ok = validation.ok
        if not deep_ok:
            print("Trace failed telemetry validation; skipping observation "
                  "checks (repair the trace or reload with --policy repair).")
            return 1
    trace, _ = _load_trace(Path(args.trace))
    report = check_observations(trace, include_ml=args.ml, seed=args.seed)
    print(report.render())
    return 0 if (report.all_hold and deep_ok) else 1


def _cmd_train(args: argparse.Namespace) -> int:
    from .core import FailurePredictor
    from .obs import RunManifest
    from .resilience import SupervisionLog

    workers = _workers_arg(args)
    manifest = RunManifest(
        command="train",
        config={
            "lookahead": args.lookahead,
            "age_partitioned": args.age_partitioned,
            "cv": args.cv,
            "policy": args.policy,
        },
        seeds={"seed": args.seed},
    )
    tracer = obs_tracing.Tracer()
    registry = obs_metrics.MetricsRegistry()
    policy = _policy_arg(args)
    supervision = SupervisionLog()
    with obs_tracing.activate(tracer), obs_metrics.activate(registry):
        trace, repair = _load_trace(Path(args.trace), policy=args.policy)
        _trace_inputs(manifest, Path(args.trace))
        _record_repair(manifest, repair)
        predictor = FailurePredictor(
            lookahead=args.lookahead,
            age_partitioned=args.age_partitioned,
            seed=args.seed,
        )
        print(f"Training (lookahead={args.lookahead}d"
              f"{', age-partitioned' if args.age_partitioned else ''}) ...")
        if args.cv:
            result = predictor.cross_validate(
                trace,
                n_splits=args.cv,
                workers=workers,
                policy=policy,
                supervision=supervision,
            )
            print(
                f"Cross-validated ROC AUC: "
                f"{result.mean_auc:.3f} ± {result.std_auc:.3f}"
            )
            manifest.results["cv_mean_auc"] = result.mean_auc
            manifest.results["cv_std_auc"] = result.std_auc
            if supervision.quarantined:
                print(
                    f"warning: {len(supervision.quarantined)} CV fold(s) "
                    "quarantined and excluded from the aggregate",
                    file=sys.stderr,
                )
        predictor.fit(trace)
        with atomic_write(args.model, "wb") as fh:
            pickle.dump(predictor, fh)
    manifest.add_output(args.model)
    manifest.counts = {
        "drives": len(trace.drives),
        "records": len(trace.records),
        "swaps": len(trace.swaps),
    }
    manifest.results["workers"] = workers
    _record_supervision(manifest, supervision)
    default_path = Path(str(args.model) + ".manifest.json")
    manifest_path = _finish_obs(args, manifest, tracer, registry, default_path)
    print(f"Wrote model to {args.model}"
          + (f" (manifest {manifest_path})" if manifest_path else ""))
    return 0


def _load_predictor(model_path: Path) -> FailurePredictor:
    """Unpickle a trained predictor from a ``train`` output file."""
    from .core import FailurePredictor

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


def _cmd_score(args: argparse.Namespace) -> int:
    from .data import load_dataset_checked, load_dataset_npz
    from .obs import RunManifest
    from .resilience import SupervisionLog

    workers = _workers_arg(args)
    model_path = Path(args.model)
    predictor = _load_predictor(model_path)
    trace_dir = _require_trace_dir(Path(args.trace))
    manifest = RunManifest(
        command="score",
        config={
            "top": args.top,
            "threshold": args.threshold,
            "policy": args.policy,
            "lookahead": predictor.lookahead,
        },
        seeds={"seed": predictor.seed},
    )
    manifest.add_input(model_path)
    tracer = obs_tracing.Tracer()
    registry = obs_metrics.MetricsRegistry()
    policy = _policy_arg(args)
    supervision = SupervisionLog()
    with obs_tracing.activate(tracer), obs_metrics.activate(registry):
        if args.policy and args.policy != "off":
            result = load_dataset_checked(
                trace_dir / "records.npz", policy=args.policy
            )
            records = result.dataset
            _record_repair(manifest, result)
        else:
            records = load_dataset_npz(trace_dir / "records.npz")
        manifest.add_input(trace_dir / "records.npz")
        full_report = predictor.risk_report(
            records, workers=workers, policy=policy, supervision=supervision
        )
        report = full_report.top(args.top)
    print(f"{'drive':>8s} {'age (d)':>8s} {'P(fail <= %dd)' % predictor.lookahead:>16s}")
    for did, age, p in zip(report.drive_id, report.age_days, report.probability):
        print(f"{did:>8d} {age:>8d} {p:>16.3f}")
    if args.threshold is not None:
        flagged = full_report.flagged(args.threshold)
        print(f"\n{len(flagged)} drive(s) above alpha={args.threshold}: "
              f"{np.sort(flagged).tolist()}")
        manifest.results["n_flagged"] = int(len(flagged))
    manifest.counts = {"records": len(records)}
    manifest.results["workers"] = workers
    _record_supervision(manifest, supervision)
    default_path = Path(str(args.model) + ".score-manifest.json")
    _finish_obs(args, manifest, tracer, registry, default_path)
    return 0


# --------------------------------------------------------------------------
# serve: online scoring service
# --------------------------------------------------------------------------


def _serve_predictor(
    args: argparse.Namespace,
) -> tuple[FailurePredictor, Path, str]:
    """Resolve the served model from ``--model`` or ``--registry``.

    Returns the predictor, the artifact path (for manifest inputs), and
    a short human-readable description of where it came from.
    """
    from .serve import ModelRegistry

    if args.model:
        path = Path(args.model)
        return _load_predictor(path), path, f"model {path}"
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


def _add_model_source(parser: argparse.ArgumentParser) -> None:
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


def _score_jsonl_line(event) -> str:
    body = {
        "drive_id": event.drive_id,
        "age_days": event.age_days,
        "probability": event.probability,
    }
    if getattr(event, "stale", False):
        body["stale"] = True
        body["staleness_days"] = event.staleness_days
    return json.dumps(body)


def _serve_summary(engine: ScoringEngine, dlq_path, journal_path) -> dict:
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


def _cmd_serve_publish(args: argparse.Namespace) -> int:
    from .obs import RunManifest
    from .serve import ModelRegistry

    predictor = _load_predictor(Path(args.model))
    registry = ModelRegistry(args.registry)
    manifest = RunManifest(
        command="serve.publish",
        config={"activate": args.activate},
        seeds={"seed": predictor.seed},
    )
    manifest.add_input(Path(args.model))
    tracer = obs_tracing.Tracer()
    metrics_registry = obs_metrics.MetricsRegistry()
    with obs_tracing.activate(tracer), obs_metrics.activate(metrics_registry):
        version = registry.publish(
            predictor,
            training_manifest=args.training_manifest,
            activate=args.activate,
        )
    vdir = registry.versions_dir / version
    manifest.add_output(vdir / "model.pkl")
    manifest.add_output(vdir / "meta.json")
    manifest.results["version"] = version
    manifest.results["active"] = registry.active_version()
    _finish_obs(
        args,
        manifest,
        tracer,
        metrics_registry,
        registry.root / "publish_manifest.json",
    )
    state = "active" if registry.active_version() == version else "published"
    print(f"serve publish ok: {version} ({state}) in {registry.root}")
    return 0


def _cmd_serve_replay(args: argparse.Namespace) -> int:
    from .data import iter_drive_days, load_dataset_npz
    from .obs import RunManifest
    from .resilience import (
        SupervisionLog,
        chaos_telemetry_events,
        telemetry_spec_from_env,
    )
    from .serve import (
        AdmissionGuard,
        DeadLetterQueue,
        EventJournal,
        FeatureStore,
        ReplayResult,
        ScoringEngine,
        ServeBreaker,
        latest_snapshot,
    )

    workers = _workers_arg(args)
    predictor, model_path, model_desc = _serve_predictor(args)
    trace_dir = _require_trace_dir(Path(args.trace))
    records_path = _records_path(trace_dir)
    manifest = RunManifest(
        command="serve.replay",
        config={
            "chunk_rows": args.chunk_rows,
            "lookahead": predictor.lookahead,
        },
        seeds={"seed": predictor.seed},
    )
    manifest.add_input(records_path)
    manifest.add_input(model_path)
    tracer = obs_tracing.Tracer()
    metrics_registry = obs_metrics.MetricsRegistry()
    policy = _policy_arg(args)
    supervision = SupervisionLog()
    telem_spec, chaos_seed = telemetry_spec_from_env()
    telemetry, timeline, event_log = _telemetry_setup(args)
    scored_events = None
    with (
        obs_tracing.activate(tracer),
        obs_metrics.activate(metrics_registry),
        _activate_telemetry(timeline, event_log),
    ):
        # Opened under the active event log, so a torn-tail repair
        # (log.tail_repaired) lands in --eventlog.
        dlq = DeadLetterQueue(args.dlq) if args.dlq else None
        journal = EventJournal(args.journal) if args.journal else None
        guarded = bool(dlq or journal or telem_spec)
        if args.restore:
            # A rotated snapshot base (--snapshot-keep) resolves to its
            # newest on-disk generation; an exact file wins as before.
            resolved = latest_snapshot(Path(args.restore)) or args.restore
            store = FeatureStore.restore(resolved)
        else:
            store = FeatureStore()
        start_row = store.events_total
        guard = (
            AdmissionGuard(
                store, dlq=dlq, journal=journal, breaker=ServeBreaker()
            )
            if guarded
            else None
        )
        engine = ScoringEngine(
            predictor,
            store=store,
            workers=workers,
            policy=policy,
            supervision=supervision,
            guard=guard,
            telemetry=telemetry,
        )
        if telem_spec:
            # Chaos drill: perturb the event stream (pure function of
            # the chaos seed) and route every arrival through the
            # admission guard one at a time.
            if start_row:
                raise CLIError(
                    "--restore cannot be combined with telemetry chaos "
                    "(the fault plan is indexed from event 0)"
                )
            print(
                "serve replay: telemetry chaos active "
                f"({', '.join(f'{m}={r}' for m, r in telem_spec)}, "
                f"seed {chaos_seed}) — event-wise guarded replay",
                file=sys.stderr,
            )
            events = chaos_telemetry_events(
                iter_drive_days(records_path, chunk_rows=args.chunk_rows),
                telem_spec,
                chaos_seed,
            )
            t0 = time.perf_counter()
            scored_events = list(engine.score_stream(events))
            stats = guard.stats
            result = ReplayResult(
                probability=np.asarray(
                    [ev.probability for ev in scored_events]
                ),
                n_events=stats.admitted,
                n_batches=engine.batches_total,
                elapsed_seconds=time.perf_counter() - t0,
                n_diverted=stats.dead_lettered,
                n_duplicates=stats.duplicates_dropped,
            )
            if args.snapshot:
                store.snapshot(args.snapshot)
        else:
            result = engine.replay(
                records_path,
                chunk_rows=args.chunk_rows,
                start_row=start_row,
                snapshot_every=args.snapshot_every,
                snapshot_path=args.snapshot,
                snapshot_keep=args.snapshot_keep,
            )
        # The parity gate: the offline batch pipeline over the same
        # records must reproduce the streamed scores bit-for-bit.
        records = load_dataset_npz(records_path)
        check_parity = (
            not args.no_parity
            and not telem_spec
            and result.n_diverted == 0
            and result.n_duplicates == 0
        )
        if check_parity:
            offline = predictor.predict_proba_records(
                records, workers=workers, policy=policy, supervision=supervision
            )[start_row:]
            diverged = int(
                np.count_nonzero(result.probability != offline)
                if len(result.probability) == len(offline)
                else max(len(result.probability), len(offline))
            )
        else:
            offline = None
            diverged = 0
        slo_report = _finish_telemetry(args, manifest, engine, timeline, event_log)
    if dlq is not None:
        dlq.close()
    if journal is not None:
        journal.close()
    if args.out:
        with atomic_write(args.out, "w") as fh:
            if scored_events is not None:
                for ev in scored_events:
                    fh.write(_score_jsonl_line(ev) + "\n")
            else:
                ids = np.asarray(records["drive_id"])[start_row:]
                ages = np.asarray(records["age_days"])[start_row:]
                if result.accepted_index is not None:
                    # Guarded replay: the guard may have diverted or
                    # deduped rows, so probabilities cover accepted
                    # events only — select their source rows.
                    ids = ids[result.accepted_index]
                    ages = ages[result.accepted_index]
                for did, age, p in zip(
                    ids, ages, result.probability, strict=True
                ):
                    fh.write(
                        json.dumps(
                            {
                                "drive_id": int(did),
                                "age_days": int(age),
                                "probability": float(p),
                            }
                        )
                        + "\n"
                    )
        manifest.add_output(args.out)
    manifest.counts = {
        "events": result.n_events,
        "batches": result.n_batches,
        "drives": store.n_drives,
        "skipped": start_row,
        "diverted": result.n_diverted,
        "duplicates": result.n_duplicates,
    }
    manifest.results["workers"] = workers
    manifest.results["events_per_second"] = round(result.events_per_second, 1)
    manifest.results["diverged"] = diverged
    manifest.results["parity_checked"] = check_parity
    if guarded:
        manifest.record_serve(_serve_summary(engine, args.dlq, args.journal))
        if args.dlq and Path(args.dlq).exists():
            manifest.add_output(args.dlq)
        if args.journal and Path(args.journal).exists():
            manifest.add_output(args.journal)
    _record_supervision(manifest, supervision)
    manifest_path = _finish_obs(
        args,
        manifest,
        tracer,
        metrics_registry,
        trace_dir / "serve_replay_manifest.json",
    )
    suffix = f", manifest {manifest_path}" if manifest_path else ""
    resumed = f" (resumed past {start_row})" if start_row else ""
    if slo_report is not None:
        bad = sum(1 for r in slo_report.objectives if r.state != "ok")
        print(
            f"serve replay: slo {slo_report.state} "
            f"({len(slo_report.objectives)} objective(s), {bad} violating)",
            file=sys.stderr,
        )
    if diverged:
        print(
            f"serve replay DIVERGED: {diverged}/{len(offline)} event(s) "
            f"differ from the offline pipeline ({model_desc}){suffix}",
            file=sys.stderr,
        )
        return 1
    if not check_parity:
        faults = (
            f", {result.n_diverted} diverted / {result.n_duplicates} "
            "duplicate(s)"
            if guarded
            else ""
        )
        print(
            f"serve replay: {result.n_events} event(s) scored{faults}, "
            f"{result.events_per_second:,.0f} ev/s, {store.n_drives} drives "
            f"({model_desc}; parity not checked){suffix}"
        )
        return 0
    print(
        f"serve replay ok: {result.n_events} events{resumed} scored online "
        f"match offline bit-for-bit, {result.events_per_second:,.0f} ev/s, "
        f"{store.n_drives} drives ({model_desc}){suffix}"
    )
    return 0


def _load_profile_arg(args: argparse.Namespace) -> LoadProfile:
    """Build the seeded arrival process from the bench flag group."""
    from .serve import Distribution, LoadProfile, RVConfig

    try:
        return LoadProfile(
            RVConfig(
                mean=args.arrival_mean,
                distribution=Distribution(args.arrival),
                variance=args.arrival_variance,
            ),
            seed=args.seed if args.arrival_seed is None else args.arrival_seed,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def _cmd_serve_shard(args: argparse.Namespace) -> int:
    from .data import load_dataset_npz
    from .obs import RunManifest
    from .resilience import SupervisionLog
    from .serve import plane_scores, reshard_plane, run_sharded_replay

    workers = _workers_arg(args)
    if args.shards < 1:
        raise CLIError("--shards must be >= 1")
    if args.reshard_from is None and args.trace is None:
        raise CLIError("serve shard needs --trace (or --reshard-from PLANE)")
    if args.reshard_from is not None and args.out is not None:
        raise CLIError(
            "--out is only available with --trace (a reshard's source rows "
            "live in the old plane's journals, not a trace directory)"
        )
    predictor, model_path, model_desc = _serve_predictor(args)
    plane = Path(args.plane)
    manifest = RunManifest(
        command="serve.shard",
        config={
            "shards": args.shards,
            "chunk_rows": args.chunk_rows,
            "checkpoint_every": args.checkpoint_every,
            "checkpoint_keep": args.checkpoint_keep,
            "reshard_from": args.reshard_from,
            "lookahead": predictor.lookahead,
        },
        seeds={"seed": predictor.seed},
    )
    manifest.add_input(model_path)
    tracer = obs_tracing.Tracer()
    metrics_registry = obs_metrics.MetricsRegistry()
    policy = _policy_arg(args)
    supervision = SupervisionLog()
    common = dict(
        chunk_rows=args.chunk_rows,
        checkpoint_every=args.checkpoint_every,
        checkpoint_keep=args.checkpoint_keep,
        workers=workers,
        policy=policy,
        supervision=supervision,
    )
    records = None
    with obs_tracing.activate(tracer), obs_metrics.activate(metrics_registry):
        if args.reshard_from is not None:
            old_plane = Path(args.reshard_from)
            # Baseline first: the old plane's merged scores, read back
            # from its final checkpoints — the reshard identity gate.
            baseline = (
                None if args.no_parity else plane_scores(old_plane)[0]
            )
            result = reshard_plane(
                old_plane, plane, predictor, args.shards, **common
            )
            baseline_desc = f"the source plane {old_plane}"
        else:
            trace_dir = _require_trace_dir(Path(args.trace))
            records_path = _records_path(trace_dir)
            manifest.add_input(records_path)
            result = run_sharded_replay(
                predictor, records_path, args.shards, plane, **common
            )
            baseline = None
            if (
                not args.no_parity
                and result.n_diverted == 0
                and result.n_duplicates == 0
            ):
                # The offline pipeline over the same records — the
                # shard-count analogue of the `serve replay` parity gate.
                records = load_dataset_npz(records_path)
                baseline = predictor.predict_proba_records(
                    records,
                    workers=workers,
                    policy=policy,
                    supervision=supervision,
                )
            baseline_desc = f"the offline pipeline ({model_desc})"
        if baseline is not None:
            diverged = int(
                np.count_nonzero(result.probability != baseline)
                if len(result.probability) == len(baseline)
                else max(len(result.probability), len(baseline))
            )
        else:
            diverged = 0
    if args.out:
        ids = np.asarray(records["drive_id"])[result.accepted_index]
        ages = np.asarray(records["age_days"])[result.accepted_index]
        with atomic_write(args.out, "w") as fh:
            for did, age, p in zip(
                ids, ages, result.probability, strict=True
            ):
                fh.write(
                    json.dumps(
                        {
                            "drive_id": int(did),
                            "age_days": int(age),
                            "probability": float(p),
                        }
                    )
                    + "\n"
                )
        manifest.add_output(args.out)
    manifest.counts = {
        "events": result.n_events,
        "rows": result.n_rows,
        "shards": result.n_shards,
        "diverted": result.n_diverted,
        "duplicates": result.n_duplicates,
        "restored": result.n_restored,
    }
    manifest.results["workers"] = workers
    manifest.results["events_per_second"] = round(result.events_per_second, 1)
    manifest.results["diverged"] = diverged
    manifest.results["parity_checked"] = baseline is not None
    manifest.results["shards"] = result.shards
    _record_supervision(manifest, supervision)
    manifest_path = _finish_obs(
        args,
        manifest,
        tracer,
        metrics_registry,
        plane / "serve_shard_manifest.json",
    )
    suffix = f", manifest {manifest_path}" if manifest_path else ""
    healed = (
        f", {result.n_restored} shard(s) restored from checkpoint"
        if result.n_restored
        else ""
    )
    if diverged:
        print(
            f"serve shard DIVERGED: {diverged}/{len(baseline)} event(s) "
            f"differ from {baseline_desc}{suffix}",
            file=sys.stderr,
        )
        return 1
    if baseline is None:
        faults = (
            f", {result.n_diverted} diverted / {result.n_duplicates} "
            "duplicate(s)"
        )
        print(
            f"serve shard: {result.n_events} event(s) scored across "
            f"{result.n_shards} shard(s){faults}{healed}, "
            f"{result.events_per_second:,.0f} ev/s "
            f"({model_desc}; parity not checked){suffix}"
        )
        return 0
    print(
        f"serve shard ok: {result.n_events} events across "
        f"{result.n_shards} shard(s) match {baseline_desc} bit-for-bit"
        f"{healed}, {result.events_per_second:,.0f} ev/s{suffix}"
    )
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from .core import FailurePredictor
    from .data import iter_drive_days
    from .obs import RunManifest
    from .serve import BatchPolicy, ScoringEngine, run_sharded_replay
    from .simulator import FleetConfig, simulate_fleet

    workers = _workers_arg(args)
    config = FleetConfig(
        n_drives_per_model=args.drives,
        horizon_days=args.days,
        deploy_spread_days=max(min(args.days // 2, 700), 1),
        seed=args.seed,
    )
    manifest = RunManifest(
        command="serve.bench",
        config={"fleet": asdict(config), "chunk_rows": args.chunk_rows},
        seeds={"seed": args.seed},
    )
    tracer = obs_tracing.Tracer()
    metrics_registry = obs_metrics.MetricsRegistry()
    profile = _load_profile_arg(args) if args.shards else None
    with obs_tracing.activate(tracer), obs_metrics.activate(metrics_registry):
        trace = simulate_fleet(config)
        predictor = FailurePredictor(lookahead=7, seed=args.seed).fit(trace)
        if args.shards:
            # Sharded throughput: the seeded arrival process re-chunks
            # the trace into bursts and the plane absorbs them across
            # --shards supervised scorer shards.
            with tempfile.TemporaryDirectory(
                prefix="repro-serve-bench-"
            ) as tmp:
                result = run_sharded_replay(
                    predictor,
                    trace.records,
                    args.shards,
                    Path(tmp) / "plane",
                    chunk_rows=args.chunk_rows,
                    workers=workers,
                    load_profile=profile,
                )
        else:
            # Throughput: chunked ingest+score over the whole trace.
            engine = ScoringEngine(predictor, workers=workers)
            result = engine.replay(trace.records, chunk_rows=args.chunk_rows)
        offline = predictor.predict_proba_records(trace.records)
        parity = bool(np.array_equal(result.probability, offline))
        # Latency: unbatched single-event round trips on a fresh store.
        lat_engine = ScoringEngine(
            predictor, batch_policy=BatchPolicy(max_batch_size=1)
        )
        latencies = []
        sample = itertools.islice(
            iter_drive_days(trace.records), args.latency_events
        )
        for record in sample:
            t0 = time.perf_counter()
            lat_engine.submit(record)
            latencies.append(time.perf_counter() - t0)
    lat = np.sort(np.asarray(latencies))
    payload = {
        "n_events": result.n_events,
        "n_drives": int(trace.records.n_drives()),
        "elapsed_seconds": round(result.elapsed_seconds, 4),
        "events_per_second": round(result.events_per_second, 1),
        "workers": workers,
        "chunk_rows": args.chunk_rows,
        "parity": parity,
        "latency_events": len(lat),
        "latency_p50_us": round(float(np.quantile(lat, 0.50)) * 1e6, 1),
        "latency_p95_us": round(float(np.quantile(lat, 0.95)) * 1e6, 1),
        "latency_p99_us": round(float(np.quantile(lat, 0.99)) * 1e6, 1),
    }
    if args.shards:
        payload["shards"] = args.shards
        payload["arrival"] = profile.to_dict()
    if args.json_out:
        with atomic_write(args.json_out, "w") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
        manifest.add_output(args.json_out)
    manifest.counts = {"events": result.n_events}
    manifest.results.update(payload)
    if args.manifest_out:
        default_manifest = Path(args.manifest_out)
    elif args.json_out:
        default_manifest = Path(str(args.json_out) + ".manifest.json")
    else:
        args.no_manifest = True
        default_manifest = Path("serve_bench_manifest.json")
    _finish_obs(args, manifest, tracer, metrics_registry, default_manifest)
    topology = (
        f"{args.shards} shard(s), {workers} worker(s), "
        f"{profile.arrival.distribution.value} arrivals"
        if args.shards
        else f"{workers} worker(s)"
    )
    print(
        f"serve bench: {payload['events_per_second']:,.0f} ev/s over "
        f"{payload['n_events']} events ({topology}), latency "
        f"p50 {payload['latency_p50_us']:.0f}us / "
        f"p99 {payload['latency_p99_us']:.0f}us, parity "
        f"{'ok' if parity else 'DIVERGED'}"
    )
    return 0 if parity else 1


def _cmd_serve_run(args: argparse.Namespace) -> int:
    from .obs import RunManifest
    from .serve import (
        AdmissionGuard,
        BatchPolicy,
        DeadLetterQueue,
        EventJournal,
        FeatureStore,
        QueuePolicy,
        ScoringEngine,
        ServeBreaker,
        StalenessPolicy,
    )

    predictor, model_path, model_desc = _serve_predictor(args)
    try:
        batch_policy = BatchPolicy(
            max_batch_size=args.batch_size, max_wait_seconds=args.max_wait
        )
        queue_policy = QueuePolicy(
            max_depth=args.max_queue, on_full=args.overflow
        )
        staleness = (
            StalenessPolicy(max_lag_days=args.max_stale_days)
            if args.max_stale_days is not None
            else None
        )
        breaker = ServeBreaker(fault_threshold=args.fault_threshold)
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    store = (
        FeatureStore.restore(args.restore) if args.restore else FeatureStore()
    )
    manifest = RunManifest(
        command="serve.run",
        config={
            "batch_size": args.batch_size,
            "max_wait": args.max_wait,
            "max_queue": args.max_queue,
            "overflow": args.overflow,
            "max_stale_days": args.max_stale_days,
            "lookahead": predictor.lookahead,
        },
        seeds={"seed": predictor.seed},
    )
    manifest.add_input(model_path)
    tracer = obs_tracing.Tracer()
    metrics_registry = obs_metrics.MetricsRegistry()
    telemetry, timeline, event_log = _telemetry_setup(args)
    print(f"serve run: scoring stdin JSONL with {model_desc}", file=sys.stderr)
    n_lines = 0
    health = breaker.state

    def emit(line: str) -> None:
        print(line)
        sys.stdout.flush()

    def emit_health() -> None:
        # Status records ride the same stdout transport as scores; their
        # "type" key distinguishes them (score records never carry one).
        nonlocal health
        if guard.breaker.state != health:
            health = guard.breaker.state
            emit(json.dumps({"type": "status", "health": health, "line": n_lines}))

    with (
        obs_tracing.activate(tracer),
        obs_metrics.activate(metrics_registry),
        _activate_telemetry(timeline, event_log),
    ):
        # Opened under the active event log, so a torn-tail repair
        # (log.tail_repaired) lands in --eventlog.
        dlq = DeadLetterQueue(args.dlq) if args.dlq else None
        journal = EventJournal(args.journal) if args.journal else None
        guard = AdmissionGuard(store, dlq=dlq, journal=journal, breaker=breaker)
        engine = ScoringEngine(
            predictor,
            store=store,
            batch_policy=batch_policy,
            guard=guard,
            queue_policy=queue_policy,
            staleness=staleness,
            telemetry=telemetry,
        )
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            n_lines += 1
            try:
                record = json.loads(line)
            except ValueError as exc:
                guard.divert_raw(line, f"not valid JSON: {exc}")
                emit(
                    json.dumps(
                        {
                            "type": "error",
                            "line": n_lines,
                            "fault": "malformed",
                            "reason": f"not valid JSON: {exc}",
                        }
                    )
                )
                emit_health()
                continue
            flushed = engine.submit(record)
            # Dead-lettered events get a structured error record on the
            # same transport; exact duplicates are dropped silently
            # (idempotent re-delivery is not an error).
            outcome = guard.last_outcome
            if outcome is not None and outcome.fault is not None:
                body = {
                    "type": "error",
                    "line": n_lines,
                    "fault": outcome.fault,
                    "status": outcome.status,
                    "reason": outcome.reason,
                }
                if outcome.drive_id is not None:
                    body["drive_id"] = outcome.drive_id
                if outcome.age_days is not None:
                    body["age_days"] = outcome.age_days
                if outcome.watermark is not None:
                    body["watermark"] = outcome.watermark
                emit(json.dumps(body))
            for event in flushed:
                emit(_score_jsonl_line(event))
            emit_health()
        for event in engine.drain():
            emit(_score_jsonl_line(event))
        emit_health()
        slo_report = _finish_telemetry(
            args, manifest, engine, timeline, event_log
        )
    if dlq is not None:
        dlq.close()
    if journal is not None:
        journal.close()
    if args.snapshot:
        store.snapshot(args.snapshot)
        print(f"serve run: store snapshot -> {args.snapshot}", file=sys.stderr)
    stats = guard.stats
    manifest.counts = {
        "lines": n_lines,
        "scored": engine.requests_total,
        "drives": store.n_drives,
    }
    manifest.record_serve(_serve_summary(engine, args.dlq, args.journal))
    if args.dlq:
        p = Path(args.dlq)
        if p.exists():
            manifest.add_output(p)
    if args.journal:
        p = Path(args.journal)
        if p.exists():
            manifest.add_output(p)
    if not args.manifest_out:
        args.no_manifest = True
    _finish_obs(
        args, manifest, tracer, metrics_registry, Path("serve_run_manifest.json")
    )
    diverted = stats.dead_lettered
    slo_suffix = f"; slo {slo_report.state}" if slo_report is not None else ""
    print(
        f"serve run: scored {engine.requests_total} event(s) across "
        f"{store.n_drives} drive(s); {stats.duplicates_dropped} duplicate(s) "
        f"dropped, {diverted} diverted"
        + (f" (DLQ {args.dlq})" if args.dlq and diverted else "")
        + f"; health {engine.health_state}{slo_suffix}",
        file=sys.stderr,
    )
    # Exit contract: 0 every event scored (duplicates are benign), 1 some
    # events were diverted (replayable via `serve heal` when --dlq was
    # given), 2 config/usage errors (argparse/CLIError path).
    return 1 if diverted else 0


def _cmd_serve_heal(args: argparse.Namespace) -> int:
    from .data import iter_drive_days
    from .obs import RunManifest
    from .serve import (
        AdmissionGuard,
        DeadLetterQueue,
        EventJournal,
        FeatureStore,
        ScoringEngine,
        ServeBreaker,
        build_heal_plan,
    )

    predictor, model_path, model_desc = _serve_predictor(args)
    journal_events = EventJournal.read(args.journal)
    entries = DeadLetterQueue.read(args.dlq) if args.dlq else []
    refetch = None
    if args.refetch:
        trace_dir = _require_trace_dir(Path(args.refetch))
        refetch = {
            (int(rec["drive_id"]), int(rec["age_days"])): rec
            for rec in iter_drive_days(trace_dir / "records.npz")
        }
    manifest = RunManifest(
        command="serve.heal",
        config={
            "refetch": bool(args.refetch),
            "lookahead": predictor.lookahead,
        },
        seeds={"seed": predictor.seed},
    )
    manifest.add_input(args.journal)
    if args.dlq:
        manifest.add_input(args.dlq)
    manifest.add_input(model_path)
    tracer = obs_tracing.Tracer()
    metrics_registry = obs_metrics.MetricsRegistry()
    with obs_tracing.activate(tracer), obs_metrics.activate(metrics_registry):
        plan = build_heal_plan(journal_events, entries, refetch=refetch)
        # Rebuild a fresh store from the healed stream.  Every planned
        # event must admit cleanly — the plan is already deduplicated
        # and sorted into canonical trace order.
        store = FeatureStore()
        guard = AdmissionGuard(store, breaker=ServeBreaker())
        engine = ScoringEngine(predictor, store=store, guard=guard)
        scored = list(engine.score_stream(plan.events))
    rejected = guard.stats.dead_lettered + guard.stats.duplicates_dropped
    if args.out:
        with atomic_write(args.out, "w") as fh:
            for ev in scored:
                fh.write(_score_jsonl_line(ev) + "\n")
        manifest.add_output(args.out)
    if args.snapshot:
        store.snapshot(args.snapshot)
        manifest.add_output(args.snapshot)
    parity_ok = None
    if args.expect:
        if not args.out:
            raise CLIError("--expect requires --out (the files are compared)")
        parity_ok = Path(args.out).read_bytes() == Path(args.expect).read_bytes()
        manifest.results["parity"] = parity_ok
    manifest.counts = {
        "journal_events": len(journal_events),
        "dead_letters": len(entries),
        "healed": plan.n_healed,
        "events": len(plan.events),
        "duplicates_dropped": plan.duplicates_dropped,
        "conflicts_resolved": plan.conflicts_resolved,
        "unhealable": len(plan.unhealable),
        "drives": store.n_drives,
    }
    manifest.results["healed_by_fault"] = dict(
        sorted(plan.healed_by_fault.items())
    )
    manifest.record_serve(_serve_summary(engine, None, None))
    if not args.manifest_out:
        args.no_manifest = True
    _finish_obs(
        args, manifest, tracer, metrics_registry, Path("serve_heal_manifest.json")
    )
    healed = ", ".join(
        f"{k}={v}" for k, v in sorted(plan.healed_by_fault.items())
    )
    print(
        f"serve heal: {len(plan.events)} event(s) rebuilt from "
        f"{len(journal_events)} journaled + {plan.n_healed} healed"
        + (f" ({healed})" if healed else "")
        + f", {plan.duplicates_dropped} duplicate(s) dropped, "
        f"{plan.conflicts_resolved} conflict(s) resolved, "
        f"{len(plan.unhealable)} unhealable ({model_desc})",
        file=sys.stderr,
    )
    for entry in plan.unhealable[:10]:
        print(
            f"  unhealable [{entry.fault}] seq {entry.seq}: {entry.reason}",
            file=sys.stderr,
        )
    if rejected:
        print(
            f"serve heal: {rejected} planned event(s) failed re-admission "
            "(journal/DLQ inconsistent with a clean stream)",
            file=sys.stderr,
        )
        return 1
    if parity_ok is False:
        print(
            f"serve heal DIVERGED: {args.out} does not match {args.expect} "
            "byte-for-byte",
            file=sys.stderr,
        )
        return 1
    if parity_ok:
        print(
            f"serve heal: parity ok — {args.out} matches {args.expect} "
            "byte-for-byte",
            file=sys.stderr,
        )
    # Exit contract: 0 fully healed (and parity held when --expect was
    # given); 1 unhealable events remain or the healed scores diverged;
    # 2 missing/corrupt journal, DLQ, trace, or model.
    return 1 if plan.unhealable else 0


def _cmd_serve_status(args: argparse.Namespace) -> int:
    from .serve import load_status, render_sharded_status, render_status, status_exit_code

    try:
        if args.sharded:
            # A plane directory: roll every shard's heartbeat into one
            # verdict (worst shard wins the exit code).
            from .serve import plane_status

            status = plane_status(args.status_file)
        else:
            status = load_status(args.status_file)
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
    elif args.sharded:
        print(render_sharded_status(status))
    else:
        print(render_status(status))
    # Exit contract: 0 healthy, 1 degraded or SLO warning, 2 SLO breach
    # — CI can gate a chaos drill on `serve status` directly.
    return status_exit_code(status)


# --------------------------------------------------------------------------
# the fleet autopilot (score → decide → act → audit)
# --------------------------------------------------------------------------

def _fleet_policy_arg(source: str):
    from .fleet import PolicyError, load_policy

    try:
        return load_policy(source)
    except PolicyError as exc:
        raise CLIError(str(exc)) from None


def _fleet_risk_arg(args: argparse.Namespace) -> RiskPolicy:
    from .fleet import RiskPolicy

    try:
        return RiskPolicy(
            ewma_alpha=args.risk_alpha,
            stale_after_days=args.stale_after,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def add_fleet_risk_args(parser: argparse.ArgumentParser) -> None:
    """The shared EWMA risk knobs of ``fleet run``/``fleet whatif``."""
    group = parser.add_argument_group("risk scoring")
    group.add_argument(
        "--risk-alpha",
        type=float,
        default=0.3,
        metavar="A",
        help="EWMA weight of the newest score in (0, 1] (default: 0.3)",
    )
    group.add_argument(
        "--stale-after",
        type=int,
        default=7,
        metavar="DAYS",
        help="score age past which a drive's risk counts as stale "
        "(default: 7)",
    )


def _fleet_summary(policy, outcome, report=None, journal_path=None) -> dict:
    """The manifest ``fleet`` section for one policy run."""
    state = outcome.state
    body = {
        "policy_kind": policy.kind,
        "n_events": outcome.n_events,
        "n_days": outcome.n_days,
        "n_actions": outcome.n_actions,
        "n_rejected": outcome.n_rejected,
        "reverts": state.reverts_total,
        "by_action": dict(sorted(state.by_action.items())),
        "spares_used": state.spares_used,
        "cost_total": float(state.cost_total),
        "chain": outcome.chain,
        "state_digest": state.digest(),
        "health_digest": outcome.health.state_digest(),
    }
    if journal_path:
        body["journal_path"] = str(journal_path)
    if report is not None:
        body["caught"] = report.caught
        body["missed"] = report.missed
        body["false_replacements"] = report.false_replacements
        body["savings"] = float(report.savings)
    return body


def _render_whatif_table(reports: list) -> str:
    """One row per policy, aligned; the best-savings row is starred."""
    header = (
        "policy", "caught", "missed", "false", "spares",
        "at-risk-d", "quarantine-d", "cost", "savings",
    )
    rows = [header]
    best = max(range(len(reports)), key=lambda i: reports[i].savings)
    for i, r in enumerate(reports):
        name = r.policy.get("kind", "?")
        star = "*" if i == best and len(reports) > 1 else " "
        rows.append((
            f"{star}{name}[{i}]",
            str(r.caught),
            str(r.missed),
            str(r.false_replacements),
            str(r.spares_used),
            str(r.drive_days_at_risk),
            str(r.quarantine_drive_days),
            f"{r.total_cost:.1f}",
            f"{r.savings:+.1f}",
        ))
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
        for row in rows
    )


def _cmd_fleet_whatif(args: argparse.Namespace) -> int:
    from .fleet import run_whatif
    from .obs import RunManifest

    workers = _workers_arg(args)
    predictor, model_path, model_desc = _serve_predictor(args)
    policies = [_fleet_policy_arg(p) for p in args.policy]
    if args.journal_out and len(policies) > 1:
        raise CLIError(
            "--journal-out needs exactly one --policy (a journal records "
            "one policy's decisions)"
        )
    trace, _ = _load_trace(Path(args.trace))
    risk = _fleet_risk_arg(args)
    manifest = RunManifest(
        command="fleet.whatif",
        config={
            "policies": [p.spec() for p in policies],
            "at_risk_window": args.at_risk_window,
            "risk_alpha": args.risk_alpha,
            "stale_after": args.stale_after,
        },
        seeds={"seed": predictor.seed},
    )
    _trace_inputs(manifest, Path(args.trace))
    manifest.add_input(model_path)
    tracer = obs_tracing.Tracer()
    metrics_registry = obs_metrics.MetricsRegistry()
    reports = []
    with obs_tracing.activate(tracer), obs_metrics.activate(metrics_registry):
        # Score once; every policy replays the same byte-exact stream.
        probs = predictor.predict_proba_records(
            trace.records, workers=workers
        )
        for i, policy in enumerate(policies):
            report, outcome = run_whatif(
                trace,
                policy,
                probs=probs,
                journal_path=args.journal_out,
                risk=risk,
                at_risk_window=args.at_risk_window,
            )
            reports.append((report, outcome))
    best = max(range(len(reports)), key=lambda i: reports[i][0].savings)
    manifest.record_fleet(
        _fleet_summary(
            policies[best],
            reports[best][1],
            report=reports[best][0],
            journal_path=args.journal_out,
        )
    )
    manifest.counts = {
        "events": reports[0][1].n_events,
        "policies": len(policies),
        "failures": reports[0][0].n_failures,
    }
    manifest.results["workers"] = workers
    manifest.results["reports"] = [r.to_dict() for r, _ in reports]
    if args.journal_out:
        manifest.add_output(args.journal_out)
    if args.json_out:
        with atomic_write(args.json_out, "w") as fh:
            json.dump(
                [r.to_dict() for r, _ in reports],
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
        manifest.add_output(args.json_out)
    manifest_path = _finish_obs(
        args,
        manifest,
        tracer,
        metrics_registry,
        Path(args.trace) / "fleet_whatif_manifest.json",
    )
    print(
        f"fleet whatif: {len(policies)} polic"
        f"{'y' if len(policies) == 1 else 'ies'} x "
        f"{reports[0][1].n_events} scored events "
        f"({reports[0][0].n_drives} drives, "
        f"{reports[0][0].n_failures} failure(s); {model_desc})"
    )
    print(_render_whatif_table([r for r, _ in reports]))
    if manifest_path:
        print(f"manifest: {manifest_path}")
    return 0


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    from .data import iter_drive_days
    from .fleet import AuditJournal, PolicyRunner, evaluate_outcome, ground_truth
    from .obs import RunManifest
    from .resilience import chaos_telemetry_events, telemetry_spec_from_env
    from .serve import (
        AdmissionGuard,
        DeadLetterQueue,
        FeatureStore,
        ScoringEngine,
        ServeBreaker,
    )

    workers = _workers_arg(args)
    predictor, model_path, model_desc = _serve_predictor(args)
    policy = _fleet_policy_arg(args.policy)
    trace, _ = _load_trace(Path(args.trace))
    risk = _fleet_risk_arg(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    journal_path = out_dir / "audit.jsonl"
    if journal_path.exists():
        raise CLIError(
            f"{journal_path} already exists — a fleet run appends a fresh "
            "tamper-evident journal; pick a new --out or inspect the old "
            "run with `fleet audit`"
        )
    telem_spec, chaos_seed = telemetry_spec_from_env()
    manifest = RunManifest(
        command="fleet.run",
        config={
            "policy": policy.spec(),
            "chunk_rows": args.chunk_rows,
            "risk_alpha": args.risk_alpha,
            "stale_after": args.stale_after,
            "chaos": [list(pair) for pair in telem_spec],
        },
        seeds={"seed": predictor.seed, "chaos_seed": chaos_seed},
    )
    _trace_inputs(manifest, Path(args.trace))
    manifest.add_input(model_path)
    tracer = obs_tracing.Tracer()
    metrics_registry = obs_metrics.MetricsRegistry()
    telemetry, timeline, event_log = _telemetry_setup(args)
    journal = AuditJournal(journal_path)
    runner = PolicyRunner(policy, journal=journal, risk=risk)
    dlq_path = out_dir / "dlq.jsonl" if telem_spec else None
    dlq = DeadLetterQueue(dlq_path) if dlq_path else None
    try:
        with (
            obs_tracing.activate(tracer),
            obs_metrics.activate(metrics_registry),
            _activate_telemetry(timeline, event_log),
        ):
            store = FeatureStore()
            guard = (
                AdmissionGuard(store, dlq=dlq, breaker=ServeBreaker())
                if telem_spec
                else None
            )
            engine = ScoringEngine(
                predictor,
                store=store,
                workers=workers,
                guard=guard,
                telemetry=telemetry,
                on_scored=runner.feed,
            )
            if telem_spec:
                # Chaos drill: the fault plan perturbs arrivals, the
                # guard decides admission event by event, and the policy
                # decides from whatever survived — the decision-quality
                # delta is the measurement.
                print(
                    "fleet run: telemetry chaos active "
                    f"({', '.join(f'{m}={r}' for m, r in telem_spec)}, "
                    f"seed {chaos_seed}) — event-wise guarded scoring",
                    file=sys.stderr,
                )
                events = chaos_telemetry_events(
                    iter_drive_days(trace.records, chunk_rows=args.chunk_rows),
                    telem_spec,
                    chaos_seed,
                )
                for _ in engine.score_stream(events):
                    pass
            else:
                engine.replay(trace.records, chunk_rows=args.chunk_rows)
            outcome = runner.finalize()
            report = evaluate_outcome(
                outcome,
                ground_truth(trace),
                policy,
                at_risk_window=args.at_risk_window,
            )
            health_path = outcome.health.snapshot(out_dir / "health.npz")
            slo_report = _finish_telemetry(
                args, manifest, engine, timeline, event_log
            )
    finally:
        journal.close()
        if dlq is not None:
            dlq.close()
    state_path = out_dir / "state.json"
    with atomic_write(state_path, "w") as fh:
        json.dump(
            {
                "state": outcome.state.to_dict(),
                "state_digest": outcome.state.digest(),
                "chain": outcome.chain,
                "policy": policy.spec(),
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    if journal_path.exists():
        manifest.add_output(journal_path)
    manifest.add_output(health_path)
    manifest.add_output(state_path)
    manifest.record_fleet(
        _fleet_summary(
            policy, outcome, report=report, journal_path=journal_path
        )
    )
    if guard is not None:
        manifest.record_serve(_serve_summary(engine, dlq_path, None))
        if dlq_path and dlq_path.exists():
            manifest.add_output(dlq_path)
    manifest.counts = {
        "events": outcome.n_events,
        "days": outcome.n_days,
        "actions": outcome.n_actions,
        "diverted": guard.stats.dead_lettered if guard else 0,
        "duplicates": guard.stats.duplicates_dropped if guard else 0,
    }
    manifest.results["workers"] = workers
    manifest.results["report"] = report.to_dict()
    manifest_path = _finish_obs(
        args,
        manifest,
        tracer,
        metrics_registry,
        out_dir / "fleet_run_manifest.json",
    )
    if slo_report is not None:
        bad = sum(1 for r in slo_report.objectives if r.state != "ok")
        print(
            f"fleet run: slo {slo_report.state} "
            f"({len(slo_report.objectives)} objective(s), {bad} violating)",
            file=sys.stderr,
        )
    state = outcome.state
    print(
        f"fleet run ok: {outcome.n_actions} action(s) over "
        f"{outcome.n_days} day(s) ({model_desc}, policy {policy.kind}) — "
        f"{state.spares_used} spare(s), cost {state.cost_total:.1f}, "
        f"caught {report.caught}/{report.n_failures} failure(s)"
    )
    print(f"audit journal: {journal_path} (chain {outcome.chain[:12]}…)")
    if manifest_path:
        print(f"manifest: {manifest_path}")
    return 0


def _cmd_fleet_decide(args: argparse.Namespace) -> int:
    from .fleet import FleetHealth, FleetState, HealthError, replay_journal

    policy = _fleet_policy_arg(args.policy)
    try:
        health = FleetHealth.restore(args.health)
    except HealthError as exc:
        raise CLIError(str(exc)) from None
    state = FleetState()
    if args.journal:
        state = replay_journal(args.journal, state)
    day = args.day if args.day is not None else health.watermark
    view = health.view(day)
    actions = policy.decide(view, state, day)
    if args.json:
        for action in actions:
            print(json.dumps(action.to_dict(), sort_keys=True))
    else:
        print(
            f"fleet decide: day {day}, {len(view)} drive(s) tracked, "
            f"{len(actions)} action(s) proposed (policy {policy.kind})"
        )
        for action in actions:
            print(
                f"  {action.action:<10} drive {action.drive_id:>6} "
                f"risk {action.risk:.4f} cost {action.cost:>7.1f}  "
                f"{action.reason}"
            )
    return 0


def _cmd_fleet_audit(args: argparse.Namespace) -> int:
    from .fleet import journal_summary, read_journal, verify_journal

    if args.verify:
        # Exit contract: 0 verified, 1 integrity problems found, 2 the
        # journal is missing/unreadable (AuditError -> CLIError path).
        report = verify_journal(args.journal)
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        elif report.ok:
            print(
                f"fleet audit ok: {report.n_entries} entr"
                f"{'y' if report.n_entries == 1 else 'ies'} verified "
                f"(chain intact, replay legal); state digest "
                f"{report.state.digest()[:12]}…"
            )
        else:
            print(
                f"fleet audit FAILED: {len(report.problems)} problem(s) "
                f"in {report.n_entries} entries"
            )
            for problem in report.problems:
                print(f"  {problem}")
        return 0 if report.ok else 1
    entries = read_journal(args.journal)
    if args.last is not None:
        shown = entries[-args.last:]
    else:
        shown = entries
    summary = journal_summary(entries)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    by_action = ", ".join(
        f"{k}={v}" for k, v in summary["by_action"].items()
    ) or "none"
    print(
        f"fleet audit: {summary['n_entries']} entr"
        f"{'y' if summary['n_entries'] == 1 else 'ies'}, "
        f"{summary['drives_touched']} drive(s), days "
        f"{summary['first_day']}..{summary['last_day']}, "
        f"cost {summary['cost_total']:.1f}"
    )
    print(f"  actions: {by_action}; reverts: {summary['reverts']}")
    for entry in shown:
        ref = f" ref={entry.ref}" if entry.ref is not None else ""
        print(
            f"  [{entry.seq:>5}] day {entry.day:>5} {entry.kind:<6} "
            f"{entry.action:<10} drive {entry.drive_id:>6} "
            f"{entry.prev_status}->{entry.new_status} "
            f"risk {entry.risk:.4f} cost {entry.cost:>7.1f}{ref}"
        )
    return 0


def _cmd_inject(args: argparse.Namespace) -> int:
    from .reliability import FAULT_CLASSES, FaultInjector

    trace_dir = _require_trace_dir(Path(args.trace))
    classes = [c.strip() for c in args.faults.split(",") if c.strip()]
    unknown = [c for c in classes if c not in FAULT_CLASSES]
    if unknown:
        raise CLIError(
            f"unknown fault class(es) {', '.join(unknown)}; "
            f"choose from {', '.join(FAULT_CLASSES)}"
        )
    rates = {c: args.rate for c in classes} if args.rate is not None else None
    injector = FaultInjector(seed=args.seed)
    result = injector.corrupt_trace(trace_dir, Path(args.out), classes, rates)
    print(result.summary())
    print(f"Wrote corrupted trace to {args.out}")
    return 0


def _load_manifest_or_die(path: str) -> dict:
    from .obs import ManifestError, load_manifest

    try:
        return load_manifest(path)
    except ManifestError as exc:
        raise CLIError(str(exc)) from None


def _cmd_obs_show(args: argparse.Namespace) -> int:
    from .obs import render_manifest, validate_manifest

    data = _load_manifest_or_die(args.manifest)
    errors = validate_manifest(data)
    print(render_manifest(data))
    if errors:
        print("\nSchema violations:", file=sys.stderr)
        for err in errors:
            print(f"  {err}", file=sys.stderr)
        return 1
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from .obs import diff_manifests

    a = _load_manifest_or_die(args.a)
    b = _load_manifest_or_die(args.b)
    diff = diff_manifests(a, b, time_regression=args.time_regression)
    print(diff.render())
    return 0 if diff.ok else 1


def _format_event(record: dict) -> str:
    envelope = {"seq", "ts", "level", "kind", "msg", "span"}
    extras = " ".join(
        f"{k}={record[k]}" for k in sorted(record) if k not in envelope
    )
    msg = record.get("msg") or ""
    span = record.get("span")
    parts = [
        f"#{record.get('seq', '?'):>5}",
        f"{record.get('level', '?'):<5}",
        str(record.get("kind", "?")),
    ]
    if span is not None:
        parts.append(f"[span {span}]")
    if msg:
        parts.append(str(msg))
    if extras:
        parts.append(extras)
    return " ".join(parts)


def _cmd_obs_tail(args: argparse.Namespace) -> int:
    from .obs import eventlog as obs_eventlog

    try:
        events = obs_eventlog.load_events(
            args.eventlog, min_level=args.level, kind_prefix=args.kind
        )
    except FileNotFoundError:
        raise CLIError(f"event log {args.eventlog} does not exist") from None
    except (OSError, ValueError) as exc:
        raise CLIError(str(exc)) from None
    if args.last:
        events = events[-args.last :]
    for record in events:
        print(_format_event(record))
    return 0


def _cmd_obs_slo(args: argparse.Namespace) -> int:
    from .obs import slo as obs_slo
    from .obs import timeline as obs_timeline

    try:
        spec = obs_slo.load_slo_spec(args.spec)
    except FileNotFoundError:
        raise CLIError(f"SLO spec {args.spec} does not exist") from None
    except (OSError, ValueError) as exc:
        raise CLIError(f"bad SLO spec: {exc}") from None
    try:
        windows = obs_timeline.load_timeline_jsonl(args.timeline)
    except FileNotFoundError:
        raise CLIError(
            f"timeline {args.timeline} does not exist (serve replay/run "
            "export it via --timeline-out)"
        ) from None
    except (OSError, ValueError) as exc:
        raise CLIError(str(exc)) from None
    report = obs_slo.evaluate_slos(spec, windows)
    print(
        f"slo {report.state}: {len(report.objectives)} objective(s) over "
        f"{len(windows)} window(s)"
    )
    for r in report.objectives:
        last = "n/a" if r.last_value is None else f"{r.last_value:g}"
        print(
            f"  {r.state:<7s}{r.name}: {r.metric} {r.op} {r.threshold:g} "
            f"— {r.violations}/{r.windows_evaluated} window(s) violating, "
            f"burn short {r.short_fraction:.0%} / long {r.long_fraction:.0%}, "
            f"last {last}"
        )
    # Exit contract: 0 ok / 1 warn / 2 breach — `obs slo` is the CI gate.
    return report.exit_code


def _cmd_obs_bench_diff(args: argparse.Namespace) -> int:
    from .obs.reportobs import diff_bench

    payloads = []
    for path in (args.a, args.b):
        try:
            body = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise CLIError(f"bench file {path} does not exist") from None
        except (OSError, ValueError) as exc:
            raise CLIError(f"bench file {path} is unreadable: {exc}") from None
        if not isinstance(body, dict) or "events_per_second" not in body:
            raise CLIError(
                f"bench file {path} is not a `serve bench --json-out` payload"
            )
        payloads.append(body)
    diff = diff_bench(payloads[0], payloads[1], max_regression=args.max_regression)
    print(diff.render())
    return 0 if diff.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing and docs)."""
    from .obs import eventlog as obs_eventlog
    from .reliability import DEFAULT_RATES, FAULT_CLASSES
    from .serve import Distribution

    parser = argparse.ArgumentParser(
        prog="repro-ssd",
        description="SSD failure study reproduction: simulate fleets, "
        "reproduce the paper's analyses, train and run failure predictors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    policy_kwargs = dict(
        choices=("off", "strict", "repair", "quarantine"),
        default="off",
        help="telemetry repair policy applied at load time (default: off)",
    )

    p_sim = sub.add_parser("simulate", help="simulate a fleet and write NPZ files")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--drives", type=int, default=200, help="drives per model")
    p_sim.add_argument("--days", type=int, default=1460, help="trace horizon (days)")
    p_sim.add_argument("--deploy-spread", type=int, default=700)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--resume",
        action="store_true",
        help="continue from the checkpoints of a killed run with the same "
        "parameters (the result is identical to an uninterrupted run)",
    )
    p_sim.add_argument(
        "--checkpoint-every",
        type=int,
        default=64,
        metavar="DRIVES",
        help="drives per checkpointed chunk (default: 64)",
    )
    add_execution_args(p_sim)
    p_sim.add_argument("--verbose", action="store_true", help="progress lines")
    p_sim.add_argument(
        "--quiet",
        action="store_true",
        help="print only the final one-line summary",
    )
    add_obs_args(p_sim, "--trace")
    p_sim.set_defaults(func=_cmd_simulate)

    p_pack = sub.add_parser(
        "pack",
        help="pack records.npz into a mmap columnar store (records.cst)",
    )
    p_pack.add_argument("--trace", required=True, help="trace directory")
    p_pack.set_defaults(func=_cmd_pack)

    p_bench = sub.add_parser("bench", help="substrate performance benchmarks")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_bsim = bench_sub.add_parser(
        "sim", help="fleet-simulation throughput (drive-day events/s)"
    )
    p_bsim.add_argument("--drives", type=int, default=60, help="drives per model")
    p_bsim.add_argument("--days", type=int, default=730, help="trace horizon")
    p_bsim.add_argument("--seed", type=int, default=3)
    p_bsim.add_argument(
        "--warmups",
        type=int,
        default=1,
        metavar="N",
        help="untimed warm runs before the measured one (default: 1)",
    )
    p_bsim.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help="write the bench numbers as JSON (CI artifact)",
    )
    add_execution_args(p_bsim)
    p_bsim.set_defaults(func=_cmd_bench_sim)

    p_rep = sub.add_parser("report", help="characterization report of a trace")
    p_rep.add_argument("--trace", required=True, help="trace directory")
    p_rep.add_argument("--policy", **policy_kwargs)
    p_rep.set_defaults(func=_cmd_report)

    p_aud = sub.add_parser("audit", help="check the paper's Observations 1-13")
    p_aud.add_argument("--trace", required=True)
    p_aud.add_argument("--ml", action="store_true", help="include Obs 12-13 (slow)")
    p_aud.add_argument(
        "--deep",
        action="store_true",
        help="also run the telemetry schema/invariant validator",
    )
    p_aud.add_argument(
        "--max-gap-days",
        type=int,
        default=None,
        metavar="N",
        help="with --deep, also flag per-drive reporting gaps longer than N days",
    )
    p_aud.add_argument("--seed", type=int, default=0)
    p_aud.set_defaults(func=_cmd_audit)

    p_inj = sub.add_parser(
        "inject", help="write a fault-injected copy of a trace (robustness drills)"
    )
    p_inj.add_argument("--trace", required=True, help="clean trace directory")
    p_inj.add_argument("--out", required=True, help="corrupted output directory")
    p_inj.add_argument(
        "--faults",
        default="missing_days,duplicate_rows,value_spikes",
        help=f"comma-separated fault classes from: {', '.join(FAULT_CLASSES)}",
    )
    p_inj.add_argument(
        "--rate",
        type=float,
        default=None,
        help="override the per-class default rates "
        f"({', '.join(f'{k}={v}' for k, v in DEFAULT_RATES.items())})",
    )
    p_inj.add_argument("--seed", type=int, default=0)
    p_inj.set_defaults(func=_cmd_inject)

    p_tr = sub.add_parser("train", help="train and save a failure predictor")
    p_tr.add_argument("--trace", required=True)
    p_tr.add_argument("--model", required=True, help="output pickle path")
    p_tr.add_argument("--lookahead", type=int, default=3)
    p_tr.add_argument("--age-partitioned", action="store_true")
    p_tr.add_argument("--cv", type=int, default=0, help="also report k-fold AUC")
    p_tr.add_argument("--seed", type=int, default=0)
    p_tr.add_argument("--policy", **policy_kwargs)
    add_execution_args(p_tr)
    add_obs_args(p_tr)
    p_tr.set_defaults(func=_cmd_train)

    p_sc = sub.add_parser("score", help="rank a fleet by failure risk")
    p_sc.add_argument("--trace", required=True)
    p_sc.add_argument("--model", required=True, help="trained model pickle")
    p_sc.add_argument("--top", type=int, default=10)
    p_sc.add_argument("--threshold", type=float, default=None)
    p_sc.add_argument("--policy", **policy_kwargs)
    add_execution_args(p_sc)
    add_obs_args(p_sc)
    p_sc.set_defaults(func=_cmd_score)

    p_srv = sub.add_parser(
        "serve",
        help="online scoring service (publish, replay, bench, run, heal)",
    )
    srv_sub = p_srv.add_subparsers(dest="serve_command", required=True)

    p_pub = srv_sub.add_parser(
        "publish", help="version a trained model into a registry"
    )
    p_pub.add_argument("--model", required=True, help="trained model pickle")
    p_pub.add_argument("--registry", required=True, help="registry directory")
    p_pub.add_argument(
        "--activate",
        action="store_true",
        help="also activate the fresh version (schema-hash checked)",
    )
    p_pub.add_argument(
        "--training-manifest",
        default=None,
        metavar="PATH",
        help="the train run's manifest; its sha256 ties the served model "
        "back to the exact training run",
    )
    add_obs_args(p_pub)
    p_pub.set_defaults(func=_cmd_serve_publish)

    p_rpl = srv_sub.add_parser(
        "replay",
        help="stream a trace through the online engine and verify the "
        "scores match the offline pipeline bit-for-bit (exit 1 on "
        "divergence)",
    )
    p_rpl.add_argument("--trace", required=True, help="trace directory")
    _add_model_source(p_rpl)
    p_rpl.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the online scores as JSONL",
    )
    p_rpl.add_argument(
        "--chunk-rows",
        type=int,
        default=4096,
        metavar="N",
        help="streaming chunk size (scores are identical for any value)",
    )
    p_rpl.add_argument(
        "--snapshot",
        default=None,
        metavar="PATH",
        help="persist the feature store here every --snapshot-every events "
        "(and at stream end)",
    )
    p_rpl.add_argument(
        "--snapshot-every",
        type=int,
        default=100_000,
        metavar="EVENTS",
        help="snapshot cadence when --snapshot is given (default: 100000)",
    )
    p_rpl.add_argument(
        "--snapshot-keep",
        type=int,
        default=None,
        metavar="K",
        help="rotate snapshots as numbered generations and keep the "
        "newest K; older generations are pruned only after the new one "
        "is durable (default: a single in-place snapshot file)",
    )
    p_rpl.add_argument(
        "--restore",
        default=None,
        metavar="PATH",
        help="restore the feature store from a snapshot and resume the "
        "replay after the events it already absorbed",
    )
    p_rpl.add_argument(
        "--dlq",
        default=None,
        metavar="PATH",
        help="divert bad events to this dead-letter JSONL instead of "
        "failing (enables the admission guard)",
    )
    p_rpl.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="journal accepted events to this JSONL (input for "
        "`serve heal`; enables the admission guard)",
    )
    p_rpl.add_argument(
        "--no-parity",
        action="store_true",
        help="skip the offline-parity gate (parity is also skipped "
        "automatically under telemetry chaos or when events diverted)",
    )
    add_execution_args(p_rpl)
    add_obs_args(p_rpl)
    add_telemetry_args(p_rpl)
    p_rpl.set_defaults(func=_cmd_serve_replay)

    p_shd = srv_sub.add_parser(
        "shard",
        help="replay a trace through N supervised scorer shards "
        "(partitioned by drive-ID hash) and verify the merged scores "
        "match the offline pipeline bit-for-bit; --reshard-from "
        "rebalances an existing plane through its journals",
    )
    p_shd.add_argument(
        "--trace",
        default=None,
        help="trace directory (omit only with --reshard-from)",
    )
    _add_model_source(p_shd)
    p_shd.add_argument(
        "--shards",
        type=int,
        required=True,
        metavar="N",
        help="scorer shard count (scores are byte-identical for any N)",
    )
    p_shd.add_argument(
        "--plane",
        required=True,
        metavar="DIR",
        help="plane directory: per-shard checkpoints, journals, DLQs, "
        "and status heartbeats (read by `serve status --sharded`)",
    )
    p_shd.add_argument(
        "--chunk-rows",
        type=int,
        default=4096,
        metavar="N",
        help="streaming chunk size (scores are identical for any value)",
    )
    p_shd.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="EVENTS",
        help="per-shard checkpoint cadence in accepted events (default: "
        "a single checkpoint at stream end); a killed shard restores "
        "its newest checkpoint and replays its journal tail",
    )
    p_shd.add_argument(
        "--checkpoint-keep",
        type=int,
        default=2,
        metavar="K",
        help="rotated checkpoint generations to keep per shard "
        "(default: 2; pruned only after the newer one is durable)",
    )
    p_shd.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the merged scores as JSONL (byte-comparable against "
        "`serve replay --out`)",
    )
    p_shd.add_argument(
        "--reshard-from",
        default=None,
        metavar="PLANE",
        help="rebalance this existing plane's journaled events onto "
        "--shards new shards instead of replaying --trace; the merged "
        "scores must match the source plane bit-for-bit",
    )
    p_shd.add_argument(
        "--no-parity",
        action="store_true",
        help="skip the byte-identity gate (also skipped automatically "
        "when events were diverted or deduplicated)",
    )
    add_execution_args(p_shd)
    add_obs_args(p_shd)
    p_shd.set_defaults(func=_cmd_serve_shard)

    p_bch = srv_sub.add_parser(
        "bench",
        help="ingest+score throughput and latency of the serving path "
        "on a simulated fleet",
    )
    p_bch.add_argument("--drives", type=int, default=30, help="drives per model")
    p_bch.add_argument("--days", type=int, default=365, help="trace horizon")
    p_bch.add_argument("--seed", type=int, default=0)
    p_bch.add_argument(
        "--chunk-rows",
        type=int,
        default=8192,
        metavar="N",
        help="replay chunk size for the throughput pass (default: 8192)",
    )
    p_bch.add_argument(
        "--latency-events",
        type=int,
        default=2000,
        metavar="N",
        help="single-event round trips for the latency quantiles",
    )
    p_bch.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help="write the bench numbers as JSON (CI artifact)",
    )
    p_bch.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="bench the sharded plane at N scorer shards under the "
        "synthetic arrival process (default: 0 = single-engine bench)",
    )
    p_bch.add_argument(
        "--arrival",
        choices=[d.value for d in Distribution],
        default=Distribution.POISSON.value,
        help="arrival-size distribution for the load generator "
        "(default: poisson; only used with --shards)",
    )
    p_bch.add_argument(
        "--arrival-mean",
        type=float,
        default=4096.0,
        metavar="EVENTS",
        help="mean burst size in events (default: 4096)",
    )
    p_bch.add_argument(
        "--arrival-variance",
        type=float,
        default=None,
        metavar="V",
        help="burst-size variance (normal/log_normal arrivals only)",
    )
    p_bch.add_argument(
        "--arrival-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="load-generator seed (default: --seed)",
    )
    add_execution_args(p_bch)
    add_obs_args(p_bch)
    p_bch.set_defaults(func=_cmd_serve_bench)

    p_run = srv_sub.add_parser(
        "run",
        help="score a JSONL event stream: records on stdin, "
        "probabilities on stdout (no network dependency)",
    )
    _add_model_source(p_run)
    p_run.add_argument(
        "--batch-size",
        type=int,
        default=256,
        metavar="N",
        help="micro-batch flush size (default: 256)",
    )
    p_run.add_argument(
        "--max-wait",
        type=float,
        default=0.005,
        metavar="SECONDS",
        help="max time the oldest pending request waits before a flush "
        "(default: 0.005; 0 disables batching)",
    )
    p_run.add_argument(
        "--restore",
        default=None,
        metavar="PATH",
        help="start from a feature-store snapshot instead of empty state",
    )
    p_run.add_argument(
        "--snapshot",
        default=None,
        metavar="PATH",
        help="persist the feature store here when the stream ends",
    )
    p_run.add_argument(
        "--dlq",
        default=None,
        metavar="PATH",
        help="divert malformed/late/conflicting events to this "
        "dead-letter JSONL (replayable via `serve heal`)",
    )
    p_run.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="journal accepted events to this JSONL (input for "
        "`serve heal`)",
    )
    p_run.add_argument(
        "--max-queue",
        type=int,
        default=None,
        metavar="N",
        help="bound the submit queue at N pending requests "
        "(default: unbounded)",
    )
    p_run.add_argument(
        "--overflow",
        choices=("block", "shed"),
        default="block",
        help="at --max-queue: 'block' scores the pending batch "
        "synchronously, 'shed' dead-letters the incoming event "
        "(default: block)",
    )
    p_run.add_argument(
        "--max-stale-days",
        type=int,
        default=None,
        metavar="N",
        help="tag scores whose calendar day lags the fleet watermark "
        "by more than N days as stale (default: no tagging)",
    )
    p_run.add_argument(
        "--fault-threshold",
        type=int,
        default=8,
        metavar="N",
        help="consecutive diverted events that trip the health state "
        "ready -> degraded (default: 8)",
    )
    add_obs_args(p_run)
    add_telemetry_args(p_run)
    p_run.set_defaults(func=_cmd_serve_run)

    p_heal = srv_sub.add_parser(
        "heal",
        help="rebuild a byte-identical feature store and score stream "
        "from an accepted-event journal plus a dead-letter queue",
    )
    _add_model_source(p_heal)
    p_heal.add_argument(
        "--journal",
        required=True,
        metavar="PATH",
        help="accepted-event journal from a guarded run/replay",
    )
    p_heal.add_argument(
        "--dlq",
        default=None,
        metavar="PATH",
        help="dead-letter queue to heal from (omit to rebuild from the "
        "journal alone)",
    )
    p_heal.add_argument(
        "--refetch",
        default=None,
        metavar="TRACE_DIR",
        help="trace directory treated as the upstream source of truth "
        "for schema/conflict faults (their payloads are re-read by "
        "drive-day key)",
    )
    p_heal.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the healed scores as JSONL",
    )
    p_heal.add_argument(
        "--expect",
        default=None,
        metavar="PATH",
        help="compare --out byte-for-byte against this fault-free score "
        "file; exit 1 on mismatch (the heal-to-bit-identity gate)",
    )
    p_heal.add_argument(
        "--snapshot",
        default=None,
        metavar="PATH",
        help="persist the healed feature store here",
    )
    add_obs_args(p_heal)
    p_heal.set_defaults(func=_cmd_serve_heal)

    p_sts = srv_sub.add_parser(
        "status",
        help="read a status.json heartbeat; exit 0 healthy / 1 degraded "
        "or SLO warning / 2 SLO breach",
    )
    p_sts.add_argument(
        "status_file",
        help="status.json written by `serve replay/run --status-out`, or "
        "a plane directory with --sharded",
    )
    p_sts.add_argument(
        "--sharded",
        action="store_true",
        help="treat the argument as a `serve shard --plane` directory and "
        "roll every shard's status.json into one verdict (worst shard "
        "wins the exit code)",
    )
    p_sts.add_argument(
        "--json",
        action="store_true",
        help="print the raw heartbeat JSON instead of the summary",
    )
    p_sts.set_defaults(func=_cmd_serve_status)

    p_flt = sub.add_parser(
        "fleet",
        help="closed-loop fleet autopilot: score, decide, act, audit",
    )
    flt_sub = p_flt.add_subparsers(dest="fleet_command", required=True)

    p_fwi = flt_sub.add_parser(
        "whatif",
        help="replay one or more policies against a trace and report "
        "cost/availability deltas before activation",
    )
    p_fwi.add_argument(
        "--trace", required=True, help="trace directory (simulate output)"
    )
    _add_model_source(p_fwi)
    p_fwi.add_argument(
        "--policy",
        action="append",
        required=True,
        metavar="SPEC",
        help="policy to evaluate: a kind name (threshold/topk), inline "
        "JSON, or a spec file; repeat to compare policies on the same "
        "scored stream",
    )
    p_fwi.add_argument(
        "--journal-out",
        default=None,
        metavar="PATH",
        help="write the (byte-deterministic) audit journal here "
        "(single --policy only)",
    )
    p_fwi.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help="write the full cost reports as JSON",
    )
    p_fwi.add_argument(
        "--at-risk-window",
        type=int,
        default=14,
        metavar="DAYS",
        help="pre-failure exposure window for drive-days-at-risk "
        "(default: 14)",
    )
    add_fleet_risk_args(p_fwi)
    add_execution_args(p_fwi)
    add_obs_args(p_fwi)
    p_fwi.set_defaults(func=_cmd_fleet_whatif)

    p_frn = flt_sub.add_parser(
        "run",
        help="run a policy live over a trace through the serving plane; "
        "writes an audit journal, health snapshot, and state.json "
        "(REPRO_CHAOS perturbs telemetry; the guard decides admission)",
    )
    p_frn.add_argument(
        "--trace", required=True, help="trace directory (simulate output)"
    )
    _add_model_source(p_frn)
    p_frn.add_argument(
        "--policy",
        required=True,
        metavar="SPEC",
        help="policy to run: a kind name (threshold/topk), inline JSON, "
        "or a spec file",
    )
    p_frn.add_argument(
        "--out",
        required=True,
        metavar="DIR",
        help="output directory for audit.jsonl, health.npz, state.json",
    )
    p_frn.add_argument(
        "--chunk-rows",
        type=int,
        default=4096,
        metavar="N",
        help="rows per replay chunk (default: 4096; never changes "
        "decisions)",
    )
    p_frn.add_argument(
        "--at-risk-window",
        type=int,
        default=14,
        metavar="DAYS",
        help="pre-failure exposure window for drive-days-at-risk "
        "(default: 14)",
    )
    add_fleet_risk_args(p_frn)
    add_execution_args(p_frn)
    add_telemetry_args(p_frn)
    add_obs_args(p_frn)
    p_frn.set_defaults(func=_cmd_fleet_run)

    p_fdc = flt_sub.add_parser(
        "decide",
        help="propose (without applying) one day's actions from a "
        "health snapshot",
    )
    p_fdc.add_argument(
        "--health",
        required=True,
        metavar="PATH",
        help="health.npz snapshot from `fleet run`",
    )
    p_fdc.add_argument(
        "--policy",
        required=True,
        metavar="SPEC",
        help="policy to consult: a kind name, inline JSON, or a spec file",
    )
    p_fdc.add_argument(
        "--day",
        type=int,
        default=None,
        metavar="DAY",
        help="decision day (default: the snapshot's watermark)",
    )
    p_fdc.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="replay this audit journal first so proposals respect "
        "already-applied actions",
    )
    p_fdc.add_argument(
        "--json",
        action="store_true",
        help="print proposed actions as JSON lines",
    )
    p_fdc.set_defaults(func=_cmd_fleet_decide)

    p_fad = flt_sub.add_parser(
        "audit",
        help="inspect or verify an audit journal; with --verify exit "
        "0 intact / 1 tampered-or-illegal / 2 unreadable",
    )
    p_fad.add_argument(
        "journal", help="audit.jsonl written by `fleet run`/`fleet whatif`"
    )
    p_fad.add_argument(
        "--verify",
        action="store_true",
        help="recompute the hash chain and replay every entry; the CI "
        "gate for journal integrity",
    )
    p_fad.add_argument(
        "--json",
        action="store_true",
        help="print the summary/verdict as JSON",
    )
    p_fad.add_argument(
        "--last",
        type=int,
        default=None,
        metavar="N",
        help="show only the last N entries",
    )
    p_fad.set_defaults(func=_cmd_fleet_audit)

    p_obs = sub.add_parser(
        "obs", help="inspect and compare run manifests (observability)"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_show = obs_sub.add_parser(
        "show", help="human-readable summary of one run manifest"
    )
    p_show.add_argument("manifest", help="path to a *manifest.json")
    p_show.set_defaults(func=_cmd_obs_show)
    p_diff = obs_sub.add_parser(
        "diff",
        help="compare two manifests; exit 1 when the runs are not comparable",
    )
    p_diff.add_argument("a", help="baseline manifest")
    p_diff.add_argument("b", help="candidate manifest")
    p_diff.add_argument(
        "--time-regression",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="stage-time slowdown reported as a warning (default: 0.25)",
    )
    p_diff.set_defaults(func=_cmd_obs_diff)
    p_tail = obs_sub.add_parser(
        "tail",
        help="print a structured event log (guard diversions, health "
        "transitions, heartbeats)",
    )
    p_tail.add_argument(
        "eventlog", help="event-log JSONL from `serve ... --eventlog`"
    )
    p_tail.add_argument(
        "--level",
        choices=tuple(sorted(obs_eventlog.LEVELS, key=obs_eventlog.LEVELS.get)),
        default="debug",
        help="minimum level to show (default: debug)",
    )
    p_tail.add_argument(
        "--kind",
        default=None,
        metavar="PREFIX",
        help="only events whose kind starts with PREFIX "
        "(e.g. serve.health)",
    )
    p_tail.add_argument(
        "--last",
        type=int,
        default=None,
        metavar="N",
        help="show only the last N matching events",
    )
    p_tail.set_defaults(func=_cmd_obs_tail)
    p_slo = obs_sub.add_parser(
        "slo",
        help="evaluate an SLO spec over an exported timeline; exit "
        "0 ok / 1 warn / 2 breach (CI gate)",
    )
    p_slo.add_argument(
        "--spec",
        required=True,
        metavar="PATH",
        help="JSON spec with an 'objectives' list",
    )
    p_slo.add_argument(
        "--timeline",
        required=True,
        metavar="PATH",
        help="timeline JSONL from `serve ... --timeline-out`",
    )
    p_slo.set_defaults(func=_cmd_obs_slo)
    p_bdiff = obs_sub.add_parser(
        "bench-diff",
        help="compare two `serve bench --json-out` payloads; exit 1 on "
        "regression past the threshold",
    )
    p_bdiff.add_argument("a", help="baseline BENCH json")
    p_bdiff.add_argument("b", help="candidate BENCH json")
    p_bdiff.add_argument(
        "--max-regression",
        type=float,
        default=0.2,
        metavar="FRAC",
        help="allowed fractional regression per metric (default: 0.2)",
    )
    p_bdiff.set_defaults(func=_cmd_obs_bench_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Every command runs with SIGTERM/SIGINT mapped to a drainable
        # exception: pooled stages drain in-flight tasks and checkpoint
        # completed chunks before the KeyboardInterrupt handler below
        # turns the unwind into exit 130.
        with graceful_shutdown():
            return int(args.func(args))
    except ReproError as exc:
        # Every library error class that means exit 2 derives from the
        # dependency-free ReproError, so mapping one loads no subsystem.
        print(f"error: {exc}", file=sys.stderr)
        detail = exc.detail()
        if detail is not None:
            print(detail, file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename or exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt as exc:
        name = exc.signal_name if isinstance(exc, ShutdownRequested) else "SIGINT"
        print(
            f"interrupted ({name}): in-flight tasks drained, completed "
            "chunks checkpointed; rerun with --resume to continue",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `| head`): exit quietly.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
