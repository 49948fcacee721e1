"""Trace commands: simulate, pack, report, audit, inject, train, score."""

from __future__ import annotations

import argparse
import pickle
import sys
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from ..obs.durable import atomic_write
from .common import (
    EXIT_QUARANTINE,
    CLIError,
    add_execution_args,
    add_obs_args,
    load_predictor,
    load_trace,
    require_trace_dir,
    run_context,
    trace_inputs,
)

if TYPE_CHECKING:
    from ..obs import RunManifest
    from ..obs.tracing import Tracer
    from ..reliability import RepairResult

#: Default manifest filename written into a simulate output directory.
RUN_MANIFEST = "run_manifest.json"


def _chunk_timings(tracer: Tracer) -> list[dict]:
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


def _record_repair(manifest: RunManifest, repair: RepairResult | None) -> None:
    if repair is None:
        return
    manifest.record_validation(
        n_errors=repair.report.n_errors,
        n_warnings=repair.report.n_warnings,
        n_quarantined=repair.n_quarantined,
        n_repair_actions=len(repair.actions),
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    from ..data import save_dataset_npz, save_drivetable_npz, save_swaplog_npz
    from ..reliability import CheckpointStore, simulate_fleet_resumable
    from ..resilience import QuarantinedRunError
    from ..simulator import FleetConfig, default_models

    config = FleetConfig(
        n_drives_per_model=args.drives,
        horizon_days=args.days,
        deploy_spread_days=args.deploy_spread,
        seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    quiet = args.quiet

    def progress(done: int, total: int) -> None:
        print(f"  checkpoint {done}/{total}", flush=True)

    ckpt_dir = out / ".checkpoints"
    quarantined: QuarantinedRunError | None = None
    with run_context(
        args,
        "simulate",
        config={
            "fleet": asdict(config),
            "models": [asdict(m) for m in default_models()],
            "checkpoint_every": args.checkpoint_every,
        },
        seeds={"seed": args.seed},
        manifest_path=out / RUN_MANIFEST,
        # results.chunk_timings reads the chunk spans back.
        keep_spans=True,
    ) as run:
        if not quiet:
            suffix = f" ({run.workers} workers)" if run.workers > 1 else ""
            print(f"Simulating fleet: {config}{suffix} ...")
        try:
            trace = simulate_fleet_resumable(
                config,
                checkpoint_dir=ckpt_dir,
                chunk_size=args.checkpoint_every,
                resume=args.resume,
                progress=progress if (args.verbose and not quiet) else None,
                workers=run.workers,
                policy=run.policy,
                supervision=run.supervision,
            )
        except QuarantinedRunError as exc:
            # Healthy chunks are checkpointed; keep them (no cleanup) so a
            # --resume after fixing the fault only redoes the poison ones.
            quarantined = exc
            run.manifest.counts = {
                "chunks_completed": exc.completed,
                "chunks_total": exc.total,
            }
        else:
            save_dataset_npz(trace.records, out / "records.npz")
            save_drivetable_npz(trace.drives, out / "drives.npz")
            save_swaplog_npz(trace.swaps, out / "swaps.npz")
            CheckpointStore(directory=ckpt_dir, digest="", n_chunks=0).cleanup()
            for name in ("records.npz", "drives.npz", "swaps.npz"):
                run.manifest.add_output(out / name)
            run.manifest.counts = {
                "drives": len(trace.drives),
                "records": len(trace.records),
                "swaps": len(trace.swaps),
                "days": config.horizon_days,
            }
        run.manifest.results["chunk_timings"] = _chunk_timings(run.tracer)
    where = f", manifest {run.manifest_path}" if run.manifest_path else ""
    if quarantined is not None:
        print(f"error: {quarantined}", file=sys.stderr)
        print(
            f"simulate quarantined: {len(run.supervision.quarantined)} poison "
            f"chunk(s), {quarantined.completed}/{quarantined.total} chunks "
            "checkpointed" + where
        )
        return EXIT_QUARANTINE
    if not quiet:
        print(trace.summary())
        print(f"Wrote {out}/records.npz, drives.npz, swaps.npz")
        if run.supervision.events:
            print(run.supervision.summary())
    # The one-line summary (always printed, the only success output in
    # --quiet mode) is sourced from the manifest, not recomputed.
    counts = run.manifest.counts
    print(
        f"simulate ok: {counts['drives']} drives, {counts['days']} days, "
        f"{counts['swaps']} swaps, {run.manifest.elapsed_seconds:.1f}s elapsed"
        + where
    )
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    import numpy as np

    from ..data import load_dataset_npz, save_dataset_store

    trace_dir = require_trace_dir(Path(args.trace))
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


def _cmd_report(args: argparse.Namespace) -> int:
    from ..analysis import figure6, table1, table3, table4, table5

    trace, _ = load_trace(Path(args.trace), policy=args.policy)
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
    from ..analysis import check_observations
    from ..data import load_drivetable_npz, load_swaplog_npz
    from ..reliability import validate_trace

    trace_dir = require_trace_dir(Path(args.trace))
    deep_ok = True
    if args.deep:
        from ..data import load_raw_columns_npz

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
    trace, _ = load_trace(Path(args.trace))
    report = check_observations(trace, include_ml=args.ml, seed=args.seed)
    print(report.render())
    return 0 if (report.all_hold and deep_ok) else 1


def _cmd_inject(args: argparse.Namespace) -> int:
    from ..reliability import FAULT_CLASSES, FaultInjector

    trace_dir = require_trace_dir(Path(args.trace))
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


def _cmd_train(args: argparse.Namespace) -> int:
    from ..core import FailurePredictor

    with run_context(
        args,
        "train",
        config={
            "lookahead": args.lookahead,
            "age_partitioned": args.age_partitioned,
            "cv": args.cv,
            "policy": args.policy,
        },
        seeds={"seed": args.seed},
        manifest_path=Path(str(args.model) + ".manifest.json"),
    ) as run:
        trace, repair = load_trace(Path(args.trace), policy=args.policy)
        trace_inputs(run.manifest, Path(args.trace))
        _record_repair(run.manifest, repair)
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
                workers=run.workers,
                policy=run.policy,
                supervision=run.supervision,
            )
            print(
                f"Cross-validated ROC AUC: "
                f"{result.mean_auc:.3f} ± {result.std_auc:.3f}"
            )
            run.manifest.results["cv_mean_auc"] = result.mean_auc
            run.manifest.results["cv_std_auc"] = result.std_auc
            if run.supervision.quarantined:
                print(
                    f"warning: {len(run.supervision.quarantined)} CV fold(s) "
                    "quarantined and excluded from the aggregate",
                    file=sys.stderr,
                )
        predictor.fit(trace)
        with atomic_write(args.model, "wb") as fh:
            pickle.dump(predictor, fh)
        run.manifest.add_output(args.model)
        run.manifest.counts = {
            "drives": len(trace.drives),
            "records": len(trace.records),
            "swaps": len(trace.swaps),
        }
    print(f"Wrote model to {args.model}"
          + (f" (manifest {run.manifest_path})" if run.manifest_path else ""))
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    import numpy as np

    from ..data import load_dataset_checked, load_dataset_npz

    model_path = Path(args.model)
    predictor = load_predictor(model_path)
    trace_dir = require_trace_dir(Path(args.trace))
    with run_context(
        args,
        "score",
        config={
            "top": args.top,
            "threshold": args.threshold,
            "policy": args.policy,
            "lookahead": predictor.lookahead,
        },
        seeds={"seed": predictor.seed},
        manifest_path=Path(str(args.model) + ".score-manifest.json"),
    ) as run:
        run.manifest.add_input(model_path)
        if args.policy and args.policy != "off":
            result = load_dataset_checked(
                trace_dir / "records.npz", policy=args.policy
            )
            records = result.dataset
            _record_repair(run.manifest, result)
        else:
            records = load_dataset_npz(trace_dir / "records.npz")
        run.manifest.add_input(trace_dir / "records.npz")
        full_report = predictor.risk_report(
            records,
            workers=run.workers,
            policy=run.policy,
            supervision=run.supervision,
        )
        report = full_report.top(args.top)
        print(f"{'drive':>8s} {'age (d)':>8s} {'P(fail <= %dd)' % predictor.lookahead:>16s}")
        for did, age, p in zip(report.drive_id, report.age_days, report.probability):
            print(f"{did:>8d} {age:>8d} {p:>16.3f}")
        if args.threshold is not None:
            flagged = full_report.flagged(args.threshold)
            print(f"\n{len(flagged)} drive(s) above alpha={args.threshold}: "
                  f"{np.sort(flagged).tolist()}")
            run.manifest.results["n_flagged"] = int(len(flagged))
        run.manifest.counts = {"records": len(records)}
    return 0


def register(sub: argparse._SubParsersAction) -> None:
    """Add the trace commands to the top-level subparsers."""
    from ..reliability.corruption import DEFAULT_RATES, FAULT_CLASSES

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
