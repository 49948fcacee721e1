"""Fleet commands: the closed-loop autopilot (score → decide → act → audit)."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from ..obs.durable import atomic_write
from .common import (
    CLIError,
    add_execution_args,
    add_model_source,
    add_obs_args,
    add_telemetry_args,
    load_trace,
    print_slo,
    run_context,
    serve_predictor,
    serve_summary,
    trace_inputs,
)

if TYPE_CHECKING:
    from ..fleet import RiskPolicy


def _fleet_policy_arg(source: str):
    from ..fleet import PolicyError, load_policy

    try:
        return load_policy(source)
    except PolicyError as exc:
        raise CLIError(str(exc)) from None


def _fleet_risk_arg(args: argparse.Namespace) -> RiskPolicy:
    from ..fleet import RiskPolicy

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
    from ..fleet import run_whatif

    predictor, model_path, model_desc = serve_predictor(args)
    policies = [_fleet_policy_arg(p) for p in args.policy]
    if args.journal_out and len(policies) > 1:
        raise CLIError(
            "--journal-out needs exactly one --policy (a journal records "
            "one policy's decisions)"
        )
    trace, _ = load_trace(Path(args.trace))
    risk = _fleet_risk_arg(args)
    with run_context(
        args,
        "fleet.whatif",
        config={
            "policies": [p.spec() for p in policies],
            "at_risk_window": args.at_risk_window,
            "risk_alpha": args.risk_alpha,
            "stale_after": args.stale_after,
        },
        seeds={"seed": predictor.seed},
        manifest_path=Path(args.trace) / "fleet_whatif_manifest.json",
    ) as run:
        trace_inputs(run.manifest, Path(args.trace))
        run.manifest.add_input(model_path)
        # Score once; every policy replays the same byte-exact stream.
        probs = predictor.predict_proba_records(
            trace.records,
            workers=run.workers,
            policy=run.policy,
            supervision=run.supervision,
        )
        reports = [
            run_whatif(
                trace,
                policy,
                probs=probs,
                journal_path=args.journal_out,
                risk=risk,
                at_risk_window=args.at_risk_window,
            )
            for policy in policies
        ]
        best = max(range(len(reports)), key=lambda i: reports[i][0].savings)
        run.manifest.record_fleet(
            _fleet_summary(
                policies[best],
                reports[best][1],
                report=reports[best][0],
                journal_path=args.journal_out,
            )
        )
        run.manifest.counts = {
            "events": reports[0][1].n_events,
            "policies": len(policies),
            "failures": reports[0][0].n_failures,
        }
        run.manifest.results["reports"] = [r.to_dict() for r, _ in reports]
        if args.journal_out:
            run.manifest.add_output(args.journal_out)
        if args.json_out:
            with atomic_write(args.json_out, "w") as fh:
                json.dump([r.to_dict() for r, _ in reports], fh, indent=2, sort_keys=True)
                fh.write("\n")
            run.manifest.add_output(args.json_out)
    print(
        f"fleet whatif: {len(policies)} polic"
        f"{'y' if len(policies) == 1 else 'ies'} x "
        f"{reports[0][1].n_events} scored events "
        f"({reports[0][0].n_drives} drives, "
        f"{reports[0][0].n_failures} failure(s); {model_desc})"
    )
    print(_render_whatif_table([r for r, _ in reports]))
    if run.manifest_path:
        print(f"manifest: {run.manifest_path}")
    return 0


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    from ..data import iter_drive_days
    from ..fleet import AuditJournal, PolicyRunner, evaluate_outcome, ground_truth
    from ..resilience import chaos_telemetry_events, telemetry_spec_from_env
    from ..serve import (
        AdmissionGuard,
        DeadLetterQueue,
        FeatureStore,
        ScoringEngine,
        ServeBreaker,
    )

    predictor, model_path, model_desc = serve_predictor(args)
    policy = _fleet_policy_arg(args.policy)
    trace, _ = load_trace(Path(args.trace))
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
    dlq_path = out_dir / "dlq.jsonl" if telem_spec else None
    with run_context(
        args,
        "fleet.run",
        config={
            "policy": policy.spec(),
            "chunk_rows": args.chunk_rows,
            "risk_alpha": args.risk_alpha,
            "stale_after": args.stale_after,
            "chaos": [list(pair) for pair in telem_spec],
        },
        seeds={"seed": predictor.seed, "chaos_seed": chaos_seed},
        manifest_path=out_dir / "fleet_run_manifest.json",
    ) as run:
        trace_inputs(run.manifest, Path(args.trace))
        run.manifest.add_input(model_path)
        runner = PolicyRunner(
            policy, journal=run.open(AuditJournal, journal_path), risk=risk
        )
        store = FeatureStore()
        guard = (
            AdmissionGuard(
                store, dlq=run.open(DeadLetterQueue, dlq_path), breaker=ServeBreaker()
            )
            if telem_spec
            else None
        )
        run.engine = engine = ScoringEngine(
            predictor,
            store=store,
            workers=run.workers,
            policy=run.policy,
            supervision=run.supervision,
            guard=guard,
            telemetry=run.telemetry,
            on_scored=runner.feed,
        )
        if telem_spec:
            # Chaos drill: the fault plan perturbs arrivals, the guard
            # decides admission event by event, and the policy decides
            # from whatever survived — the decision-quality delta is the
            # measurement.
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
        run.manifest.add_output(outcome.health.snapshot(out_dir / "health.npz"))
        state_path = out_dir / "state.json"
        body = {
            "state": outcome.state.to_dict(),
            "state_digest": outcome.state.digest(),
            "chain": outcome.chain,
            "policy": policy.spec(),
        }
        with atomic_write(state_path, "w") as fh:
            fh.write(json.dumps(body, indent=2, sort_keys=True) + "\n")
        run.manifest.add_output(state_path)
        run.manifest.record_fleet(
            _fleet_summary(
                policy, outcome, report=report, journal_path=journal_path
            )
        )
        if guard is not None:
            run.manifest.record_serve(serve_summary(engine, dlq_path, None))
        run.manifest.counts = {
            "events": outcome.n_events,
            "days": outcome.n_days,
            "actions": outcome.n_actions,
            "diverted": guard.stats.dead_lettered if guard else 0,
            "duplicates": guard.stats.duplicates_dropped if guard else 0,
        }
        run.manifest.results["report"] = report.to_dict()
    if run.slo_report is not None:
        print_slo("fleet run", run.slo_report)
    state = outcome.state
    print(
        f"fleet run ok: {outcome.n_actions} action(s) over "
        f"{outcome.n_days} day(s) ({model_desc}, policy {policy.kind}) — "
        f"{state.spares_used} spare(s), cost {state.cost_total:.1f}, "
        f"caught {report.caught}/{report.n_failures} failure(s)"
    )
    print(f"audit journal: {journal_path} (chain {outcome.chain[:12]}…)")
    if run.manifest_path:
        print(f"manifest: {run.manifest_path}")
    return 0


def _cmd_fleet_decide(args: argparse.Namespace) -> int:
    from ..fleet import FleetHealth, FleetState, HealthError, replay_journal

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
    from ..fleet import journal_summary, read_journal, verify_journal

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


def register(sub: argparse._SubParsersAction) -> None:
    """Add the ``fleet`` command family to the top-level subparsers."""
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
    add_model_source(p_fwi)
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
    add_model_source(p_frn)
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
