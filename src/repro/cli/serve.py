"""Serve commands: publish, replay, shard, run, heal, status."""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

from ..obs.durable import atomic_write
from .common import (
    CLIError,
    add_execution_args,
    add_model_source,
    add_obs_args,
    add_telemetry_args,
    load_predictor,
    print_slo,
    require_trace_dir,
    run_context,
    serve_predictor,
    serve_summary,
)


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


def _write_scores(path: str, rows: Iterable[tuple]) -> None:
    """Write ``(drive_id, age_days, probability)`` rows as score JSONL —
    the one ``--out`` format of replay, shard and heal, whose files are
    compared byte for byte."""
    with atomic_write(path, "w") as fh:
        for did, age, p in rows:
            body = {"drive_id": int(did), "age_days": int(age), "probability": float(p)}
            fh.write(json.dumps(body) + "\n")


def _record_rows(records, index, probability) -> Iterable[tuple]:
    """The ``(drive_id, age_days, probability)`` rows of the scored
    source rows ``index``."""
    return zip(
        records["drive_id"][index],
        records["age_days"][index],
        probability,
        strict=True,
    )


def _diverged(online, baseline) -> int:
    """Events whose online score differs from the baseline's; all of
    them when the two differ in length."""
    if len(online) != len(baseline):
        return max(len(online), len(baseline))
    return int((online != baseline).sum())


def _cmd_serve_publish(args: argparse.Namespace) -> int:
    from ..serve import ModelRegistry

    predictor = load_predictor(Path(args.model))
    registry = ModelRegistry(args.registry)
    with run_context(
        args,
        "serve.publish",
        config={"activate": args.activate},
        seeds={"seed": predictor.seed},
        manifest_path=registry.root / "publish_manifest.json",
    ) as run:
        run.manifest.add_input(Path(args.model))
        version = registry.publish(
            predictor,
            training_manifest=args.training_manifest,
            activate=args.activate,
        )
        vdir = registry.versions_dir / version
        run.manifest.add_output(vdir / "model.pkl")
        run.manifest.add_output(vdir / "meta.json")
        run.manifest.results["version"] = version
        run.manifest.results["active"] = registry.active_version()
    state = "active" if registry.active_version() == version else "published"
    print(f"serve publish ok: {version} ({state}) in {registry.root}")
    return 0


def _cmd_serve_replay(args: argparse.Namespace) -> int:
    from ..data import iter_drive_days, load_dataset_npz
    from ..resilience import chaos_telemetry_events, telemetry_spec_from_env
    from ..serve import (
        AdmissionGuard,
        DeadLetterQueue,
        EventJournal,
        FeatureStore,
        ScoringEngine,
        ServeBreaker,
        latest_snapshot,
    )

    predictor, model_path, model_desc = serve_predictor(args)
    trace_dir = require_trace_dir(Path(args.trace))
    records_path = _records_path(trace_dir)
    telem_spec, chaos_seed = telemetry_spec_from_env()
    with run_context(
        args,
        "serve.replay",
        config={"chunk_rows": args.chunk_rows, "lookahead": predictor.lookahead},
        seeds={"seed": predictor.seed},
        manifest_path=trace_dir / "serve_replay_manifest.json",
    ) as run:
        run.manifest.add_input(records_path)
        run.manifest.add_input(model_path)
        dlq = run.open(DeadLetterQueue, args.dlq) if args.dlq else None
        journal = run.open(EventJournal, args.journal) if args.journal else None
        guarded = bool(dlq or journal or telem_spec)
        if args.restore:
            # A rotated snapshot base (--snapshot-keep) resolves to its
            # newest on-disk generation; an exact file wins as before.
            resolved = latest_snapshot(Path(args.restore)) or args.restore
            store = FeatureStore.restore(resolved)
            # Records past the snapshot's cut come back as the replay
            # resumes there: cut longer logs back, as shard failover does.
            for log, keep in ((journal, store.journal_lines), (dlq, store.dlq_lines)):
                if log is not None and keep is not None and log.appended > keep:
                    log.truncate(keep)
        else:
            store = FeatureStore()
        # The stream position the snapshot records; snapshots that carry
        # none resume at the accepted-row count.
        start_row = store.events_total if store.rows_seen is None else store.rows_seen
        guard = (
            AdmissionGuard(
                store, dlq=dlq, journal=journal, breaker=ServeBreaker()
            )
            if guarded
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
            result = engine.replay_events(events)
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
        check_parity = (
            not args.no_parity
            and not telem_spec
            and result.n_diverted == 0
            and result.n_duplicates == 0
        )
        records = (
            load_dataset_npz(records_path)
            if check_parity or (args.out and result.scored is None)
            else None
        )
        diverged = 0
        if check_parity:
            # On the engine's warm workers, when it has them.
            offline = predictor.predict_proba_records(
                records,
                workers=run.workers,
                policy=run.policy,
                supervision=run.supervision,
                pool=engine.scoring_pool(),
            )[start_row:]
            diverged = _diverged(result.probability, offline)
        if args.out:
            if result.scored is not None:
                rows = ((e.drive_id, e.age_days, e.probability) for e in result.scored)
            else:
                # A guarded replay may have diverted or deduped rows, so
                # probabilities cover its accepted events only.
                index = (
                    slice(start_row, None)
                    if result.accepted_index is None
                    else start_row + result.accepted_index
                )
                rows = _record_rows(records, index, result.probability)
            _write_scores(args.out, rows)
            run.manifest.add_output(args.out)
        run.manifest.counts = {
            "events": result.n_events,
            "batches": result.n_batches,
            "drives": store.n_drives,
            "skipped": start_row,
            "diverted": result.n_diverted,
            "duplicates": result.n_duplicates,
        }
        run.manifest.results["events_per_second"] = round(result.events_per_second, 1)
        run.manifest.results["diverged"] = diverged
        run.manifest.results["parity_checked"] = check_parity
        if guarded:
            run.manifest.record_serve(serve_summary(engine, args.dlq, args.journal))
    suffix = f", manifest {run.manifest_path}" if run.manifest_path else ""
    resumed = f" (resumed past {start_row})" if start_row else ""
    if run.slo_report is not None:
        print_slo("serve replay", run.slo_report)
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


def _cmd_serve_shard(args: argparse.Namespace) -> int:
    from ..data import load_dataset_npz
    from ..serve import plane_scores, reshard_plane, run_sharded_replay

    if args.shards < 1:
        raise CLIError("--shards must be >= 1")
    if args.reshard_from is None and args.trace is None:
        raise CLIError("serve shard needs --trace (or --reshard-from PLANE)")
    if args.reshard_from is not None and args.out is not None:
        raise CLIError(
            "--out is only available with --trace (a reshard's source rows "
            "live in the old plane's journals, not a trace directory)"
        )
    predictor, model_path, model_desc = serve_predictor(args)
    plane = Path(args.plane)
    with run_context(
        args,
        "serve.shard",
        config={
            "shards": args.shards,
            "chunk_rows": args.chunk_rows,
            "checkpoint_every": args.checkpoint_every,
            "checkpoint_keep": args.checkpoint_keep,
            "reshard_from": args.reshard_from,
            "lookahead": predictor.lookahead,
        },
        seeds={"seed": predictor.seed},
        manifest_path=plane / "serve_shard_manifest.json",
    ) as run:
        run.manifest.add_input(model_path)
        common = dict(
            chunk_rows=args.chunk_rows,
            checkpoint_every=args.checkpoint_every,
            checkpoint_keep=args.checkpoint_keep,
            workers=run.workers,
            policy=run.policy,
            supervision=run.supervision,
        )
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
            trace_dir = require_trace_dir(Path(args.trace))
            records_path = _records_path(trace_dir)
            run.manifest.add_input(records_path)
            result = run_sharded_replay(
                predictor, records_path, args.shards, plane, **common
            )
            check_parity = (
                not args.no_parity
                and result.n_diverted == 0
                and result.n_duplicates == 0
            )
            records = (
                load_dataset_npz(records_path) if check_parity or args.out else None
            )
            # The offline pipeline over the same records — the
            # shard-count analogue of the `serve replay` parity gate.
            baseline = (
                predictor.predict_proba_records(
                    records,
                    workers=run.workers,
                    policy=run.policy,
                    supervision=run.supervision,
                )
                if check_parity
                else None
            )
            baseline_desc = f"the offline pipeline ({model_desc})"
            if args.out:
                rows = _record_rows(records, result.accepted_index, result.probability)
                _write_scores(args.out, rows)
                run.manifest.add_output(args.out)
        diverged = 0 if baseline is None else _diverged(result.probability, baseline)
        run.manifest.counts = {
            "events": result.n_events,
            "rows": result.n_rows,
            "shards": result.n_shards,
            "diverted": result.n_diverted,
            "duplicates": result.n_duplicates,
            "restored": result.n_restored,
        }
        run.manifest.results["events_per_second"] = round(result.events_per_second, 1)
        run.manifest.results["diverged"] = diverged
        run.manifest.results["parity_checked"] = baseline is not None
        run.manifest.results["shards"] = result.shards
    suffix = f", manifest {run.manifest_path}" if run.manifest_path else ""
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


def _stdin_lines(
    next_timeout: Callable[[], float | None],
) -> Iterator[str | None]:
    """Lines of stdin as they arrive, and ``None`` whenever
    ``next_timeout()`` seconds (``None``: no limit) pass without one.

    Reads the descriptor with ``os.read`` and splits the lines itself,
    yielding every complete line before it selects again: a line left in
    a Python read buffer would be invisible to ``select``.  A stream
    that cannot be selected on (an in-memory stream, a regular file)
    never pauses, so it is read line by line.
    """
    import selectors

    sel = selectors.DefaultSelector()
    try:
        fd = sys.stdin.fileno()
        sel.register(fd, selectors.EVENT_READ)
    except (OSError, ValueError):
        sel.close()
        yield from sys.stdin
        return
    with sel:
        partial = b""
        while True:
            if not sel.select(next_timeout()):
                yield None
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            *lines, partial = (partial + chunk).split(b"\n")
            for line in lines:
                yield line.decode("utf-8", "replace")
    if partial:
        yield partial.decode("utf-8", "replace")


def _cmd_serve_run(args: argparse.Namespace) -> int:
    from ..serve import (
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

    predictor, model_path, model_desc = serve_predictor(args)
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
    n_lines = 0
    health = breaker.state
    # stdout is a function of stdin alone: each error/status record is
    # tagged with the number of requests admitted before it and printed
    # right after the last of their scores, wherever batches close.
    held: deque[tuple[int, str]] = deque()
    n_scored = 0

    def emit(line: str) -> None:
        print(line)
        sys.stdout.flush()

    def release() -> None:
        while held and held[0][0] <= n_scored:
            emit(held.popleft()[1])

    def emit_record(body: dict) -> None:
        held.append((engine.requests_total, json.dumps(body)))
        release()

    def emit_scores(events: Iterable) -> None:
        nonlocal n_scored
        for event in events:
            emit(_score_jsonl_line(event))
            n_scored += 1
            release()

    def emit_health() -> None:
        # Status records ride the same stdout transport as scores; their
        # "type" key distinguishes them (score records never carry one).
        nonlocal health
        if guard.breaker.state != health:
            health = guard.breaker.state
            emit_record({"type": "status", "health": health, "line": n_lines})

    with run_context(
        args,
        "serve.run",
        config={
            "batch_size": args.batch_size,
            "max_wait": args.max_wait,
            "max_queue": args.max_queue,
            "overflow": args.overflow,
            "max_stale_days": args.max_stale_days,
            "lookahead": predictor.lookahead,
        },
        seeds={"seed": predictor.seed},
    ) as run:
        run.manifest.add_input(model_path)
        print(f"serve run: scoring stdin JSONL with {model_desc}", file=sys.stderr)
        dlq = run.open(DeadLetterQueue, args.dlq) if args.dlq else None
        journal = run.open(EventJournal, args.journal) if args.journal else None
        guard = AdmissionGuard(store, dlq=dlq, journal=journal, breaker=breaker)
        run.engine = engine = ScoringEngine(
            predictor,
            store=store,
            batch_policy=batch_policy,
            guard=guard,
            queue_policy=queue_policy,
            staleness=staleness,
            telemetry=run.telemetry,
        )
        try:
            for line in _stdin_lines(engine.batcher.next_flush_in):
                if line is None:  # idle until the batcher's next flush
                    emit_scores(engine.poll())
                    continue
                line = line.strip()
                if not line:
                    continue
                n_lines += 1
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    reason = f"not valid JSON: {exc}"
                    guard.divert_raw(line, reason)
                    body = {"type": "error", "line": n_lines, "fault": "malformed", "reason": reason}
                    emit_record(body)
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
                    emit_record(body)
                emit_scores(flushed)
                emit_health()
        except KeyboardInterrupt:
            # SIGTERM/SIGINT: the pending requests go unscored, but every
            # error/status record already produced still reaches stdout.
            for _, record in held:
                emit(record)
            raise
        emit_scores(engine.drain())
        emit_health()
        if args.snapshot:
            store.snapshot(args.snapshot)
            print(f"serve run: store snapshot -> {args.snapshot}", file=sys.stderr)
        run.manifest.counts = {
            "lines": n_lines,
            "scored": engine.requests_total,
            "drives": store.n_drives,
        }
        run.manifest.record_serve(serve_summary(engine, args.dlq, args.journal))
    stats = guard.stats
    diverted = stats.dead_lettered
    slo = run.slo_report
    print(
        f"serve run: scored {engine.requests_total} event(s) across "
        f"{store.n_drives} drive(s); {stats.duplicates_dropped} duplicate(s) "
        f"dropped, {diverted} diverted"
        + (f" (DLQ {args.dlq})" if args.dlq and diverted else "")
        + f"; health {engine.health_state}"
        + (f"; slo {slo.state}" if slo is not None else ""),
        file=sys.stderr,
    )
    # Exit contract: 0 every event scored (duplicates are benign), 1 some
    # events were diverted (replayable via `serve heal` when --dlq was
    # given), 2 config/usage errors (argparse/CLIError path).
    return 1 if diverted else 0


def _cmd_serve_heal(args: argparse.Namespace) -> int:
    from ..data import iter_drive_days
    from ..serve import (
        AdmissionGuard,
        DeadLetterQueue,
        EventJournal,
        FeatureStore,
        ScoringEngine,
        ServeBreaker,
        build_heal_plan,
    )

    predictor, model_path, model_desc = serve_predictor(args)
    journal_events = EventJournal.read(args.journal)
    entries = DeadLetterQueue.read(args.dlq) if args.dlq else []
    refetch = None
    if args.refetch:
        trace_dir = require_trace_dir(Path(args.refetch))
        refetch = {
            (int(rec["drive_id"]), int(rec["age_days"])): rec
            for rec in iter_drive_days(trace_dir / "records.npz")
        }
    with run_context(
        args,
        "serve.heal",
        config={"refetch": bool(args.refetch), "lookahead": predictor.lookahead},
        seeds={"seed": predictor.seed},
    ) as run:
        run.manifest.add_input(args.journal)
        if args.dlq:
            run.manifest.add_input(args.dlq)
        run.manifest.add_input(model_path)
        plan = build_heal_plan(journal_events, entries, refetch=refetch)
        # Rebuild a fresh store from the healed stream.  Every planned
        # event must admit cleanly — the plan is already deduplicated
        # and sorted into canonical trace order.
        store = FeatureStore()
        guard = AdmissionGuard(store, breaker=ServeBreaker())
        engine = ScoringEngine(predictor, store=store, guard=guard)
        scored = list(engine.score_stream(plan.events))
        if args.out:
            rows = ((e.drive_id, e.age_days, e.probability) for e in scored)
            _write_scores(args.out, rows)
            run.manifest.add_output(args.out)
        if args.snapshot:
            store.snapshot(args.snapshot)
            run.manifest.add_output(args.snapshot)
        parity_ok = None
        if args.expect:
            if not args.out:
                raise CLIError("--expect requires --out (the files are compared)")
            parity_ok = Path(args.out).read_bytes() == Path(args.expect).read_bytes()
            run.manifest.results["parity"] = parity_ok
        run.manifest.counts = {
            "journal_events": len(journal_events),
            "dead_letters": len(entries),
            "healed": plan.n_healed,
            "events": len(plan.events),
            "duplicates_dropped": plan.duplicates_dropped,
            "conflicts_resolved": plan.conflicts_resolved,
            "unhealable": len(plan.unhealable),
            "drives": store.n_drives,
        }
        run.manifest.results["healed_by_fault"] = dict(
            sorted(plan.healed_by_fault.items())
        )
        run.manifest.record_serve(serve_summary(engine, None, None))
    rejected = guard.stats.dead_lettered + guard.stats.duplicates_dropped
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
    from ..serve import load_status, render_sharded_status, render_status, status_exit_code

    try:
        if args.sharded:
            # A plane directory: roll every shard's heartbeat into one
            # verdict (worst shard wins the exit code).
            from ..serve import plane_status

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


def register(sub: argparse._SubParsersAction) -> None:
    """Add the ``serve`` command family to the top-level subparsers."""
    p_srv = sub.add_parser(
        "serve",
        help="online scoring service (publish, replay, run, heal)",
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
    add_model_source(p_rpl)
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
    add_model_source(p_shd)
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
        "its newest checkpoint and resumes the trace there",
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

    p_run = srv_sub.add_parser(
        "run",
        help="score a JSONL event stream: records on stdin, "
        "probabilities on stdout (no network dependency)",
    )
    add_model_source(p_run)
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
        help="hard bound on how long the oldest pending request waits "
        "before a flush; an idle batch closes sooner, once its summed "
        "wait pays for one scoring call (default: 0.005; 0 disables "
        "batching)",
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
    add_model_source(p_heal)
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
