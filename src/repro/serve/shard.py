"""Sharded serving plane: partitioned scorer shards under supervision.

A 30M-drive fleet logging daily is a topology, not a process.  This
module partitions the serving tier by drive-ID hash
(:mod:`repro.serve.partition`) across N scorer shards, each running its
own :class:`~repro.serve.engine.ScoringEngine` +
:class:`~repro.serve.guard.AdmissionGuard` + dead-letter queue over a
private slice of the feature store, with all shard state rooted in a
*plane* directory::

    plane/
      plane.json               # partition map, shard count, stream size
      shard-00/
        checkpoint-g000001.npz # replay snapshot: store state + cut, rotated
        journal.jsonl          # accepted events, admission order
        dlq.jsonl              # diverted events
        status.json            # per-shard heartbeat
      shard-01/ ...

Three invariants make the plane production-grade:

1. **Shard-count identity.**  The partition is pure in the drive id and
   scores are per-row, so merging per-shard outputs back into source-row
   order reproduces the serial replay byte-for-byte at any shard count
   — the sharded analogue of the workers-N guarantee in
   :mod:`repro.parallel`.
2. **Crash failover identity.**  Shards run as supervised pool tasks
   (:func:`repro.resilience.supervised_iter_tasks` — watchdog, retries,
   circuit breaker).  A killed shard (``REPRO_CHAOS=shard_kill=…``
   SIGKILLs the planned victim mid-stream) is healed on retry by
   restoring its newest checkpoint — a replay snapshot holding the
   feature store *and* the replay's cut (scores, stream position, log
   counts) — and replaying its sub-stream on it, which cuts the journal
   and DLQ back to the cut and resumes there.  Output and counters are
   those of a never-crashed run.
3. **Reshard identity.**  An N→M reshard merges the old shards'
   journals back into canonical ``(drive_id, age_days)`` order — every
   drive lived on exactly one shard, so per-drive order is preserved —
   and replays through the new partition map; byte-identical again.

Each shard task is one :meth:`~repro.serve.engine.ScoringEngine.replay`
over its sub-stream, so scores, counters, snapshots, restores and
telemetry are booked one way everywhere.
"""

from __future__ import annotations

import json
import os
import signal
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from multiprocessing import parent_process
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from ..core.predictor import FailurePredictor
from ..data.dataset import DriveDayDataset
from ..data.io import iter_drive_day_chunks
from ..errors import ReproError
from ..obs import eventlog
from ..obs.durable import atomic_write, now
from ..resilience.chaos import planned_shard_kill, shard_spec_from_env
from .dlq import DeadLetterQueue, EventJournal
from .engine import ScoringEngine, TelemetryConfig
from .feature_store import FeatureStore, FeatureStoreError
from .guard import AdmissionGuard
from .health import ServeBreaker, load_status
from .partition import PARTITION_VERSION, PartitionMap, sub_stream
from .snapshots import latest_snapshot

__all__ = [
    "SHARD_SCHEMA_VERSION",
    "ShardError",
    "ShardPaths",
    "ShardedReplayResult",
    "run_sharded_replay",
    "reshard_plane",
    "merged_plane_events",
    "read_plane_manifest",
    "plane_scores",
    "plane_status",
]

#: Bump when the checkpoint or plane layout changes incompatibly.
SHARD_SCHEMA_VERSION = 2

#: Per-shard checkpoints default to keeping this many rotated
#: generations — enough to survive a corrupted newest write.
DEFAULT_CHECKPOINT_KEEP = 2

_PLANE_MANIFEST = "plane.json"
_CHAOS_MARKER = "chaos_fired"


class ShardError(RuntimeError, ReproError):
    """A shard checkpoint, journal, or plane layout is inconsistent."""


# --------------------------------------------------------------------------
# plane layout
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardPaths:
    """Derived file layout for one shard of a plane directory."""

    root: Path
    shard_id: int

    @property
    def dir(self) -> Path:
        return Path(self.root) / f"shard-{self.shard_id:02d}"

    @property
    def checkpoint_base(self) -> Path:
        """Rotation base — generations are ``checkpoint-gNNNNNN.npz``."""
        return self.dir / "checkpoint.npz"

    @property
    def journal(self) -> Path:
        return self.dir / "journal.jsonl"

    @property
    def dlq(self) -> Path:
        return self.dir / "dlq.jsonl"

    @property
    def status(self) -> Path:
        return self.dir / "status.json"

    @property
    def chaos_marker(self) -> Path:
        return self.dir / _CHAOS_MARKER


def _restore(path: Path) -> FeatureStore:
    """A shard checkpoint (a replay snapshot) as a restored store."""
    try:
        return FeatureStore.restore(path)
    except FeatureStoreError as exc:
        raise ShardError(str(exc)) from None


# --------------------------------------------------------------------------
# the shard worker task (runs inside a supervised pool worker)
# --------------------------------------------------------------------------

#: Predictor + trace + plan installed once per pool worker, so running
#: several shard tasks on one worker re-pickles nothing.
_shard_state: tuple | None = None


def _set_shard_state(
    predictor: FailurePredictor, source: Any, plan: dict
) -> None:
    global _shard_state
    _shard_state = (predictor, source, plan)


def _run_shard(shard_id: int) -> dict:
    assert _shard_state is not None, "shard state not installed"
    predictor, source, plan = _shard_state
    return run_shard_task(predictor, source, plan, shard_id)


def _chaos_kill(paths: ShardPaths, shard_id: int, plan: dict) -> Callable[[int], None] | None:
    """The planned SIGKILL as a replay ``progress`` callback, or ``None``.

    Fires once the shard has scored its planned share of events, only
    inside a pool worker process (a serial in-process shard must never
    SIGKILL the caller) and only once per shard — the on-disk marker
    written just before the kill gates the retry.
    """
    if parent_process() is None or paths.chaos_marker.exists():
        return None
    spec, seed = shard_spec_from_env()
    frac = planned_shard_kill(shard_id, spec, seed) if spec else None
    if frac is None:
        return None
    share = max(1, int(plan["n_rows"]) // max(1, int(plan["n_shards"])))
    kill_at = max(1, int(frac * share))

    def kill(n_events: int) -> None:
        if n_events >= kill_at:
            # Mark first (the marker gates the retry), then die without
            # warning — the supervisor must heal this.
            with atomic_write(paths.chaos_marker, "w") as fh:
                fh.write(f"killed after {n_events} scored events\n")
            os.kill(os.getpid(), signal.SIGKILL)

    return kill


def run_shard_task(
    predictor: FailurePredictor,
    source: DriveDayDataset | str | Path,
    plan: Mapping[str, Any],
    shard_id: int,
) -> dict:
    """Run one scorer shard over its slice of the trace.

    Streams the full trace in stored ``(drive_id, age_days)`` order,
    keeps the rows whose drive hashes to this shard (per-drive order is
    preserved — drive runs are contiguous in the sorted stream, so the
    sub-stream is still grouped and age-sorted), and replays them
    through the shard's guarded engine, checkpointing with the replay's
    own rotated snapshots.

    If a checkpoint exists (a previous attempt was killed), the shard
    **fails over**: the replay restored on the newest checkpoint cuts
    the journal/DLQ back to its cut and resumes there, re-scoring only
    the rows since the cut.  Scores and counters are those of a
    never-crashed run in all cases.
    """
    t0 = time.perf_counter()
    n_shards = int(plan["n_shards"])
    paths = ShardPaths(Path(plan["root"]), shard_id)
    paths.dir.mkdir(parents=True, exist_ok=True)
    checkpoint = latest_snapshot(paths.checkpoint_base)
    if checkpoint is None:
        # A first attempt killed before its first checkpoint leaves log
        # lines no cut covers: the retry starts the shard over.
        paths.journal.unlink(missing_ok=True)
        paths.dlq.unlink(missing_ok=True)
        store = FeatureStore()
    else:
        store = _restore(checkpoint)
    # Opening the logs drops a torn tail (a kill mid append) before the
    # replay counts or cuts them.
    guard = AdmissionGuard(
        store,
        dlq=DeadLetterQueue(paths.dlq),
        journal=EventJournal(paths.journal),
        breaker=ServeBreaker(),
    )
    engine = ScoringEngine(
        predictor,
        store=store,
        guard=guard,
        workers=1,
        telemetry=TelemetryConfig(status_path=paths.status),
    )
    source_rows: list[np.ndarray] = []
    chunks = iter_drive_day_chunks(source, chunk_rows=int(plan.get("chunk_rows") or 4096))
    result = engine.replay(
        sub_stream(chunks, PartitionMap(n_shards), shard_id, source_rows),
        snapshot_every=plan.get("checkpoint_every"),
        snapshot_path=paths.checkpoint_base,
        snapshot_keep=plan.get("checkpoint_keep") or DEFAULT_CHECKPOINT_KEEP,
        progress=_chaos_kill(paths, shard_id, plan),
    )
    rows = np.concatenate(source_rows) if source_rows else np.empty(0, dtype=np.int64)
    n_accepted = int(result.probability.shape[0])
    status = engine.status()
    status["shard"] = {
        "shard_id": shard_id,
        "n_shards": n_shards,
        "partition_version": PARTITION_VERSION,
        "rows_seen": len(rows),
        "accepted": n_accepted,
        "restored": checkpoint is not None,
        "resumed_at": result.resumed_at,
    }
    with atomic_write(paths.status, "w") as fh:
        fh.write(json.dumps(status, indent=2, sort_keys=True) + "\n")
    eventlog.emit(
        "serve.shard.done",
        f"shard {shard_id}/{n_shards} scored {n_accepted} events",
        shard_id=shard_id,
        restored=checkpoint is not None,
        resumed_at=result.resumed_at,
    )
    return {
        "shard_id": shard_id,
        "probability": result.probability,
        "accepted_global": rows[result.accepted_index],
        "rows_seen": len(rows),
        "n_batches": result.n_batches,
        "n_diverted": result.n_diverted,
        "n_duplicates": result.n_duplicates,
        "n_drives": store.n_drives,
        "restored": checkpoint is not None,
        "resumed_at": result.resumed_at,
        "elapsed_seconds": time.perf_counter() - t0,
    }


# --------------------------------------------------------------------------
# the plane: supervised fan-out + deterministic merge
# --------------------------------------------------------------------------


@dataclass
class ShardedReplayResult:
    """Merged outcome of a sharded replay.

    ``probability`` is in source-row order (the per-shard outputs are
    merged by their global row indices), so it compares elementwise
    against a serial replay or the offline pipeline — the shard-count
    byte-identity gate.  ``accepted_index`` maps each probability to its
    source row, exactly like a guarded serial replay.
    """

    probability: np.ndarray
    accepted_index: np.ndarray
    n_events: int
    n_rows: int
    n_shards: int
    n_diverted: int
    n_duplicates: int
    elapsed_seconds: float
    shards: list[dict] = field(default_factory=list)

    @property
    def n_restored(self) -> int:
        """Shards that failed over from a checkpoint (chaos drills)."""
        return sum(1 for s in self.shards if s.get("restored"))

    @property
    def events_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.n_events / self.elapsed_seconds


def _source_rows(source: DriveDayDataset | str | Path) -> int:
    if isinstance(source, DriveDayDataset):
        return len(source)
    return sum(
        len(chunk["drive_id"])
        for chunk in iter_drive_day_chunks(source, chunk_rows=65536)
    )


def read_plane_manifest(root: str | Path) -> dict:
    """Load ``plane.json``; raises :class:`ShardError` when unusable."""
    path = Path(root) / _PLANE_MANIFEST
    try:
        body = json.loads(path.read_text())
    except FileNotFoundError:
        raise ShardError(
            f"{path} does not exist — not a shard plane directory"
        ) from None
    except (OSError, ValueError) as exc:
        raise ShardError(f"{path} is unreadable: {exc}") from None
    if not isinstance(body, dict) or "n_shards" not in body:
        raise ShardError(f"{path} is not a plane manifest")
    # Every cross-run reader comes through here: a plane written under
    # another layout or partition hash is refused, never re-read.
    if body.get("schema_version") != SHARD_SCHEMA_VERSION:
        raise ShardError(
            f"{path} has plane schema v{body.get('schema_version')}, "
            f"this build speaks v{SHARD_SCHEMA_VERSION}"
        )
    try:
        PartitionMap.from_dict(body["partition"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ShardError(f"{path}: {exc}") from None
    return body


def _write_plane_manifest(
    root: Path, n_shards: int, n_rows: int, chunk_rows: int
) -> None:
    body = {
        "schema_version": SHARD_SCHEMA_VERSION,
        "created": now(),
        "n_shards": n_shards,
        "partition": PartitionMap(n_shards).to_dict(),
        "n_rows": n_rows,
        "chunk_rows": chunk_rows,
    }
    with atomic_write(root / _PLANE_MANIFEST, "w") as fh:
        fh.write(json.dumps(body, indent=2, sort_keys=True) + "\n")


def run_sharded_replay(
    predictor: FailurePredictor,
    source: DriveDayDataset | str | Path,
    n_shards: int,
    plane: str | Path,
    chunk_rows: int = 4096,
    checkpoint_every: int | None = None,
    checkpoint_keep: int = DEFAULT_CHECKPOINT_KEEP,
    workers: int | None = None,
    policy: Any | None = None,
    supervision: Any | None = None,
) -> ShardedReplayResult:
    """Replay a trace through ``n_shards`` supervised scorer shards.

    One supervised pool task per shard; the predictor and trace handle
    install once per worker.  Quarantine is forced off (a missing shard
    would be a silent hole in the merged scores), so a shard that still
    fails after the policy's retries raises — the caller sees exit code
    2 through the CLI, never partial output.

    ``workers`` bounds the concurrently *running* shards; any value
    produces the same bytes.  With ``REPRO_CHAOS=shard_kill=…`` set,
    planned victims SIGKILL themselves mid-stream and are healed by the
    supervisor's retry via checkpoint failover — this needs
    ``workers >= 2`` (an in-process shard never injects the kill).

    ``plane`` must not hold shard state yet: a shard task treats the
    checkpoints it finds as its own killed attempt's, so a previous
    run's would be "restored" instead of replayed.  The check runs here,
    once, before any task starts, so a retried shard still finds its
    own checkpoints.
    """
    if n_shards < 1:
        raise ShardError("n_shards must be >= 1")
    plane = Path(plane)
    used = sorted(p.name for p in plane.glob("shard-*"))
    if used:
        raise ShardError(
            f"plane {plane} already holds shard state ({', '.join(used)}) "
            "from an earlier run — use a fresh plane directory"
        )
    from ..resilience.supervisor import (
        SupervisorPolicy,
        force_fail,
        supervised_iter_tasks,
    )

    t0 = time.perf_counter()
    plane.mkdir(parents=True, exist_ok=True)
    n_rows = _source_rows(source)
    _write_plane_manifest(plane, n_shards, n_rows, chunk_rows)
    plan = {
        "root": str(plane),
        "n_shards": n_shards,
        "chunk_rows": chunk_rows,
        "checkpoint_every": checkpoint_every,
        "checkpoint_keep": checkpoint_keep,
        "n_rows": n_rows,
    }
    results: list[dict | None] = [None] * n_shards
    for index, result in supervised_iter_tasks(
        _run_shard,
        list(range(n_shards)),
        workers=workers,
        policy=force_fail(policy or SupervisorPolicy()),
        label="repro.serve.shard",
        initializer=_set_shard_state,
        initargs=(predictor, source, plan),
        supervision=supervision,
    ):
        results[index] = result
    missing = [i for i, r in enumerate(results) if r is None]
    if missing:  # pragma: no cover - force_fail raises before this
        raise ShardError(f"shards {missing} produced no result")

    all_idx = np.concatenate([r["accepted_global"] for r in results])
    all_p = np.concatenate([r["probability"] for r in results])
    order = np.argsort(all_idx, kind="stable")
    summaries = [
        {k: v for k, v in r.items() if k not in ("probability", "accepted_global")}
        for r in results
    ]
    return ShardedReplayResult(
        probability=all_p[order],
        accepted_index=all_idx[order],
        n_events=int(all_p.shape[0]),
        n_rows=n_rows,
        n_shards=n_shards,
        n_diverted=sum(r["n_diverted"] for r in results),
        n_duplicates=sum(r["n_duplicates"] for r in results),
        elapsed_seconds=time.perf_counter() - t0,
        shards=summaries,
    )


def _journal_merge(
    root: str | Path, values: Callable[[int, list[dict]], Any]
) -> list:
    """Pair every journal record of each shard with one item of
    ``values(shard_id, records)`` and return the items in canonical
    ``(drive_id, age_days, seq)`` order of their records.

    Each drive lived on exactly one shard, and its journal records that
    drive's events in admission (= stream) order; sorting the union by
    ``(drive_id, age_days, seq)`` therefore reconstructs the canonical
    ``(drive, day)`` trace order with per-drive order preserved — the
    property the reshard identity gate rests on (and the hypothesis
    suite pins).
    """
    manifest = read_plane_manifest(root)
    keyed: list[tuple[int, int, int, Any]] = []
    for shard_id in range(int(manifest["n_shards"])):
        journal = ShardPaths(Path(root), shard_id).journal
        records = EventJournal.read(journal) if journal.exists() else []
        for body, value in zip(records, values(shard_id, records), strict=True):
            event = body["event"]
            keyed.append((int(event["drive_id"]), int(event["age_days"]), int(body["seq"]), value))
    keyed.sort(key=lambda item: item[:3])
    return [value for *_, value in keyed]


def plane_scores(root: str | Path) -> np.ndarray:
    """Merged probabilities of a completed plane, in canonical order.

    Reads each shard's scores from its newest checkpoint (every
    completed shard writes a final one) and merges them in journal
    order, one score per journal record — for a trace in stored order,
    the merge :func:`run_sharded_replay` performs in memory,
    reconstructed from disk.  The reshard parity gate compares against
    this.  A shard whose journal and scores disagree in length is
    refused.
    """

    def scores(shard_id: int, records: list[dict]) -> np.ndarray:
        checkpoint = latest_snapshot(ShardPaths(Path(root), shard_id).checkpoint_base)
        if checkpoint is None:
            raise ShardError(
                f"shard {shard_id} of {root} has no checkpoint — the plane "
                "never completed a sharded replay"
            )
        cut = _restore(checkpoint).cut
        probability = cut.get("scores", np.empty(0))
        if len(probability) != len(records):
            raise ShardError(
                f"shard {shard_id} of {root}: checkpoint {checkpoint} holds "
                f"{len(probability)} score(s) for {len(records)} journal "
                "record(s) — the plane is inconsistent"
            )
        return probability

    return np.asarray(_journal_merge(root, scores), dtype=np.float64)


# --------------------------------------------------------------------------
# resharding: N -> M through the journals
# --------------------------------------------------------------------------


def merged_plane_events(root: str | Path) -> list[dict]:
    """All accepted events of a plane, in canonical trace order (see
    :func:`_journal_merge`)."""
    return _journal_merge(root, lambda _, records: [body["event"] for body in records])


def _dataset_from_events(events: list[dict]) -> DriveDayDataset:
    if not events:
        return DriveDayDataset({})
    names = list(events[0].keys())
    columns = {
        name: np.asarray([event[name] for event in events])
        for name in names
    }
    return DriveDayDataset(columns)


def reshard_plane(
    old_plane: str | Path,
    new_plane: str | Path,
    predictor: FailurePredictor,
    n_shards: int,
    **kwargs: Any,
) -> ShardedReplayResult:
    """Rebalance an N-shard plane onto ``n_shards`` new shards.

    Merges the old shards' journals into canonical per-drive event
    order and replays the stream through the new partition map into a
    fresh plane directory.  The merged scores are byte-identical to
    both the old plane's and a serial replay of the original trace —
    the reshard identity gate.
    """
    old_plane, new_plane = Path(old_plane), Path(new_plane)
    if old_plane.resolve() == new_plane.resolve():
        raise ShardError(
            "reshard needs a fresh plane directory (old checkpoints "
            "belong to the old partition map)"
        )
    events = merged_plane_events(old_plane)
    dataset = _dataset_from_events(events)
    return run_sharded_replay(
        predictor, dataset, n_shards, new_plane, **kwargs
    )


# --------------------------------------------------------------------------
# plane status rollup
# --------------------------------------------------------------------------


def plane_status(root: str | Path) -> dict:
    """Aggregate every shard's ``status.json`` into one rollup payload.

    The rollup mimics a single status heartbeat (``health``, ``slo``,
    summed counters) so the existing
    :func:`repro.serve.health.status_exit_code` contract applies
    unchanged, and adds a ``shards`` table keyed by shard directory.
    """
    from .health import aggregate_statuses

    root = Path(root)
    statuses: dict[str, dict] = {}
    for shard_dir in sorted(root.glob("shard-*")):
        status_file = shard_dir / "status.json"
        if status_file.is_file():
            statuses[shard_dir.name] = load_status(status_file)
    if not statuses:
        raise ValueError(
            f"{root} contains no shard status files (shard-*/status.json)"
        )
    rollup = aggregate_statuses(statuses)
    try:
        manifest = read_plane_manifest(root)
    except ShardError:
        manifest = None
    if manifest is not None:
        rollup["plane"] = {
            "n_shards": manifest.get("n_shards"),
            "n_rows": manifest.get("n_rows"),
            "partition": manifest.get("partition"),
        }
    return rollup
