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
        checkpoint-g000001.npz # store state + score prefix, rotated
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
   restoring its newest checkpoint — one atomic NPZ holding the feature
   store *and* the score prefix, a consistent cut — cutting its journal
   and DLQ back to that cut, and resuming the trace at the checkpoint's
   stream position.  Output is byte-identical to a never-crashed run.
3. **Reshard identity.**  An N→M reshard merges the old shards'
   journals back into canonical ``(drive_id, age_days)`` order — every
   drive lived on exactly one shard, so per-drive order is preserved —
   and replays through the new partition map; byte-identical again.

Each shard task drives its engine with the same chunk step
(:meth:`~repro.serve.engine.ScoringEngine.absorb`) a serial replay
runs, so scores, counters and telemetry are booked one way everywhere.
"""

from __future__ import annotations

import json
import os
import signal
import time
import zipfile
from dataclasses import dataclass, field
from multiprocessing import parent_process
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from ..core.predictor import FailurePredictor
from ..data.dataset import DriveDayDataset
from ..data.io import iter_drive_day_chunks
from ..data.npz import atomic_save_npz
from ..errors import ReproError
from ..obs import eventlog
from ..obs.durable import JsonlError, atomic_write, now
from ..resilience.chaos import planned_shard_kill, shard_spec_from_env
from .dlq import DeadLetterQueue, EventJournal
from .engine import ScoringEngine, TelemetryConfig
from .feature_store import FeatureStore, FeatureStoreError
from .guard import AdmissionGuard
from .health import ServeBreaker, load_status
from .partition import PARTITION_VERSION, PartitionMap
from .snapshots import latest_snapshot, write_rotated

__all__ = [
    "SHARD_SCHEMA_VERSION",
    "ShardError",
    "ShardPaths",
    "ShardCheckpoint",
    "ShardedReplayResult",
    "run_sharded_replay",
    "reshard_plane",
    "merged_plane_events",
    "read_plane_manifest",
    "plane_scores",
    "plane_status",
]

#: Bump when the checkpoint or plane layout changes incompatibly.
SHARD_SCHEMA_VERSION = 1

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


# --------------------------------------------------------------------------
# shard checkpoint: store state + score prefix in one atomic NPZ
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardCheckpoint:
    """One consistent cut of a shard: store state + everything scored.

    The feature store alone is not enough to fail over — scores produced
    before a crash die with the process.  A shard checkpoint therefore
    bundles, in a single atomic NPZ:

    - the store's :meth:`~repro.serve.feature_store.FeatureStore.state_arrays`;
    - the probability prefix and the global source rows it scored;
    - the shard's stream position (``rows_seen``, counting diverted
      and duplicate rows) and the journal/DLQ line counts at the cut —
      a restore cuts both logs back to them and resumes the trace at
      ``rows_seen``;
    - ``clean``: whether the shard had seen zero diverted/duplicate
      events (kept for the layout; a restore does not read it).
    """

    path: Path
    store_arrays: dict[str, np.ndarray]
    probability: np.ndarray
    accepted_global: np.ndarray
    shard_id: int
    n_shards: int
    rows_seen: int
    journal_lines: int
    dlq_lines: int
    clean: bool


def _save_checkpoint(
    path: Path,
    store: FeatureStore,
    probability: np.ndarray,
    accepted_global: np.ndarray,
    shard_id: int,
    n_shards: int,
    rows_seen: int,
    journal_lines: int,
    dlq_lines: int,
    clean: bool,
) -> None:
    meta = np.array(
        [
            SHARD_SCHEMA_VERSION,
            PARTITION_VERSION,
            shard_id,
            n_shards,
            rows_seen,
            journal_lines,
            dlq_lines,
            1 if clean else 0,
        ],
        dtype=np.int64,
    )
    atomic_save_npz(
        path,
        shard_meta=meta,
        shard_probability=np.asarray(probability, dtype=np.float64),
        shard_accepted_global=np.asarray(accepted_global, dtype=np.int64),
        **store.state_arrays(),
    )


def load_checkpoint(path: str | Path) -> ShardCheckpoint:
    """Read one checkpoint generation; raises :class:`ShardError`."""
    path = Path(path)
    try:
        with np.load(path) as payload:
            arrays = {k: payload[k] for k in payload.files}
    except (OSError, ValueError, zipfile.BadZipFile, EOFError) as exc:
        raise ShardError(
            f"shard checkpoint {path} is unreadable ({exc})"
        ) from None
    for key in ("shard_meta", "shard_probability", "shard_accepted_global"):
        if key not in arrays:
            raise ShardError(f"shard checkpoint {path} is missing {key!r}")
    meta = arrays["shard_meta"]
    if int(meta[0]) != SHARD_SCHEMA_VERSION:
        raise ShardError(
            f"shard checkpoint {path} has schema v{int(meta[0])}, "
            f"this build speaks v{SHARD_SCHEMA_VERSION}"
        )
    if int(meta[1]) != PARTITION_VERSION:
        raise ShardError(
            f"shard checkpoint {path} was partitioned under version "
            f"{int(meta[1])}, this build speaks {PARTITION_VERSION}"
        )
    store_arrays = {
        k: v
        for k, v in arrays.items()
        if not k.startswith("shard_")
    }
    return ShardCheckpoint(
        path=path,
        store_arrays=store_arrays,
        probability=arrays["shard_probability"],
        accepted_global=arrays["shard_accepted_global"],
        shard_id=int(meta[2]),
        n_shards=int(meta[3]),
        rows_seen=int(meta[4]),
        journal_lines=int(meta[5]),
        dlq_lines=int(meta[6]),
        clean=bool(meta[7]),
    )


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


def _maybe_kill_point(paths: ShardPaths, shard_id: int, plan: dict) -> int | None:
    """Planned SIGKILL threshold (in sub-stream rows), or ``None``.

    Fires only inside a pool worker process (a serial in-process shard
    must never SIGKILL the caller) and only once per shard — the
    on-disk marker written just before the kill gates the retry.
    """
    if parent_process() is None:
        return None
    if paths.chaos_marker.exists():
        return None
    spec, seed = shard_spec_from_env()
    if not spec:
        return None
    frac = planned_shard_kill(shard_id, spec, seed)
    if frac is None:
        return None
    share = max(1, int(plan["n_rows"]) // max(1, int(plan["n_shards"])))
    return max(1, int(frac * share))


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
    filtered sub-stream is still grouped and age-sorted), and feeds them
    to the shard's guarded engine one chunk step
    (:meth:`ScoringEngine.absorb`) at a time.

    If a checkpoint exists (a previous attempt was killed), the shard
    **fails over**: restore the newest checkpoint, cut the journal/DLQ
    back to the checkpoint cut, and resume the trace at the restored
    stream position, re-scoring only the rows since the cut.  Scores
    are byte-identical to a never-crashed run in all cases.
    """
    t0 = time.perf_counter()
    n_shards = int(plan["n_shards"])
    pmap = PartitionMap(n_shards)
    paths = ShardPaths(Path(plan["root"]), shard_id)
    paths.dir.mkdir(parents=True, exist_ok=True)
    checkpoint_every = plan.get("checkpoint_every")
    checkpoint_keep = plan.get("checkpoint_keep") or DEFAULT_CHECKPOINT_KEEP

    # ---------------------------------------------------------- failover
    ckpt_path = latest_snapshot(paths.checkpoint_base)
    ckpt = load_checkpoint(ckpt_path) if ckpt_path is not None else None
    if ckpt is not None and (
        ckpt.shard_id != shard_id or ckpt.n_shards != n_shards
    ):
        raise ShardError(
            f"checkpoint {ckpt.path} belongs to shard {ckpt.shard_id}/"
            f"{ckpt.n_shards}, not {shard_id}/{n_shards} — refusing to "
            "restore across a reshard (use a fresh plane directory)"
        )
    # Opening the logs drops a torn tail (a kill mid append) before
    # anything below counts or cuts them.
    dlq = DeadLetterQueue(paths.dlq)
    journal = EventJournal(paths.journal)
    if ckpt is None:
        # A first attempt killed before any checkpoint may have left
        # journal/DLQ lines; the retry starts from scratch, so cut both
        # back to empty or the re-run would record every event twice.
        store = FeatureStore()
        prob_parts: list[np.ndarray] = []
        idx_parts: list[np.ndarray] = []
        resume_at = keep_journal = keep_dlq = 0
    else:
        try:
            store = FeatureStore.from_arrays(
                ckpt.store_arrays, source=f"shard checkpoint {ckpt.path}"
            )
        except FeatureStoreError as exc:
            raise ShardError(str(exc)) from None
        prob_parts = [np.asarray(ckpt.probability, dtype=np.float64)]
        idx_parts = [np.asarray(ckpt.accepted_global, dtype=np.int64)]
        resume_at = ckpt.rows_seen
        # Events past the cut re-append (with identical seq numbers) as
        # the trace re-supplies them below.
        keep_journal, keep_dlq = ckpt.journal_lines, ckpt.dlq_lines
    try:
        journal.truncate(keep_journal)
        dlq.truncate(keep_dlq)
    except JsonlError as exc:
        raise ShardError(f"shard {shard_id}: {exc}") from None

    guard = AdmissionGuard(store, dlq=dlq, journal=journal, breaker=ServeBreaker())
    engine = ScoringEngine(
        predictor,
        store=store,
        guard=guard,
        workers=1,
        telemetry=TelemetryConfig(status_path=paths.status),
    )
    kill_at = _maybe_kill_point(paths, shard_id, plan)

    # ---------------------------------------------------------- stream
    chunks = iter_drive_day_chunks(
        source, chunk_rows=int(plan.get("chunk_rows") or 4096)
    )
    n_batches = 0
    accepted_since_ckpt = 0
    base_row = 0  # global row of the current chunk's first row
    sub_pos = 0  # sub-stream rows seen so far (including skipped)

    def write_checkpoint() -> None:
        write_rotated(
            paths.checkpoint_base,
            lambda p: _save_checkpoint(
                p,
                store,
                np.concatenate(prob_parts) if prob_parts else np.empty(0),
                np.concatenate(idx_parts)
                if idx_parts
                else np.empty(0, dtype=np.int64),
                shard_id,
                n_shards,
                sub_pos,
                journal.appended,
                dlq.appended,
                clean=(
                    dlq.appended == 0
                    and guard.stats.duplicates_dropped == 0
                    and (ckpt is None or ckpt.clean)
                ),
            ),
            keep=checkpoint_keep,
        )

    for chunk in chunks:
        ids = np.asarray(chunk["drive_id"])
        n_chunk = ids.shape[0]
        mask = pmap.shard_of_array(ids) == shard_id
        length = int(mask.sum())
        if length == 0:
            base_row += n_chunk
            continue
        rows = np.arange(base_row, base_row + n_chunk, dtype=np.int64)
        base_row += n_chunk
        if length == n_chunk:
            sub = dict(chunk)
            g = rows
        else:
            sub = {k: np.asarray(v)[mask] for k, v in chunk.items()}
            g = rows[mask]
        lo, hi = sub_pos, sub_pos + length
        sub_pos = hi
        if hi <= resume_at:
            continue
        if lo < resume_at:
            cut = resume_at - lo
            sub = {k: v[cut:] for k, v in sub.items()}
            g = g[cut:]
        step = engine.absorb(sub)
        if step.n_events:
            prob_parts.append(step.probability)
            idx_parts.append(g[step.accepted_index])
            n_batches += 1
            accepted_since_ckpt += step.n_events
        if (
            checkpoint_every is not None
            and accepted_since_ckpt >= checkpoint_every
        ):
            write_checkpoint()
            accepted_since_ckpt = 0
        if kill_at is not None and hi >= kill_at:
            # Chaos: mark first (the marker gates the retry), then die
            # without warning — the supervisor must heal this.
            with atomic_write(paths.chaos_marker, "w") as fh:
                fh.write(f"killed at sub-stream row {hi}\n")
            os.kill(os.getpid(), signal.SIGKILL)

    # Final checkpoint: makes a later restore (or resumed plane) read
    # one NPZ, however long the shard lived.
    write_checkpoint()

    probability = (
        np.concatenate(prob_parts) if prob_parts else np.empty(0)
    )
    accepted_global = (
        np.concatenate(idx_parts)
        if idx_parts
        else np.empty(0, dtype=np.int64)
    )
    n_accepted = int(probability.shape[0])
    status = engine.status()
    status["shard"] = {
        "shard_id": shard_id,
        "n_shards": n_shards,
        "partition_version": PARTITION_VERSION,
        "rows_seen": sub_pos,
        "accepted": n_accepted,
        "restored": ckpt is not None,
        "resumed_at": resume_at,
    }
    with atomic_write(paths.status, "w") as fh:
        fh.write(json.dumps(status, indent=2, sort_keys=True) + "\n")
    eventlog.emit(
        "serve.shard.done",
        f"shard {shard_id}/{n_shards} scored {n_accepted} events",
        shard_id=shard_id,
        restored=ckpt is not None,
        resumed_at=resume_at,
    )
    return {
        "shard_id": shard_id,
        "probability": probability,
        "accepted_global": accepted_global,
        "rows_seen": sub_pos,
        "n_batches": n_batches,
        #: Cumulative across attempts: the DLQ file survives failover,
        #: and every sub-stream row was accepted, dead-lettered or
        #: dropped as a duplicate.
        "n_diverted": dlq.appended,
        "n_duplicates": sub_pos - n_accepted - dlq.appended,
        "n_drives": store.n_drives,
        "restored": ckpt is not None,
        "resumed_at": resume_at,
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


def plane_scores(root: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Merged ``(probability, accepted_index)`` of a completed plane.

    Reads each shard's newest checkpoint (every completed shard writes a
    final one) and merges by global row — the same merge
    :func:`run_sharded_replay` performs in memory, reconstructed from
    disk.  The reshard parity gate compares against this.
    """
    manifest = read_plane_manifest(root)
    prob_parts: list[np.ndarray] = []
    idx_parts: list[np.ndarray] = []
    for shard_id in range(int(manifest["n_shards"])):
        paths = ShardPaths(Path(root), shard_id)
        ckpt_path = latest_snapshot(paths.checkpoint_base)
        if ckpt_path is None:
            raise ShardError(
                f"shard {shard_id} of {root} has no checkpoint — the plane "
                "never completed a sharded replay"
            )
        ckpt = load_checkpoint(ckpt_path)
        prob_parts.append(np.asarray(ckpt.probability, dtype=np.float64))
        idx_parts.append(np.asarray(ckpt.accepted_global, dtype=np.int64))
    probability = np.concatenate(prob_parts)
    index = np.concatenate(idx_parts)
    order = np.argsort(index, kind="stable")
    return probability[order], index[order]


# --------------------------------------------------------------------------
# resharding: N -> M through the journals
# --------------------------------------------------------------------------


def merged_plane_events(root: str | Path) -> list[dict]:
    """All accepted events of a plane, in canonical trace order.

    Each drive lived on exactly one shard, and its journal records that
    drive's events in admission (= stream) order; sorting the union by
    ``(drive_id, age_days, seq)`` therefore reconstructs the canonical
    ``(drive, day)`` trace order with per-drive order preserved — the
    property the reshard identity gate rests on (and the hypothesis
    suite pins).
    """
    manifest = read_plane_manifest(root)
    keyed: list[tuple[int, int, int, dict]] = []
    for shard_id in range(int(manifest["n_shards"])):
        paths = ShardPaths(Path(root), shard_id)
        if not paths.journal.exists():
            continue
        for body in EventJournal.read(paths.journal):
            event = body["event"]
            keyed.append(
                (
                    int(event["drive_id"]),
                    int(event["age_days"]),
                    int(body["seq"]),
                    event,
                )
            )
    keyed.sort(key=lambda item: item[:3])
    return [event for _, _, _, event in keyed]


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
