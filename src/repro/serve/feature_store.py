"""Incremental per-drive feature state for online scoring.

The batch path (:func:`repro.core.features.build_features`) recomputes
lifetime-cumulative counters over the whole sorted dataset.  Online, a
drive-day arrives one event at a time; the :class:`FeatureStore` keeps
one running-sum vector per drive and produces feature rows through the
*same* kernel (:func:`repro.core.features.assemble_features`), so a
row's value depends only on the record and the drive's cumulative
counters — never on which path accumulated them.  Counter columns are
integer-valued (see ``core.features``), so float64 running sums match
the batch prefix sums bit-for-bit.

Two ingest shapes share one code path:

- :meth:`FeatureStore.ingest` — a single record mapping (the stdin
  transport of ``serve run``);
- :meth:`FeatureStore.ingest_columns` — a column-dict chunk in
  ``(drive_id, age_days)`` order (the replay/backfill hot path), which
  folds whole per-drive runs with vectorized segment cumsums.

State snapshots go through :func:`repro.data.npz.atomic_save_npz`
— deterministic bytes (rows sorted by drive id, fixed zip timestamps), so
``snapshot → restore → snapshot`` round-trips bit-identically and a
SIGKILLed server resumes with exactly the scores it would have produced.
"""

from __future__ import annotations

import threading
import zipfile
from collections.abc import Mapping
from pathlib import Path
from typing import Any

import numpy as np

from ..core.features import (
    DAILY_FEATURE_SOURCES,
    assemble_features,
    feature_names,
    feature_schema_hash,
    fused_feature_matrix,
)
from ..data.npz import atomic_save_npz
from ..errors import ReproError

__all__ = [
    "FeatureStoreError",
    "SchemaMismatchError",
    "OutOfOrderError",
    "FeatureStore",
]

_N_SOURCES = len(DAILY_FEATURE_SOURCES)


class FeatureStoreError(RuntimeError, ReproError):
    """A feature-store snapshot is unreadable or inconsistent."""


class SchemaMismatchError(FeatureStoreError):
    """Persisted state was built for a different feature layout."""


class OutOfOrderError(FeatureStoreError):
    """A record arrived for a drive-day older than already-absorbed state.

    Cumulative features fold left over age; replaying the past into a
    live store would silently double-count, so the store refuses.

    Carries the triage context as attributes (``None`` when unknown):
    ``drive_id`` (which drive rewound), ``age_days`` (the offending
    record's age), and ``watermark`` (the age the store had already
    absorbed for that drive) — so field triage can answer "which drive,
    how late, against what state" straight from the exception.
    """

    def __init__(
        self,
        message: str,
        *,
        drive_id: int | None = None,
        age_days: int | None = None,
        watermark: int | None = None,
    ):
        super().__init__(message)
        self.drive_id = drive_id
        self.age_days = age_days
        self.watermark = watermark


class FeatureStore:
    """Per-drive cumulative state + the online feature extractor.

    Thread-safe: ingest and snapshot take an internal lock, so a
    snapshot taken concurrently with ingestion is always a consistent
    prefix of the event stream.
    """

    def __init__(self, capacity: int = 256):
        self.schema_hash = feature_schema_hash()
        self._lock = threading.Lock()
        self._index: dict[int, int] = {}
        self._cum = np.zeros((max(capacity, 1), _N_SOURCES), dtype=np.float64)
        self._last_age = np.full(max(capacity, 1), -1, dtype=np.int64)
        self._rows = np.zeros(max(capacity, 1), dtype=np.int64)
        self.events_total = 0
        #: drive_id -> digest of the last absorbed event, written by the
        #: admission guard on accept (never by plain ingest).  Lives on
        #: the store so snapshots persist it: duplicate detection at the
        #: watermark boundary survives ``snapshot``/``restore`` — an
        #: idempotent re-delivery after a restart still classifies as
        #: ``duplicate``, not ``conflict``.
        self.boundary_digests: dict[int, str] = {}
        #: The cut of the snapshot this store was restored from: where the
        #: replay that wrote it stood (its :data:`CUT_ARRAYS`, as far as
        #: the snapshot records them; empty for one that records none).
        #: ``None`` on a fresh store.  :meth:`ScoringEngine.replay
        #: <repro.serve.engine.ScoringEngine.replay>` resumes from it and
        #: clears it, so it is consumed once.
        self.cut: dict[str, np.ndarray] | None = None

    # ------------------------------------------------------------------ state
    def __len__(self) -> int:
        return len(self._index)

    @property
    def n_drives(self) -> int:
        return len(self._index)

    def _grow(self, need: int) -> None:
        cap = self._cum.shape[0]
        if need <= cap:
            return
        new_cap = max(cap * 2, need)
        cum = np.zeros((new_cap, _N_SOURCES), dtype=np.float64)
        cum[:cap] = self._cum
        last = np.full(new_cap, -1, dtype=np.int64)
        last[:cap] = self._last_age
        rows = np.zeros(new_cap, dtype=np.int64)
        rows[:cap] = self._rows
        self._cum, self._last_age, self._rows = cum, last, rows

    def _slot(self, drive_id: int) -> int:
        slot = self._index.get(drive_id)
        if slot is None:
            slot = len(self._index)
            self._grow(slot + 1)
            self._index[drive_id] = slot
        return slot

    def watermark(self, drive_id: int) -> int:
        """Last absorbed ``age_days`` for one drive (``-1`` if unseen)."""
        with self._lock:
            slot = self._index.get(int(drive_id))
            return -1 if slot is None else int(self._last_age[slot])

    def watermarks(self, drive_ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`watermark` lookup (``-1`` for unseen drives).

        Does *not* allocate slots for unseen drives — the admission
        guard classifies against this without mutating the store.
        """
        with self._lock:
            out = np.full(len(drive_ids), -1, dtype=np.int64)
            for i, d in enumerate(drive_ids):
                slot = self._index.get(int(d))
                if slot is not None:
                    out[i] = self._last_age[slot]
            return out

    def drive_state(self, drive_id: int) -> dict[str, Any] | None:
        """Cumulative counters + bookkeeping for one drive (copy)."""
        with self._lock:
            slot = self._index.get(int(drive_id))
            if slot is None:
                return None
            return {
                "cumulative": dict(
                    zip(DAILY_FEATURE_SOURCES, self._cum[slot].tolist())
                ),
                "last_age_days": int(self._last_age[slot]),
                "n_records": int(self._rows[slot]),
            }

    # ------------------------------------------------------------------ ingest
    def ingest(self, record: Mapping[str, Any]) -> np.ndarray:
        """Absorb one drive-day record; returns its feature row.

        ``record`` maps column names to scalars (the full daily schema:
        identity, workload, status, bad-block and error columns).
        """
        with self._lock:
            drive_id = int(record["drive_id"])
            age = int(record["age_days"])
            slot = self._slot(drive_id)
            if age < self._last_age[slot]:
                watermark = int(self._last_age[slot])
                raise OutOfOrderError(
                    f"drive {drive_id}: record for age {age}d arrived "
                    f"{watermark - age}d late (state already at watermark "
                    f"{watermark}d)",
                    drive_id=drive_id,
                    age_days=age,
                    watermark=watermark,
                )
            daily = np.empty((1, _N_SOURCES), dtype=np.float64)
            for j, src in enumerate(DAILY_FEATURE_SOURCES):
                daily[0, j] = record[src]
            self._cum[slot] += daily[0]
            self._last_age[slot] = age
            self._rows[slot] += 1
            self.events_total += 1
            bad = float(record["factory_bad_blocks"]) + float(
                record["grown_bad_blocks"]
            )
            return assemble_features(
                daily,
                self._cum[slot][None, :].copy(),
                age_days=np.array([age], dtype=np.float64),
                pe_cycles=np.array([float(record["pe_cycles"])]),
                bad_blocks=np.array([bad]),
                status_read_only=np.array(
                    [float(record["status_read_only"])]
                ),
                status_dead=np.array([float(record["status_dead"])]),
            )[0]

    def ingest_columns(self, cols: Mapping[str, np.ndarray]) -> np.ndarray:
        """Absorb a chunk of records; returns the ``(m, k)`` feature rows.

        Rows must be grouped by drive with ages non-decreasing inside
        each group — the order :func:`repro.data.iter_drive_day_chunks`
        streams and any per-day batch trivially satisfies.  Whole
        per-drive runs fold in one vectorized pass: a chunk-local segment
        cumsum plus the drive's carried-in baseline.
        """
        ids = np.asarray(cols["drive_id"]).astype(np.int64, copy=False)
        m = ids.shape[0]
        if m == 0:
            return np.empty((0, len(feature_names())))
        age = np.asarray(cols["age_days"]).astype(np.int64, copy=False)
        with self._lock:
            # Segment boundaries of the per-drive runs inside this chunk.
            change = np.flatnonzero(ids[1:] != ids[:-1]) + 1
            starts = np.concatenate(([0], change))
            ends = np.concatenate((change, [m]))
            run_ids = ids[starts]
            if len(np.unique(run_ids)) != len(run_ids):
                raise OutOfOrderError(
                    "chunk interleaves records of the same drive; rows must "
                    "be grouped by drive (stream them in (drive, day) order)"
                )
            # Ages must be non-decreasing within each run …
            inner_ok = (ids[1:] != ids[:-1]) | (age[1:] >= age[:-1])
            if not bool(np.all(inner_ok)):
                row = int(np.flatnonzero(~inner_ok)[0]) + 1
                raise OutOfOrderError(
                    f"drive {int(ids[row])}: chunk rows are not age-sorted "
                    f"within a drive run (age {int(age[row])}d follows "
                    f"{int(age[row - 1])}d)",
                    drive_id=int(ids[row]),
                    age_days=int(age[row]),
                    watermark=int(age[row - 1]),
                )
            slots = np.fromiter(
                (self._slot(int(d)) for d in run_ids),
                dtype=np.int64,
                count=len(run_ids),
            )
            # … and start at or after the state already absorbed.
            stale = age[starts] < self._last_age[slots]
            if bool(np.any(stale)):
                k = int(np.flatnonzero(stale)[0])
                bad = int(run_ids[k])
                bad_age = int(age[starts[k]])
                watermark = int(self._last_age[slots[k]])
                raise OutOfOrderError(
                    f"drive {bad}: chunk rewinds to age {bad_age}d, "
                    f"{watermark - bad_age}d older than the already-absorbed "
                    f"watermark {watermark}d",
                    drive_id=bad,
                    age_days=bad_age,
                    watermark=watermark,
                )
            # Chunk-local per-run prefix sums shifted by each run's
            # carried-in baseline, fused with matrix assembly — the same
            # kernel the batch path calls (see
            # :func:`repro.core.features.fused_feature_matrix`).
            X, run_totals = fused_feature_matrix(
                cols, starts, ends, carry_in=self._cum[slots]
            )
            # Carry the run totals into the store state.
            self._cum[slots] = run_totals
            self._last_age[slots] = age[ends - 1]
            self._rows[slots] += ends - starts
            self.events_total += m
            return X

    # ------------------------------------------------------------------ persistence
    #: Arrays every store snapshot must carry (a replay's cut rides
    #: along, see :data:`CUT_ARRAYS`).
    REQUIRED_ARRAYS = frozenset(
        {
            "schema_hash",
            "drive_id",
            "cumulative",
            "last_age_days",
            "n_records",
            "events_total",
        }
    )

    #: Arrays of a replay's cut, written next to the store state by
    #: :meth:`snapshot` and read back into :attr:`cut` (the engine builds
    #: and reads their contents).  Snapshots written before scores were
    #: recorded carry at most the first three.
    CUT_ARRAYS = (
        "rows_seen",
        "journal_lines",
        "dlq_lines",
        "scores",
        "score_rows",
        "diverted",
        "by_fault",
    )

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The store state as deterministic named arrays (copies).

        Drives are sorted by id, so equal states produce equal arrays.
        This is the single serialization schema: :meth:`snapshot` writes
        these arrays, and a replay's cut next to them, so one atomic NPZ
        captures a consistent cut of the whole replay.
        """
        with self._lock:
            ids = np.fromiter(
                self._index.keys(), dtype=np.int64, count=len(self._index)
            )
            slots = np.fromiter(
                self._index.values(), dtype=np.int64, count=len(self._index)
            )
            order = np.argsort(ids, kind="stable")
            ids, slots = ids[order], slots[order]
            digests = np.array(
                [self.boundary_digests.get(int(d), "") for d in ids],
                dtype="U64",
            )
            return {
                "schema_hash": np.frombuffer(
                    self.schema_hash.encode(), dtype=np.uint8
                ),
                "drive_id": ids,
                "cumulative": self._cum[slots].copy(),
                "last_age_days": self._last_age[slots].copy(),
                "n_records": self._rows[slots].copy(),
                "events_total": np.array([self.events_total], dtype=np.int64),
                "boundary_digest": digests,
            }

    def snapshot(
        self, path: str | Path, cut: Mapping[str, np.ndarray] | None = None
    ) -> Path:
        """Atomically persist the store state; returns the path.

        The snapshot is deterministic: drives are sorted by id and the
        NPZ writer pins zip timestamps, so equal states produce equal
        bytes (the chaos drill compares snapshot digests directly).
        ``cut`` (arrays named in :data:`CUT_ARRAYS`) records where a
        replay stood next to the state; a restore reads it into
        :attr:`cut`.
        """
        path = Path(path)
        atomic_save_npz(path, **self.state_arrays(), **(cut or {}))
        return path

    @classmethod
    def from_arrays(
        cls, arrays: Mapping[str, np.ndarray], source: str = "snapshot"
    ) -> "FeatureStore":
        """Rebuild a store from :meth:`state_arrays` output.

        ``source`` names the container in error messages (a standalone
        snapshot file or a shard checkpoint).  Schema-hash checked.
        """
        missing = cls.REQUIRED_ARRAYS - set(arrays)
        if missing:
            raise FeatureStoreError(
                f"{source} is missing arrays: {sorted(missing)}"
            )
        persisted = np.asarray(arrays["schema_hash"]).tobytes().decode()
        store = cls(capacity=max(len(arrays["drive_id"]), 1))
        if persisted != store.schema_hash:
            raise SchemaMismatchError(
                f"{source} was written for feature schema "
                f"{persisted[:12]}…, this build produces "
                f"{store.schema_hash[:12]}…; retrain/re-ingest instead of "
                "restoring"
            )
        ids = arrays["drive_id"]
        store._index = {int(d): i for i, d in enumerate(ids)}
        n = len(ids)
        store._cum[:n] = arrays["cumulative"]
        store._last_age[:n] = arrays["last_age_days"]
        store._rows[:n] = arrays["n_records"]
        store.events_total = int(arrays["events_total"][0])
        # Optional for snapshots written before boundary digests were
        # persisted — those restore with duplicate detection cold.
        if "boundary_digest" in arrays:
            store.boundary_digests = {
                int(d): str(s)
                for d, s in zip(ids, arrays["boundary_digest"])
                if s
            }
        store.cut = {k: arrays[k] for k in cls.CUT_ARRAYS if k in arrays}
        return store

    @classmethod
    def restore(cls, path: str | Path) -> "FeatureStore":
        """Rebuild a store from a snapshot file; schema-hash checked.

        ``path`` is a snapshot file or a rotation base, which resolves
        to its newest generation (:func:`repro.serve.snapshots.latest_snapshot`).
        """
        from .snapshots import latest_snapshot

        path = latest_snapshot(Path(path)) or Path(path)
        try:
            with np.load(path) as payload:
                arrays = {k: payload[k] for k in payload.files}
        except (OSError, ValueError, zipfile.BadZipFile, EOFError) as exc:
            raise FeatureStoreError(
                f"feature-store snapshot {path} is unreadable ({exc})"
            ) from None
        return cls.from_arrays(arrays, source=f"snapshot {path}")
