"""Persistence for telemetry datasets and event tables.

NPZ is the native format (one compressed array per column — fast and exact).
CSV export is provided for interoperability with external tooling.

All NPZ writers go through :func:`repro.obs.durable.atomic_write`
(tmp file + fsync + rename): a killed process never leaves a
half-written trace behind.  The ``*_checked`` loaders additionally
validate raw columns *before* the dataset constructor's sanitizing
sort/cast, and apply a repair policy (``strict``/``repair``/
``quarantine``) — see :mod:`repro.reliability`.
"""

from __future__ import annotations

import csv
import zipfile
from collections.abc import Iterator
from dataclasses import fields
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import ReproError
from ..obs import metrics, tracing
from . import store
from .dataset import DriveDayDataset
from .npz import atomic_save_npz
from .tables import DriveTable, SwapLog

__all__ = [
    "TraceIntegrityError",
    "save_dataset_npz",
    "load_dataset_npz",
    "load_dataset_checked",
    "load_raw_columns_npz",
    "iter_drive_day_chunks",
    "iter_drive_days",
    "export_dataset_csv",
    "save_swaplog_npz",
    "load_swaplog_npz",
    "save_drivetable_npz",
    "load_drivetable_npz",
]


def _readonly_view(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr`` (the backing buffer is shared).

    Chunk iteration yields views into live storage — dataset columns or
    memory-mapped store sections — so consumers must never write through
    them.  Marking every yielded chunk read-only makes that contract
    enforced instead of conventional, and uniform across sources (the
    file-backed paths were already read-only; in-memory slices were not).
    """
    view = arr[:]
    view.flags.writeable = False
    return view


class TraceIntegrityError(OSError, ReproError):
    """An NPZ artifact is missing, truncated, or otherwise unreadable."""


def _load_npz(path: str | Path) -> dict[str, np.ndarray]:
    """Read every array of an NPZ or columnar store file.

    Low-level failures map to :class:`TraceIntegrityError` with an
    actionable message.  Store files (sniffed by magic) come back at
    their *logical* dtypes, so every loader built on this helper accepts
    either format transparently.
    """
    path = Path(path)
    if not path.exists():
        raise TraceIntegrityError(
            f"trace file {path} does not exist (run `repro-ssd simulate` "
            "or check the --trace path)"
        )
    if store.is_store_file(path):
        return store.open_store_columns(path, widen=True)
    try:
        with np.load(path) as payload:
            return {k: payload[k] for k in payload.files}
    except (zipfile.BadZipFile, ValueError, EOFError, OSError) as exc:
        raise TraceIntegrityError(
            f"trace file {path} is corrupt or truncated ({exc}); "
            "re-run the producing command — writes are atomic, so this "
            "usually means the file was damaged after it was written"
        ) from None


def save_dataset_npz(dataset: DriveDayDataset, path: str | Path) -> None:
    """Atomically write a :class:`DriveDayDataset` to a ``.npz`` file."""
    with tracing.span("repro.data.save_records", rows_in=len(dataset)):
        atomic_save_npz(Path(path), **{k: v for k, v in dataset.items()})
    metrics.inc("repro_rows_total", len(dataset), stage="data.save_records")


def load_dataset_npz(path: str | Path) -> DriveDayDataset:
    """Load a dataset previously written by :func:`save_dataset_npz`."""
    with tracing.span("repro.data.load_records") as sp:
        dataset = DriveDayDataset(_load_npz(path))
        sp.set(rows_out=len(dataset))
    metrics.inc("repro_rows_total", len(dataset), stage="data.load_records")
    return dataset


def load_raw_columns_npz(path: str | Path) -> dict[str, np.ndarray]:
    """Load raw record columns without the dataset's sanitizing sort/cast.

    This is the entry point for validation: corruption such as
    out-of-order rows or wrong dtypes must be *seen*, not silently fixed
    by the constructor.
    """
    return _load_npz(path)


def load_dataset_checked(
    path: str | Path,
    policy: str = "strict",
    max_gap_days: int | None = None,
):
    """Load + validate a dataset under a repair policy.

    Returns a :class:`repro.reliability.repair.RepairResult` whose
    ``dataset`` is ready for the pipeline.  Raises
    :class:`TraceIntegrityError` for unreadable files and
    :class:`repro.reliability.repair.TraceValidationError` when the
    ``strict`` policy rejects the content.
    """
    from ..reliability.repair import apply_policy

    with tracing.span("repro.data.load_checked") as sp:
        cols = load_raw_columns_npz(path)
        rows_in = int(next(iter(cols.values())).shape[0]) if cols else 0
        result = apply_policy(cols, policy=policy, max_gap_days=max_gap_days)
        sp.set(
            rows_in=rows_in,
            rows_out=len(result.dataset),
            n_quarantined=result.n_quarantined,
        )
    metrics.inc(
        "repro_rows_quarantined_total",
        result.n_quarantined,
        help="Rows marked untrusted by the quarantine policy",
    )
    return result


class _ColumnStream:
    """One NPZ entry opened for incremental decompression.

    ``zipfile`` hands back a streaming file object per entry; after the
    ``.npy`` header is parsed, fixed-size reads yield contiguous row
    slices without ever holding the whole column in memory.
    """

    def __init__(self, zf: zipfile.ZipFile, entry: str):
        self.name = entry[: -len(".npy")]
        self.fp = zf.open(entry)
        version = np.lib.format.read_magic(self.fp)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(self.fp)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(self.fp)
        else:  # pragma: no cover - numpy only emits 1.0/2.0 today
            raise TraceIntegrityError(
                f"column {entry!r} uses unsupported npy format {version}"
            )
        if len(shape) != 1 or fortran or dtype.hasobject:
            raise TraceIntegrityError(
                f"column {self.name!r} is not a streamable 1-D array "
                f"(shape={shape}, dtype={dtype})"
            )
        self.n_rows = shape[0]
        self.dtype = dtype

    def read(self, n: int) -> np.ndarray:
        data = self.fp.read(n * self.dtype.itemsize)
        if len(data) != n * self.dtype.itemsize:
            raise TraceIntegrityError(
                f"column {self.name!r} is truncated mid-stream"
            )
        return np.frombuffer(data, dtype=self.dtype)


def iter_drive_day_chunks(
    source: DriveDayDataset | str | Path, chunk_rows: int = 4096
) -> Iterator[dict[str, np.ndarray]]:
    """Stream a telemetry dataset as column-dict chunks in row order.

    Rows arrive in the stored ``(drive_id, age_days)`` order, at most
    ``chunk_rows`` per chunk.  Given an NPZ path, the entries are
    decompressed incrementally — peak memory is ``O(chunk_rows ×
    n_columns)``, not the full trace — which is what lets ``serve
    replay`` stream fleet-scale traces through the online feature store.
    Given a columnar store path (``repro.data.store``), chunks are
    zero-copy slices of the memory-mapped sections at their storage
    dtypes — no decompression and no buffer copies at all.  Given an
    in-memory dataset, chunks are zero-copy column slices.

    All yielded arrays are read-only, whatever the source: they are
    views into live storage, and a consumer writing through them would
    corrupt the trace (or crash on a mapped file).
    """
    if chunk_rows < 1:
        raise ValueError("chunk_rows must be >= 1")
    if isinstance(source, DriveDayDataset):
        n = len(source)
        for lo in range(0, n, chunk_rows):
            hi = min(lo + chunk_rows, n)
            yield {k: _readonly_view(v[lo:hi]) for k, v in source.items()}
        return
    path = Path(source)
    if not path.exists():
        raise TraceIntegrityError(
            f"trace file {path} does not exist (run `repro-ssd simulate` "
            "or check the --trace path)"
        )
    if store.is_store_file(path):
        cols = store.open_store_columns(path, widen=False)
        n = int(next(iter(cols.values())).shape[0]) if cols else 0
        for lo in range(0, n, chunk_rows):
            hi = min(lo + chunk_rows, n)
            yield {k: v[lo:hi] for k, v in cols.items()}
        return
    try:
        with zipfile.ZipFile(path) as zf:
            streams = [
                _ColumnStream(zf, entry)
                for entry in zf.namelist()
                if entry.endswith(".npy")
            ]
            if not streams:
                return
            n = streams[0].n_rows
            for s in streams:
                if s.n_rows != n:
                    raise TraceIntegrityError(
                        f"column {s.name!r} has {s.n_rows} rows, expected {n}"
                    )
            done = 0
            while done < n:
                take = min(chunk_rows, n - done)
                yield {s.name: s.read(take) for s in streams}
                done += take
    except (zipfile.BadZipFile, ValueError, EOFError, OSError) as exc:
        raise TraceIntegrityError(
            f"trace file {path} is corrupt or truncated ({exc}); "
            "re-run the producing command — writes are atomic, so this "
            "usually means the file was damaged after it was written"
        ) from None


def iter_drive_days(
    source: DriveDayDataset | str | Path, chunk_rows: int = 4096
) -> Iterator[dict[str, Any]]:
    """Yield one record dict per drive-day, in ``(drive_id, age_days)`` order.

    Built on :func:`iter_drive_day_chunks`, so a path is streamed without
    materializing the full arrays.  Values are NumPy scalars (exact — no
    float round-trips), keyed by column name.
    """
    for chunk in iter_drive_day_chunks(source, chunk_rows=chunk_rows):
        names = list(chunk)
        cols = [chunk[name] for name in names]
        for i in range(len(cols[0])):
            yield {name: col[i] for name, col in zip(names, cols)}


def export_dataset_csv(
    dataset: DriveDayDataset, path: str | Path, max_rows: int | None = None
) -> int:
    """Export a dataset to CSV; returns the number of rows written.

    ``max_rows`` caps output size (the full trace can be tens of millions of
    rows; CSV export is intended for samples and debugging).
    """
    names = dataset.column_names
    n = len(dataset) if max_rows is None else min(len(dataset), max_rows)
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        cols = [dataset[name] for name in names]
        for i in range(n):
            writer.writerow([col[i] for col in cols])
    return n


def _table_columns(table: SwapLog | DriveTable) -> dict[str, np.ndarray]:
    """A table's columns by name, in dataclass field order."""
    return {f.name: getattr(table, f.name) for f in fields(table)}


def _load_table(path: str | Path, cls: type, stage: str, what: str) -> Any:
    """Load a table written by :func:`_table_columns`; ``what`` names it."""
    names = [f.name for f in fields(cls)]
    with tracing.span(stage) as sp:
        payload = _load_npz(path)
        first = payload.get(names[0])
        sp.set(rows_out=int(first.shape[0]) if first is not None else 0)
    try:
        return cls(*(payload[c] for c in names))
    except KeyError as exc:
        kind = what.replace(" ", "-")
        raise TraceIntegrityError(
            f"{what} {path} is missing column {exc}; not a {kind} NPZ?"
        ) from None


def save_swaplog_npz(log: SwapLog, path: str | Path) -> None:
    """Atomically write a :class:`SwapLog` to a ``.npz`` file."""
    atomic_save_npz(Path(path), **_table_columns(log))


def load_swaplog_npz(path: str | Path) -> SwapLog:
    """Load a swap log previously written by :func:`save_swaplog_npz`."""
    return _load_table(path, SwapLog, "repro.data.load_swaps", "swap log")


def save_drivetable_npz(table: DriveTable, path: str | Path) -> None:
    """Atomically write a :class:`DriveTable` to a ``.npz`` file."""
    atomic_save_npz(Path(path), **_table_columns(table))


def load_drivetable_npz(path: str | Path) -> DriveTable:
    """Load a drive table previously written by :func:`save_drivetable_npz`."""
    return _load_table(path, DriveTable, "repro.data.load_drives", "drive table")
