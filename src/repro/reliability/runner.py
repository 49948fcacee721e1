"""Crash-safe execution: atomic writes, retries, resumable simulation.

Three building blocks, used by :mod:`repro.data.io` and the CLI:

- :func:`atomic_write` (re-exported from :mod:`repro.obs.durable`, the
  one atomic write) / :func:`atomic_save_npz` (re-exported from
  :mod:`repro.data.npz`, built on it) — tmp-file + ``fsync`` + rename,
  so a killed process never leaves a half-written artifact where a
  reader expects a whole one;
- :func:`retry_io` — bounded retries with exponential backoff + jitter
  for transient I/O failures (network filesystems, busy volumes);
- :func:`simulate_fleet_resumable` — chunked, checkpointed fleet
  simulation.  The chunks it has not cached run on the simulator's one
  chunk loop, the one :func:`repro.simulator.simulate_fleet` runs, so
  the resumable path is bit-identical to the one-shot path: a run killed
  at any point and resumed with ``--resume`` produces the same trace as
  an uninterrupted run with the same seed.
"""

from __future__ import annotations

import json
import time
import zipfile
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields
from hashlib import sha256
from pathlib import Path
from typing import Any

import numpy as np

from ..data import DriveDayDataset, DriveTable, SwapLog
from ..data.npz import atomic_save_npz
from ..obs import metrics, tracing
from ..obs.durable import atomic_write
from ..parallel import resolve_workers
from ..resilience.supervisor import (
    QuarantinedRunError,
    SupervisionLog,
    SupervisorPolicy,
)
from ..simulator import DriveModelSpec, FleetConfig, FleetTrace, default_models
from ..simulator.fleet import _simulate_chunks, concat_traces

__all__ = [
    "atomic_write",
    "atomic_save_npz",
    "retry_io",
    "CheckpointStore",
    "simulate_fleet_resumable",
]


def retry_io(
    fn: Callable[[], Any],
    retries: int = 4,
    base_delay: float = 0.05,
    max_delay: float = 2.0,
    jitter: float = 0.5,
    exceptions: tuple[type[BaseException], ...] = (OSError,),
    sleep: Callable[[float], None] = time.sleep,
    rng: np.random.Generator | None = None,
) -> Any:
    """Call ``fn`` with exponential backoff + jitter on transient errors.

    Delay before attempt ``k`` (1-based retry) is
    ``min(base_delay * 2**(k-1), max_delay) * (1 + U(0, jitter))``.
    The last failure is re-raised once ``retries`` are exhausted.
    """
    rng = rng or np.random.default_rng()
    attempt = 0
    while True:
        try:
            return fn()
        except exceptions:
            attempt += 1
            if attempt > retries:
                raise
            delay = min(base_delay * (2 ** (attempt - 1)), max_delay)
            sleep(delay * (1.0 + jitter * float(rng.random())))


# --------------------------------------------------------------------------
# checkpointed simulation
# --------------------------------------------------------------------------

_MANIFEST = "manifest.json"


def _config_digest(
    config: FleetConfig, models: tuple[DriveModelSpec, ...]
) -> str:
    """Stable fingerprint of everything that shapes the trace."""
    payload = {
        "config": asdict(config),
        "models": [asdict(m) for m in models],
    }
    return sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


@dataclass
class CheckpointStore:
    """Chunk files + manifest under one checkpoint directory.

    Layout: ``<dir>/manifest.json`` plus ``<dir>/chunk_<i>.npz`` with
    prefixed keys (``rec_*``, ``drv_*``, ``swp_*``).  Every write is
    atomic, so a crash leaves either a complete chunk or none.
    """

    directory: Path
    digest: str
    n_chunks: int

    @property
    def manifest_path(self) -> Path:
        return self.directory / _MANIFEST

    def chunk_path(self, index: int) -> Path:
        return self.directory / f"chunk_{index:05d}.npz"

    # -- manifest ---------------------------------------------------------
    def write_manifest(self, completed: list[int]) -> None:
        body = {
            "digest": self.digest,
            "n_chunks": self.n_chunks,
            "completed": sorted(completed),
        }
        with atomic_write(self.manifest_path, "w") as fh:
            json.dump(body, fh)

    def read_completed(self) -> list[int]:
        """Chunk indices recorded complete by a compatible previous run.

        Returns ``[]`` (fresh start) when there is no manifest, it is
        unreadable, or it was written for a different config/seed.
        """
        try:
            body = json.loads(self.manifest_path.read_text())
        except (OSError, ValueError):
            return []
        if body.get("digest") != self.digest or body.get("n_chunks") != self.n_chunks:
            return []
        return [int(i) for i in body.get("completed", []) if 0 <= int(i) < self.n_chunks]

    # -- chunks -----------------------------------------------------------
    def save_chunk(self, index: int, trace: FleetTrace) -> None:
        arrays = {f"rec_{name}": arr for name, arr in trace.records.items()}
        for prefix, table in (("drv", trace.drives), ("swp", trace.swaps)):
            for f in fields(table):
                arrays[f"{prefix}_{f.name}"] = getattr(table, f.name)
        retry_io(lambda: atomic_save_npz(self.chunk_path(index), **arrays))

    def load_chunk(self, index: int, config: FleetConfig) -> FleetTrace | None:
        """Load one chunk; ``None`` when missing or unreadable."""
        path = self.chunk_path(index)
        try:
            with np.load(path) as payload:
                rec = {
                    k[len("rec_"):]: payload[k]
                    for k in payload.files
                    if k.startswith("rec_")
                }
                drv = {
                    k[len("drv_"):]: payload[k]
                    for k in payload.files
                    if k.startswith("drv_")
                }
                swp = {
                    k[len("swp_"):]: payload[k]
                    for k in payload.files
                    if k.startswith("swp_")
                }
        except (OSError, ValueError, zipfile.BadZipFile, KeyError):
            return None
        if not drv or not swp:
            return None
        return FleetTrace(
            records=DriveDayDataset(rec, check_sorted=False)
            if rec
            else DriveDayDataset.empty(),
            drives=DriveTable(**drv),
            swaps=SwapLog(**swp),
            config=config,
        )

    def cleanup(self) -> None:
        """Remove every checkpoint artifact and the directory."""
        if not self.directory.exists():
            return
        for p in self.directory.glob("chunk_*.npz"):
            p.unlink(missing_ok=True)
        # A SIGKILL during an atomic chunk write leaves its tmp file
        # behind; without this sweep the rmdir below fails silently and
        # the checkpoint directory outlives a successful run.
        for p in self.directory.glob(".*.tmp.*"):
            p.unlink(missing_ok=True)
        self.manifest_path.unlink(missing_ok=True)
        try:
            self.directory.rmdir()
        except OSError:
            pass  # unexpected stray files: leave them for inspection


def simulate_fleet_resumable(
    config: FleetConfig | None = None,
    checkpoint_dir: str | Path = ".checkpoints",
    chunk_size: int = 64,
    resume: bool = False,
    models: tuple[DriveModelSpec, ...] | None = None,
    progress: Callable[[int, int], None] | None = None,
    workers: int | None = None,
    policy: SupervisorPolicy | None = None,
    supervision: SupervisionLog | None = None,
) -> FleetTrace:
    """Chunked, checkpointed drop-in for :func:`simulate_fleet`.

    Drives are simulated in chunks of ``chunk_size``; each finished
    chunk is persisted atomically under ``checkpoint_dir`` together with
    a manifest keyed by a config digest.  With ``resume=True``,
    previously completed chunks of a *compatible* run (same config,
    models and seed) are loaded instead of re-simulated; incompatible or
    damaged checkpoints are re-simulated from scratch.

    The still-missing chunks run on the simulator's chunk loop, across
    worker processes under ``workers > 1`` (or ``$REPRO_WORKERS`` set);
    every chunk owns its pre-spawned seed slice, so the trace — and
    every checkpoint file — is byte-identical to a serial run.
    Checkpoints are persisted by the parent in chunk order as results
    stream back, so a killed parallel run resumes exactly like a killed
    serial one.  Cached chunks report a ``repro.simulator.chunk`` span
    marked ``cached`` and are not counted as simulated drives.

    ``progress(done_chunks, n_chunks)`` is invoked after every chunk —
    the CLI uses it for status lines, the tests to kill the run
    mid-flight.  The caller is responsible for calling
    :meth:`CheckpointStore.cleanup` (or reusing the directory) after the
    final trace has been persisted.

    A :class:`~repro.resilience.SupervisorPolicy` routes chunk execution
    through the supervision layer (deadlines, deterministic retries,
    quarantine, circuit breaker); ``supervision`` receives the event log.
    Under ``on_poison="quarantine"`` every healthy chunk is simulated and
    checkpointed first, then :class:`~repro.resilience.QuarantinedRunError`
    is raised — the checkpoints survive, so fixing the fault and rerunning
    with ``--resume`` only redoes the poisoned chunks.

    Returns a trace bit-identical to ``simulate_fleet(config, models)``.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    config = config or FleetConfig()
    models = models or default_models()
    workers = resolve_workers(workers)
    n_total = config.n_drives_per_model * len(models)
    n_chunks = (n_total + chunk_size - 1) // chunk_size

    directory = Path(checkpoint_dir)
    directory.mkdir(parents=True, exist_ok=True)
    store = CheckpointStore(
        directory=directory,
        digest=_config_digest(config, models),
        n_chunks=n_chunks,
    )
    completed = set(store.read_completed()) if resume else set()
    if not resume:
        store.write_manifest([])

    parts: list[FleetTrace | None] = [None] * n_chunks
    done = 0

    def bounds(chunk: int) -> tuple[int, int, int]:
        lo = chunk * chunk_size
        return chunk, lo, min(lo + chunk_size, n_total)

    # Cached chunks first: loading is parent-side work (the store is not
    # shared with workers), and surfacing them early keeps the resume
    # path free of pool startup cost when everything is already done.
    for chunk in sorted(completed):
        _, lo, hi = bounds(chunk)
        part = store.load_chunk(chunk, config)
        if part is None:  # damaged checkpoint: re-simulate below
            completed.discard(chunk)
            continue
        with tracing.span("repro.simulator.chunk", n_drives=hi - lo) as sp:
            parts[chunk] = part
            sp.set(chunk=chunk, cached=True, rows_out=len(part.records))
        metrics.inc(
            "repro_chunks_total",
            help="Simulation chunks processed",
            outcome="cached",
        )
        done += 1
        if progress is not None:
            progress(done, n_chunks)

    todo = [bounds(chunk) for chunk in range(n_chunks) if parts[chunk] is None]
    log = supervision if supervision is not None else SupervisionLog()
    n_quarantined_before = len(log.quarantined)
    for chunk, part in _simulate_chunks(config, models, todo, workers, policy, log):
        store.save_chunk(chunk, part)
        completed.add(chunk)
        store.write_manifest(sorted(completed))
        parts[chunk] = part
        metrics.inc(
            "repro_chunks_total",
            help="Simulation chunks processed",
            outcome="simulated",
        )
        done += 1
        if progress is not None:
            progress(done, n_chunks)

    if len(log.quarantined) > n_quarantined_before:
        # Every healthy chunk is checkpointed above; report the poison
        # ones instead of assembling a trace with holes.
        n_bad = len(log.quarantined) - n_quarantined_before
        raise QuarantinedRunError(
            f"simulation finished with {n_bad} quarantined chunk(s) out of "
            f"{n_chunks}; completed chunks are checkpointed under "
            f"{directory} — rerun with --resume after fixing the fault",
            log=log,
            completed=len(completed),
            total=n_chunks,
        )
    return concat_traces(parts, config)
