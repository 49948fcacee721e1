"""Snapshot rotation and keep-last-K retention for serving state.

``serve replay --snapshot-every`` used to overwrite a single snapshot
path; a long-lived shard instead rotates *generations* so a crash while
writing generation ``g`` still leaves ``g-1`` restorable:

- each write goes to ``<stem>-g<NNNNNN><suffix>`` via an atomic
  write-fsync-rename, so a generation either exists completely or not
  at all;
- only after the new generation is durable are generations older than
  the newest ``keep`` pruned — retention can never drop the only good
  copy;
- :func:`latest_snapshot` resolves either an exact file or a rotation
  base path to the newest durable generation, which is what crash
  failover restores from.

Rotation is also the shard plane's *compaction* story: a shard
checkpoint is a replay snapshot, which records the replay's cut (its
stream position, scores and counts) at write time, so restoring from
the newest generation re-scores only the rows after it — the scoring a
restore redoes is bounded by the checkpoint cadence, not by the shard's
lifetime.  :meth:`repro.serve.feature_store.FeatureStore.restore`
resolves a rotation base through :func:`latest_snapshot`, so every
``--restore`` accepts one.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Callable

__all__ = [
    "generation_path",
    "list_generations",
    "latest_snapshot",
    "prune_generations",
    "write_rotated",
]

_GEN_RE = re.compile(r"-g(\d{6,})$")


def generation_path(base: Path, generation: int) -> Path:
    """Path of one rotated generation of ``base``.

    ``store.npz`` → ``store-g000001.npz``.  The generation number is
    zero-padded so lexicographic and numeric order agree.
    """
    if generation < 0:
        raise ValueError("generation must be >= 0")
    base = Path(base)
    return base.with_name(f"{base.stem}-g{generation:06d}{base.suffix}")


def list_generations(base: Path) -> list[tuple[int, Path]]:
    """All durable generations of ``base``, oldest first."""
    base = Path(base)
    out: list[tuple[int, Path]] = []
    if not base.parent.is_dir():
        return out
    for path in base.parent.iterdir():
        if path.suffix != base.suffix or not path.is_file():
            continue
        m = _GEN_RE.search(path.stem)
        if m is None or path.stem[: m.start()] != base.stem:
            continue
        out.append((int(m.group(1)), path))
    out.sort()
    return out


def latest_snapshot(path: Path) -> Path | None:
    """Resolve ``path`` to the newest durable snapshot, if any.

    Accepts either an exact snapshot file (returned as-is when it
    exists) or a rotation base whose newest generation wins.  When both
    exist the newer mtime is irrelevant — an exact file is an explicit
    choice and takes priority.
    """
    path = Path(path)
    if path.is_file():
        return path
    gens = list_generations(path)
    if gens:
        return gens[-1][1]
    return None


def prune_generations(base: Path, keep: int) -> list[Path]:
    """Delete generations older than the newest ``keep``; return them.

    Call only after the newest generation is durable — the caller's
    write must have completed (atomically) first.
    """
    if keep < 1:
        raise ValueError("keep must be >= 1")
    gens = list_generations(base)
    doomed = [p for _, p in gens[:-keep]] if len(gens) > keep else []
    for path in doomed:
        path.unlink(missing_ok=True)
    return doomed


def write_rotated(
    base: Path,
    save: Callable[[Path], None],
    keep: int | None = None,
) -> Path:
    """Write the next generation of ``base`` via ``save``, then prune.

    ``save(path)`` must write atomically (the serving snapshots all go
    through ``atomic_save_npz``).  Pruning runs strictly after ``save``
    returns, so older generations are only dropped once the newer one is
    fully durable.  Returns the path written.
    """
    gens = list_generations(base)
    generation = gens[-1][0] + 1 if gens else 1
    target = generation_path(base, generation)
    save(target)
    if keep is not None:
        prune_generations(base, keep)
    return target
