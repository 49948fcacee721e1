"""Drive-ID hash partitioning for the sharded serving plane.

A fleet-scale scoring tier is a set of shard processes, each owning a
disjoint subset of drives.  The partition function must be

- **total** — every drive id maps to exactly one shard in ``[0, n)``;
- **stable** — the mapping depends only on ``(drive_id, n_shards)``,
  never on process state, insertion order, or platform hash seeds
  (``PYTHONHASHSEED`` must not matter); and
- **order-preserving per drive** — all events of one drive land on one
  shard, so the (drive, age)-sorted sub-stream each shard sees keeps
  the per-drive event order of the source trace.

Those three properties are what make the byte-identity guarantees of
:mod:`repro.serve.shard` possible: scores are per-row, the partition is
pure in the drive id, and merging per-shard outputs back into source-row
order reproduces the serial replay bit for bit — for any shard count and
across an N→M reshard.

The hash is a splitmix64 finalizer over the drive id, evaluated in
vectorized ``uint64`` arithmetic (wraparound multiplication is exact and
platform-independent).  splitmix64 avalanches every input bit across the
word, so consecutive drive ids — the common case for simulated fleets —
spread uniformly instead of striping.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PARTITION_VERSION",
    "PartitionMap",
    "drive_shard",
    "drive_shards",
    "sub_stream",
]

#: Bump when the hash function changes — a plane's journals and
#: checkpoints are only replayable under the partition version that
#: wrote them.
PARTITION_VERSION = 1

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over a ``uint64`` array."""
    with np.errstate(over="ignore"):
        x = x + _GOLDEN
        x = (x ^ (x >> np.uint64(30))) * _MIX1
        x = (x ^ (x >> np.uint64(27))) * _MIX2
        return x ^ (x >> np.uint64(31))


def drive_shards(drive_ids: np.ndarray, n_shards: int) -> np.ndarray:
    """Vectorized shard assignment for an array of drive ids.

    Returns an ``int64`` array of shard indices in ``[0, n_shards)``.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    ids = np.asarray(drive_ids).astype(np.uint64, copy=False)
    if n_shards == 1:
        return np.zeros(ids.shape, dtype=np.int64)
    return (_mix64(ids) % np.uint64(n_shards)).astype(np.int64)


def drive_shard(drive_id: int, n_shards: int) -> int:
    """Shard index for a single drive id (scalar convenience)."""
    return int(drive_shards(np.asarray([drive_id], dtype=np.uint64), n_shards)[0])


@dataclass(frozen=True)
class PartitionMap:
    """A versioned, pure mapping from drive id to shard index."""

    n_shards: int
    version: int = PARTITION_VERSION

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.version != PARTITION_VERSION:
            raise ValueError(
                f"unsupported partition version {self.version} "
                f"(this build speaks version {PARTITION_VERSION})"
            )

    def shard_of(self, drive_id: int) -> int:
        return drive_shard(drive_id, self.n_shards)

    def shard_of_array(self, drive_ids: np.ndarray) -> np.ndarray:
        return drive_shards(drive_ids, self.n_shards)

    def to_dict(self) -> dict:
        return {"n_shards": self.n_shards, "version": self.version}

    @classmethod
    def from_dict(cls, payload: dict) -> "PartitionMap":
        return cls(
            n_shards=int(payload["n_shards"]),
            version=int(payload.get("version", PARTITION_VERSION)),
        )


def sub_stream(
    chunks: Iterable[dict[str, np.ndarray]],
    pmap: PartitionMap,
    shard_id: int,
    source_rows: list[np.ndarray],
) -> Iterator[dict[str, np.ndarray]]:
    """One shard's rows of a column-chunk stream, as column chunks.

    Keeps the rows whose drive hashes to ``shard_id``, in the stream's
    own order, so a (drive, age)-sorted stream stays (drive, age)-sorted
    per shard; chunks left empty are skipped.  Appends each kept chunk's
    source rows (their indices in the whole stream) to ``source_rows``,
    which the merge step uses to restore source-row order.
    """
    base = 0
    for chunk in chunks:
        ids = np.asarray(chunk["drive_id"])
        mask = pmap.shard_of_array(ids) == shard_id
        kept = np.flatnonzero(mask)
        if kept.size:
            source_rows.append(base + kept)
            yield chunk if kept.size == ids.shape[0] else {k: np.asarray(v)[mask] for k, v in chunk.items()}
        base += ids.shape[0]
