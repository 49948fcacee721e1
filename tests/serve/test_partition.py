"""Property tests for the drive-ID hash partition.

The whole sharded-serving design rests on four properties of the
partition map, so they are pinned with hypothesis rather than examples:

- **total**: every drive id maps to exactly one shard in ``[0, N)``;
- **stable/pure**: the mapping is a pure function of ``(drive_id,
  n_shards)`` — no process state, no ordering dependence — so two
  processes (or two runs years apart) route a drive identically;
- **vector/scalar agreement**: the numpy fast path and the scalar
  helper are the same function;
- **reshard order preservation**: re-partitioning a (drive, age)-sorted
  stream from N to M shards never reorders, loses, or duplicates a
  drive's events — each drive rides exactly one shard under each map,
  so per-drive order survives any N→M move.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.partition import (
    PARTITION_VERSION,
    PartitionMap,
    drive_shard,
    drive_shards,
    sub_stream,
)

drive_ids = st.integers(min_value=0, max_value=2**62)
shard_counts = st.integers(min_value=1, max_value=16)


class TestHashProperties:
    @given(st.lists(drive_ids, min_size=1, max_size=200), shard_counts)
    @settings(max_examples=50, deadline=None)
    def test_total_and_in_range(self, ids, n):
        shards = drive_shards(np.asarray(ids, dtype=np.int64), n)
        assert shards.shape == (len(ids),)
        assert shards.dtype == np.int64
        assert np.all((shards >= 0) & (shards < n))

    @given(drive_ids, shard_counts)
    @settings(max_examples=100, deadline=None)
    def test_stable_and_pure(self, did, n):
        first = drive_shard(did, n)
        assert drive_shard(did, n) == first
        assert PartitionMap(n).shard_of(did) == first

    @given(st.lists(drive_ids, min_size=1, max_size=100), shard_counts)
    @settings(max_examples=50, deadline=None)
    def test_vector_matches_scalar(self, ids, n):
        arr = np.asarray(ids, dtype=np.int64)
        vec = drive_shards(arr, n)
        assert [drive_shard(i, n) for i in ids] == vec.tolist()

    @given(st.lists(drive_ids, min_size=1, max_size=100))
    @settings(max_examples=25, deadline=None)
    def test_single_shard_maps_everything_to_zero(self, ids):
        assert not drive_shards(np.asarray(ids, dtype=np.int64), 1).any()

    def test_spread_is_reasonable(self):
        # Not a statistical test — just a tripwire against a degenerate
        # hash (e.g. modulo on sequential ids collapsing to one shard).
        ids = np.arange(10_000, dtype=np.int64)
        counts = np.bincount(drive_shards(ids, 8), minlength=8)
        assert counts.min() > 800


class TestPartitionMap:
    def test_round_trips_through_dict(self):
        pmap = PartitionMap(4)
        assert PartitionMap.from_dict(pmap.to_dict()) == pmap

    def test_version_mismatch_rejected(self):
        body = PartitionMap(4).to_dict()
        body["version"] = PARTITION_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            PartitionMap.from_dict(body)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            PartitionMap(0)


@st.composite
def sorted_streams(draw):
    """A (drive_id, age_days)-sorted stream with per-drive runs."""
    n_drives = draw(st.integers(min_value=1, max_value=12))
    ids = draw(
        st.lists(
            drive_ids, min_size=n_drives, max_size=n_drives, unique=True
        )
    )
    stream_ids: list[int] = []
    stream_ages: list[int] = []
    for did in sorted(ids):
        n_days = draw(st.integers(min_value=1, max_value=8))
        start = draw(st.integers(min_value=0, max_value=100))
        stream_ids.extend([did] * n_days)
        stream_ages.extend(range(start, start + n_days))
    return (
        np.asarray(stream_ids, dtype=np.int64),
        np.asarray(stream_ages, dtype=np.int64),
    )


class TestReshardOrder:
    @given(sorted_streams(), shard_counts, shard_counts)
    @settings(max_examples=50, deadline=None)
    def test_n_to_m_preserves_per_drive_order(self, stream, n, m):
        # Row-index model of the journal-merge reshard: each old shard
        # journals its sub-stream in stream order; the merge sorts the
        # union by (drive_id, age_days); the result replays at M.
        ids, ages = stream
        rows = np.arange(len(ids), dtype=np.int64)
        old = drive_shards(ids, n)
        merged = sorted(
            (int(r) for s in range(n) for r in rows[old == s]),
            key=lambda r: (int(ids[r]), int(ages[r])),
        )
        # The canonical-sort merge reconstructs the source stream
        # exactly: no loss, no duplication, original order (per-drive
        # order was never broken — each drive rode one old shard).
        assert merged == rows.tolist()
        # Replaying the merged stream through the M-map is therefore
        # identical to having partitioned the original stream at M.
        new = drive_shards(ids, m)
        for s in range(m):
            replayed = [r for r in merged if new[r] == s]
            assert replayed == rows[new == s].tolist()

    @given(sorted_streams(), shard_counts)
    @settings(max_examples=50, deadline=None)
    def test_shards_cover_stream_exactly(self, stream, n):
        ids, _ = stream
        shards = drive_shards(ids, n)
        total = sum(int((shards == s).sum()) for s in range(n))
        assert total == len(ids)
        # Per-drive: all of a drive's events land on one shard.
        for did in np.unique(ids):
            assert len(np.unique(shards[ids == did])) == 1


class TestSubStream:
    @given(sorted_streams(), shard_counts, st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_sub_streams_cover_the_stream_in_source_order(self, stream, n, chunk_rows):
        ids, ages = stream
        chunks = [
            {"drive_id": ids[lo : lo + chunk_rows], "age_days": ages[lo : lo + chunk_rows]}
            for lo in range(0, len(ids), chunk_rows)
        ]
        seen = []
        for shard_id in range(n):
            rows: list[np.ndarray] = []
            subs = list(sub_stream(chunks, PartitionMap(n), shard_id, rows))
            got = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
            # Global rows follow source order and point back at the
            # source rows the sub-stream carries.
            assert np.all(np.diff(got) > 0)
            for key, column in (("drive_id", ids), ("age_days", ages)):
                carried = [sub[key] for sub in subs]
                np.testing.assert_array_equal(
                    np.concatenate(carried) if carried else column[:0], column[got]
                )
            assert np.all(drive_shards(ids[got], n) == shard_id)
            seen.extend(got.tolist())
        # Every source row lands on exactly one shard.
        assert sorted(seen) == list(range(len(ids)))
