"""Sharded serving plane: the PR 9 acceptance gates.

What is pinned here, in order of importance:

- **shard-count byte-identity**: a sharded replay at 1, 2, or 4 shards
  merges to exactly the serial replay's bytes (and hence the offline
  pipeline's — the existing parity gate composes);
- **SIGKILL failover identity**: a shard killed mid-stream by
  ``REPRO_CHAOS=shard_kill`` is healed by the supervisor retry via
  checkpoint restore + trace resume, and the merged output is
  byte-identical to a never-crashed run;
- **reshard identity**: replaying an N-shard plane's journals through an
  M-shard partition map reproduces the same bytes;
- the checkpoint's cut round trip and every refusal of an unusable
  checkpoint or plane, plane manifest/status plumbing, and the failover
  cut-back (:meth:`repro.obs.durable.JsonlLog.truncate`), including
  failover over a torn journal tail.
"""

from __future__ import annotations

import json
import multiprocessing

import numpy as np
import pytest

from repro.data.dataset import DriveDayDataset
from repro.obs.durable import JsonlError, JsonlLog
from repro.resilience import ENV_CHAOS, ENV_CHAOS_SEED
from repro.serve import (
    FeatureStore,
    ShardError,
    merged_plane_events,
    plane_scores,
    plane_status,
    read_plane_manifest,
    reshard_plane,
    run_sharded_replay,
)
from repro.serve.health import status_exit_code
from repro.serve.partition import PartitionMap
from repro.serve.shard import SHARD_SCHEMA_VERSION, ShardPaths, run_shard_task
from repro.serve.snapshots import latest_snapshot

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="chaos injection rides the fork start method",
)

#: Probed chaos config whose kill lands *between* checkpoints on both
#: shards, so a restore resumes mid-stream (not just a full restart):
#: seed 0 with these strides resumes both shards past row 0.
TAIL_KILL_ENV = {
    ENV_CHAOS: "shard_kill=1.0",
    ENV_CHAOS_SEED: "0",
}
TAIL_KILL_KW = {"checkpoint_every": 900, "chunk_rows": 512, "workers": 2}


class TestShardCountIdentity:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_sharded_replay_matches_offline(
        self, tmp_path, serve_trace, predictor, offline_probs, n_shards
    ):
        result = run_sharded_replay(
            predictor,
            serve_trace.records,
            n_shards,
            tmp_path / "plane",
            chunk_rows=512,
        )
        assert result.n_shards == n_shards
        assert result.n_events == len(offline_probs)
        assert result.n_diverted == 0
        assert result.n_restored == 0
        assert np.array_equal(
            result.accepted_index, np.arange(len(offline_probs))
        )
        # The gate: merged bytes equal the offline pipeline's.
        assert np.array_equal(result.probability, offline_probs)

    def test_chunk_rows_do_not_change_bytes(
        self, tmp_path, serve_trace, predictor, offline_probs
    ):
        result = run_sharded_replay(
            predictor, serve_trace.records, 2, tmp_path / "p", chunk_rows=333
        )
        assert np.array_equal(result.probability, offline_probs)

    def test_checkpointing_does_not_change_bytes(
        self, tmp_path, serve_trace, predictor, offline_probs
    ):
        result = run_sharded_replay(
            predictor,
            serve_trace.records,
            2,
            tmp_path / "p",
            chunk_rows=512,
            checkpoint_every=700,
        )
        assert np.array_equal(result.probability, offline_probs)

    def test_plane_scores_reconstructs_merge_from_disk(
        self, tmp_path, serve_trace, predictor, offline_probs
    ):
        plane = tmp_path / "plane"
        run_sharded_replay(
            predictor, serve_trace.records, 3, plane, chunk_rows=512
        )
        assert plane_scores(plane).tobytes() == offline_probs.tobytes()

    def test_rejects_zero_shards(self, tmp_path, serve_trace, predictor):
        with pytest.raises(ShardError, match="n_shards"):
            run_sharded_replay(
                predictor, serve_trace.records, 0, tmp_path / "p"
            )


@fork_only
class TestFailoverIdentity:
    def test_sigkill_heals_byte_identical(
        self, tmp_path, serve_trace, predictor, offline_probs, monkeypatch
    ):
        for key, value in TAIL_KILL_ENV.items():
            monkeypatch.setenv(key, value)
        plane = tmp_path / "plane"
        result = run_sharded_replay(
            predictor, serve_trace.records, 2, plane, **TAIL_KILL_KW
        )
        # Every shard was a planned victim (frac=1.0): each must have
        # actually died (marker on disk) and failed over.
        for shard_id in range(2):
            assert ShardPaths(plane, shard_id).chaos_marker.exists()
        assert result.n_restored == 2
        # At this probed config the kill lands between checkpoints, so
        # each restore resumed mid-stream (not from row 0).
        assert all(0 < s["resumed_at"] < s["rows_seen"] for s in result.shards)
        assert np.array_equal(result.probability, offline_probs)
        assert np.array_equal(
            result.accepted_index, np.arange(len(offline_probs))
        )

    def test_kill_without_checkpoints_restarts_from_zero(
        self, tmp_path, serve_trace, predictor, offline_probs, monkeypatch
    ):
        # No checkpoint_every: the victim leaves nothing behind, and
        # failover degrades to a clean from-scratch rerun of the shard.
        for key, value in TAIL_KILL_ENV.items():
            monkeypatch.setenv(key, value)
        result = run_sharded_replay(
            predictor,
            serve_trace.records,
            2,
            tmp_path / "plane",
            chunk_rows=512,
            workers=2,
        )
        assert result.n_restored == 0
        assert np.array_equal(result.probability, offline_probs)

    def test_serial_fallback_never_self_kills(
        self, tmp_path, serve_trace, predictor, offline_probs, monkeypatch
    ):
        # workers resolving to in-process execution must never inject
        # the SIGKILL (it would take down the caller, not a shard).
        for key, value in TAIL_KILL_ENV.items():
            monkeypatch.setenv(key, value)
        plane = tmp_path / "plane"
        result = run_sharded_replay(
            predictor, serve_trace.records, 2, plane, chunk_rows=512, workers=1
        )
        assert result.n_restored == 0
        for shard_id in range(2):
            assert not ShardPaths(plane, shard_id).chaos_marker.exists()
        assert np.array_equal(result.probability, offline_probs)


@fork_only
class TestHealedShardCounts:
    def test_kill_keeps_the_duplicates_earlier_attempts_dropped(
        self, tmp_path, serve_trace, predictor, monkeypatch
    ):
        # The third row of each shard's first drive arrives twice and its
        # sixth row fails the schema; all of it lands before the
        # checkpoint the killed shards restore, and the healed plane must
        # still count it — in its result and in every shard's status.
        records = serve_trace.records
        ids = np.asarray(records["drive_id"])
        shard_of = PartitionMap(2).shard_of_array(ids)
        again = [int(np.flatnonzero(shard_of == k)[2]) for k in range(2)]
        order = np.insert(np.arange(len(ids)), np.add(again, 1), again)
        cols = {k: np.array(v)[order] for k, v in records.items()}
        shard_of = PartitionMap(2).shard_of_array(cols["drive_id"])
        bad = [int(np.flatnonzero(shard_of == k)[5]) for k in range(2)]
        cols["write_count"][bad] = -1
        trace = DriveDayDataset(cols, check_sorted=False)
        plain = run_sharded_replay(
            predictor, trace, 2, tmp_path / "plain", **TAIL_KILL_KW
        )
        for key, value in TAIL_KILL_ENV.items():
            monkeypatch.setenv(key, value)
        healed = run_sharded_replay(
            predictor, trace, 2, tmp_path / "healed", **TAIL_KILL_KW
        )
        assert healed.n_restored == 2
        # Sub-stream rows 2, 3 and 5 hold the faults: before every cut.
        assert all(s["resumed_at"] > 5 for s in healed.shards)
        assert (plain.n_diverted, plain.n_duplicates) == (2, 2)
        assert (healed.n_diverted, healed.n_duplicates) == (2, 2)
        assert healed.probability.tobytes() == plain.probability.tobytes()
        assert np.array_equal(healed.accepted_index, plain.accepted_index)
        for shard_id in range(2):
            want, got = (
                json.loads(ShardPaths(tmp_path / name, shard_id).status.read_text())
                for name in ("plain", "healed")
            )
            assert got["guard"] == want["guard"]
            assert got["guard"]["by_fault"] == {"schema": 1}
            for key in ("events_seen", "requests_total"):
                assert got[key] == want[key]
        rollup = plane_status(tmp_path / "healed")
        assert rollup["events_seen"] == len(order)
        assert rollup["guard"]["admitted"] == len(order) - 4


class TestReshard:
    @pytest.mark.parametrize("n,m", [(2, 3), (3, 1)])
    def test_reshard_is_byte_identical(
        self, tmp_path, serve_trace, predictor, offline_probs, n, m
    ):
        old = tmp_path / "old"
        run_sharded_replay(
            predictor, serve_trace.records, n, old, chunk_rows=512
        )
        result = reshard_plane(
            old, tmp_path / "new", predictor, m, chunk_rows=512
        )
        assert result.n_shards == m
        assert np.array_equal(result.probability, offline_probs)
        assert np.array_equal(
            result.accepted_index, np.arange(len(offline_probs))
        )

    def test_merged_events_reconstruct_source_order(
        self, tmp_path, serve_trace, predictor
    ):
        plane = tmp_path / "plane"
        run_sharded_replay(
            predictor, serve_trace.records, 3, plane, chunk_rows=512
        )
        events = merged_plane_events(plane)
        ids = np.asarray(serve_trace.records["drive_id"])
        ages = np.asarray(serve_trace.records["age_days"])
        assert [e["drive_id"] for e in events] == ids.tolist()
        assert [e["age_days"] for e in events] == ages.tolist()

    def test_reshard_refuses_same_directory(self, tmp_path, predictor):
        with pytest.raises(ShardError, match="fresh plane"):
            reshard_plane(tmp_path / "p", tmp_path / "p", predictor, 2)

    def test_reshard_requires_a_plane(self, tmp_path, predictor):
        with pytest.raises(ShardError, match="plane"):
            reshard_plane(tmp_path / "nope", tmp_path / "new", predictor, 2)


class TestCheckpoint:
    def test_round_trip(self, tmp_path, serve_trace, predictor):
        # A shard checkpoint is a replay snapshot: the store state and
        # the replay's cut (position, log counts, scores, their rows,
        # dead letters by fault) come back from the final generation.
        plane = tmp_path / "plane"
        result = run_sharded_replay(
            predictor, serve_trace.records, 2, plane, chunk_rows=512
        )
        for shard in result.shards:
            paths = ShardPaths(plane, shard["shard_id"])
            store = FeatureStore.restore(paths.checkpoint_base)
            cut = store.cut
            n = shard["rows_seen"]
            assert int(cut["rows_seen"][0]) == n == store.events_total
            assert int(cut["journal_lines"][0]) == n
            assert int(cut["dlq_lines"][0]) == 0
            assert int(cut["diverted"][0]) == 0
            assert not cut["by_fault"].any()
            np.testing.assert_array_equal(cut["score_rows"], np.arange(n))
            assert len(cut["scores"]) == n

    def test_unreadable_checkpoint_raises_shard_error(
        self, tmp_path, serve_trace, predictor
    ):
        plan = {"root": str(tmp_path), "n_shards": 1, "n_rows": 1}
        bad = ShardPaths(tmp_path, 0).checkpoint_base
        bad.parent.mkdir(parents=True)
        bad.write_bytes(b"not an npz")
        with pytest.raises(ShardError, match="unreadable"):
            run_shard_task(predictor, serve_trace.records, plan, 0)

    def test_foreign_feature_schema_raises_shard_error(
        self, tmp_path, serve_trace, predictor
    ):
        plane = tmp_path / "plane"
        run_sharded_replay(predictor, serve_trace.records, 1, plane)
        path = ShardPaths(plane, 0).checkpoint_base
        with np.load(latest_snapshot(path)) as payload:
            arrays = {k: payload[k] for k in payload.files}
        arrays["schema_hash"] = np.frombuffer(b"0" * 64, dtype=np.uint8)
        with open(latest_snapshot(path), "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ShardError, match="feature schema"):
            plane_scores(plane)

    @pytest.mark.parametrize(
        "edit",
        [
            {"schema_version": SHARD_SCHEMA_VERSION - 1},
            {"partition": {"n_shards": 2, "version": 99}},
        ],
    )
    def test_foreign_plane_is_refused(
        self, tmp_path, serve_trace, predictor, edit
    ):
        plane = tmp_path / "plane"
        run_sharded_replay(predictor, serve_trace.records, 2, plane)
        path = plane / "plane.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        for read in (read_plane_manifest, plane_scores, merged_plane_events):
            with pytest.raises(ShardError):
                read(plane)

    def test_journal_and_score_count_mismatch_is_refused(
        self, tmp_path, serve_trace, predictor
    ):
        plane = tmp_path / "plane"
        run_sharded_replay(predictor, serve_trace.records, 2, plane)
        journal = ShardPaths(plane, 1).journal
        journal.write_bytes(b"".join(journal.read_bytes().splitlines(keepends=True)[:-1]))
        with pytest.raises(ShardError, match="journal"):
            plane_scores(plane)


class TestTruncateJsonl:
    """The failover cut-back, :meth:`JsonlLog.truncate`."""

    def test_cuts_back_to_prefix(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("".join(f'{{"seq": {i}}}\n' for i in range(5)))
        JsonlLog(path).truncate(2)
        assert path.read_text() == '{"seq": 0}\n{"seq": 1}\n'

    def test_keep_zero_empties_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"seq": 0}\n')
        JsonlLog(path).truncate(0)
        assert path.read_text() == ""

    def test_missing_file_with_zero_keep_is_fine(self, tmp_path):
        JsonlLog(tmp_path / "absent.jsonl").truncate(0)

    def test_missing_file_with_lines_expected_raises(self, tmp_path):
        with pytest.raises(JsonlError, match="missing"):
            JsonlLog(tmp_path / "absent.jsonl").truncate(3)

    def test_keep_beyond_length_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"seq": 0}\n')
        with pytest.raises(JsonlError, match="cannot keep"):
            JsonlLog(path).truncate(2)


class TestTornJournalFailover:
    def test_torn_tail_after_newest_cut_heals_byte_identical(
        self, tmp_path, serve_trace, predictor
    ):
        # A clean two-shard run; dropping each shard's final checkpoint
        # leaves the newest cut mid-stream, with journal lines after it.
        plane = tmp_path / "plane"
        run_sharded_replay(
            predictor,
            serve_trace.records,
            2,
            plane,
            chunk_rows=512,
            checkpoint_every=700,
            workers=1,
        )
        plan = {
            "root": str(plane),
            "n_shards": 2,
            "chunk_rows": 512,
            "checkpoint_every": 700,
            "n_rows": len(serve_trace.records),
        }
        paths = ShardPaths(plane, 0)
        final = latest_snapshot(paths.checkpoint_base)
        reference = FeatureStore.restore(final).cut
        journal_bytes = paths.journal.read_bytes()
        final.unlink()
        # A kill mid append: a fragment with no trailing newline.
        with open(paths.journal, "ab") as fh:
            fh.write(journal_bytes.splitlines(keepends=True)[-1][:25])

        result = run_shard_task(predictor, serve_trace.records, plan, 0)

        assert result["restored"] and 0 < result["resumed_at"] < result["rows_seen"]
        assert (
            result["probability"].tobytes() == reference["scores"].tobytes()
        )
        ids = np.asarray(serve_trace.records["drive_id"])
        own = np.flatnonzero(PartitionMap(2).shard_of_array(ids) == 0)
        assert np.array_equal(result["accepted_global"], own[reference["score_rows"]])
        assert paths.journal.read_bytes() == journal_bytes


class TestPlanePlumbing:
    def test_manifest_round_trip(self, tmp_path, serve_trace, predictor):
        plane = tmp_path / "plane"
        run_sharded_replay(
            predictor, serve_trace.records, 2, plane, chunk_rows=512
        )
        manifest = read_plane_manifest(plane)
        assert manifest["n_shards"] == 2
        assert manifest["n_rows"] == len(serve_trace.records["drive_id"])
        assert manifest["partition"]["n_shards"] == 2

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(ShardError, match="plane"):
            read_plane_manifest(tmp_path)

    def test_plane_status_rolls_up_ready(
        self, tmp_path, serve_trace, predictor
    ):
        plane = tmp_path / "plane"
        run_sharded_replay(
            predictor, serve_trace.records, 2, plane, chunk_rows=512
        )
        rollup = plane_status(plane)
        assert rollup["sharded"] is True
        assert rollup["n_shards"] == 2
        assert rollup["health"] == "ready"
        n_rows = len(serve_trace.records["drive_id"])
        assert rollup["events_seen"] == n_rows
        assert rollup["requests_total"] == n_rows
        assert status_exit_code(rollup) == 0
        # Per-shard details survive the rollup.
        assert set(rollup["shards"]) == {"shard-00", "shard-01"}
        for body in rollup["shards"].values():
            assert body["shard"]["n_shards"] == 2

    def test_plane_status_without_shards_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no shard status"):
            plane_status(tmp_path)

    def test_shard_status_files_written(self, tmp_path, serve_trace, predictor):
        plane = tmp_path / "plane"
        run_sharded_replay(
            predictor, serve_trace.records, 2, plane, chunk_rows=512
        )
        for shard_id in range(2):
            body = json.loads(ShardPaths(plane, shard_id).status.read_text())
            assert body["shard"]["shard_id"] == shard_id
            assert body["shard"]["restored"] is False
