"""Snapshot rotation: keep-last-K retention that never eats the last copy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import (
    FeatureStore,
    ScoringEngine,
    latest_snapshot,
    list_generations,
    prune_generations,
    write_rotated,
)
from repro.serve.snapshots import generation_path


def touch(path):
    path.write_text("x")


class TestGenerationPaths:
    def test_naming(self, tmp_path):
        base = tmp_path / "store.npz"
        assert generation_path(base, 1).name == "store-g000001.npz"
        assert generation_path(base, 123456).name == "store-g123456.npz"

    def test_negative_generation_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generation_path(tmp_path / "store.npz", -1)

    def test_list_orders_numerically(self, tmp_path):
        base = tmp_path / "store.npz"
        for g in (3, 1, 10):
            touch(generation_path(base, g))
        # A different stem and a different suffix must not match.
        touch(tmp_path / "other-g000002.npz")
        touch(tmp_path / "store-g000004.json")
        assert [g for g, _ in list_generations(base)] == [1, 3, 10]

    def test_list_of_empty_dir(self, tmp_path):
        assert list_generations(tmp_path / "missing" / "store.npz") == []


class TestLatestSnapshot:
    def test_exact_file_wins(self, tmp_path):
        base = tmp_path / "store.npz"
        touch(base)
        touch(generation_path(base, 5))
        assert latest_snapshot(base) == base

    def test_resolves_newest_generation(self, tmp_path):
        base = tmp_path / "store.npz"
        touch(generation_path(base, 1))
        touch(generation_path(base, 2))
        assert latest_snapshot(base) == generation_path(base, 2)

    def test_nothing_there(self, tmp_path):
        assert latest_snapshot(tmp_path / "store.npz") is None


class TestRetention:
    def test_write_rotated_increments_and_prunes(self, tmp_path):
        base = tmp_path / "store.npz"
        written = [write_rotated(base, touch, keep=2) for _ in range(4)]
        assert [p.name for p in written] == [
            f"store-g{g:06d}.npz" for g in (1, 2, 3, 4)
        ]
        assert [g for g, _ in list_generations(base)] == [3, 4]

    def test_prune_keeps_newest(self, tmp_path):
        base = tmp_path / "store.npz"
        for g in range(1, 6):
            touch(generation_path(base, g))
        doomed = prune_generations(base, keep=2)
        assert [p.name for p in doomed] == [
            f"store-g{g:06d}.npz" for g in (1, 2, 3)
        ]
        assert [g for g, _ in list_generations(base)] == [4, 5]

    def test_prune_under_threshold_is_noop(self, tmp_path):
        base = tmp_path / "store.npz"
        touch(generation_path(base, 1))
        assert prune_generations(base, keep=2) == []

    def test_keep_zero_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            prune_generations(tmp_path / "store.npz", keep=0)

    def test_prune_runs_only_after_save_succeeds(self, tmp_path):
        # A save that dies mid-write must leave old generations alone:
        # pruning is ordered strictly after a durable new generation.
        base = tmp_path / "store.npz"
        touch(generation_path(base, 1))

        def exploding_save(path):
            raise OSError("disk full")

        with pytest.raises(OSError):
            write_rotated(base, exploding_save, keep=1)
        assert [g for g, _ in list_generations(base)] == [1]


class TestReplayRotation:
    def test_replay_rotates_and_restores_identically(
        self, tmp_path, serve_trace, predictor, offline_probs
    ):
        base = tmp_path / "snap.npz"
        result = ScoringEngine(predictor).replay(
            serve_trace.records,
            chunk_rows=512,
            snapshot_every=1000,
            snapshot_path=base,
            snapshot_keep=2,
        )
        assert np.array_equal(result.probability, offline_probs)
        gens = list_generations(base)
        assert len(gens) == 2  # pruned down to K
        newest = latest_snapshot(base)
        assert newest == gens[-1][1]
        # The newest generation restores to a working store whose
        # resumed replay skips what it saw and returns the whole run.
        store = FeatureStore.restore(newest)
        resumed = ScoringEngine(predictor, store=store).replay(
            serve_trace.records, chunk_rows=512
        )
        assert resumed.resumed_at == store.events_total
        assert np.array_equal(resumed.probability, offline_probs)
