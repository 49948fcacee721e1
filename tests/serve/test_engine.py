"""Scoring engine: online/offline parity, batching, crash recovery.

The acceptance gates of the serving layer live here:

- replay parity, serial and ``workers=2``, bit-for-bit;
- the micro-batched request path scores identically to batch;
- snapshot -> SIGKILL -> restore resumes with identical subsequent
  scores (a real subprocess killed with ``SIGKILL``, nothing staged);
- replay under ``$REPRO_CHAOS`` worker faults stays bit-identical.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.data.io import iter_drive_days, save_dataset_npz
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.resilience import ENV_CHAOS, ENV_CHAOS_SEED, SupervisionLog, SupervisorPolicy
from repro.data.dataset import DriveDayDataset
from repro.serve import (
    AdmissionGuard,
    BatchPolicy,
    FeatureStore,
    QueuePolicy,
    ScoringEngine,
    SchemaMismatchError,
)
from .test_batching import FakeClock

SRC = str(Path(__file__).resolve().parents[2] / "src")

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="chaos injection rides the fork start method",
)


class TestReplayParity:
    def test_serial_replay_matches_offline(
        self, serve_trace, predictor, offline_probs
    ):
        result = ScoringEngine(predictor).replay(
            serve_trace.records, chunk_rows=512
        )
        assert result.n_events == len(offline_probs)
        assert np.array_equal(result.probability, offline_probs)

    def test_parallel_backfill_matches_offline(
        self, serve_trace, predictor, offline_probs
    ):
        engine = ScoringEngine(predictor, workers=2)
        result = engine.replay(serve_trace.records, chunk_rows=4096)
        # 4,096-row chunks reach BACKFILL_MIN_ROWS: the warm pool scored them.
        assert len(engine._scoring_pool.pids) == 2
        engine.close()
        assert np.array_equal(result.probability, offline_probs)

    @pytest.mark.parametrize("chunk_rows", [333, 1024, 100_000])
    def test_chunk_size_is_a_pure_throughput_knob(
        self, serve_trace, predictor, offline_probs, chunk_rows
    ):
        result = ScoringEngine(predictor).replay(
            serve_trace.records, chunk_rows=chunk_rows
        )
        assert np.array_equal(result.probability, offline_probs)

    def test_replay_from_npz_path(
        self, serve_trace, predictor, offline_probs, tmp_path
    ):
        path = tmp_path / "records.npz"
        save_dataset_npz(serve_trace.records, path)
        result = ScoringEngine(predictor).replay(path, chunk_rows=777)
        assert np.array_equal(result.probability, offline_probs)
        assert result.accepted_index is None  # unguarded: 1:1 with rows


class TestGuardedReplay:
    """Guarded replays report which source rows their scores cover."""

    def test_accepted_index_maps_scores_to_source_rows(
        self, serve_trace, predictor
    ):
        cols = {
            k: np.array(v, copy=True) for k, v in serve_trace.records.items()
        }
        n = len(cols["drive_id"])
        rng = np.random.default_rng(0)
        bad = np.sort(rng.choice(n, size=25, replace=False))
        cols["write_count"][bad] = -1  # schema fault: the guard diverts
        store = FeatureStore()
        engine = ScoringEngine(
            predictor, store=store, guard=AdmissionGuard(store)
        )
        result = engine.replay(DriveDayDataset(cols), chunk_rows=512)

        good = np.setdiff1d(np.arange(n), bad)
        assert result.n_diverted == len(bad)
        assert np.array_equal(result.accepted_index, good)
        # Each probability is the score of *its* source row: the whole
        # result matches an unguarded replay of the accepted subset.
        subset = DriveDayDataset(
            {k: np.asarray(v)[good] for k, v in serve_trace.records.items()}
        )
        offline = ScoringEngine(predictor).replay(subset)
        assert np.array_equal(result.probability, offline.probability)

    def test_clean_guarded_replay_indexes_every_row(
        self, serve_trace, predictor, offline_probs
    ):
        store = FeatureStore()
        engine = ScoringEngine(
            predictor, store=store, guard=AdmissionGuard(store)
        )
        result = engine.replay(serve_trace.records, chunk_rows=777)
        assert np.array_equal(
            result.accepted_index, np.arange(result.n_events)
        )
        assert np.array_equal(result.probability, offline_probs)

    def test_shed_policy_requires_guard(self, predictor):
        with pytest.raises(ValueError, match="shed"):
            ScoringEngine(
                predictor,
                queue_policy=QueuePolicy(max_depth=4, on_full="shed"),
            )


class TestRequestPath:
    def test_submit_drain_matches_offline(
        self, serve_trace, predictor, offline_probs
    ):
        engine = ScoringEngine(
            predictor,
            batch_policy=BatchPolicy(max_batch_size=64, max_wait_seconds=60),
        )
        events = []
        for record in iter_drive_days(serve_trace.records):
            events.extend(engine.submit(record))
        events.extend(engine.drain())
        assert len(events) == len(offline_probs)
        assert np.array_equal(
            np.array([e.probability for e in events]), offline_probs
        )
        ids = np.asarray(serve_trace.records["drive_id"])
        assert [e.drive_id for e in events] == ids.tolist()

    def test_unbatched_submit_matches_offline(
        self, serve_trace, predictor, offline_probs
    ):
        engine = ScoringEngine(
            predictor,
            batch_policy=BatchPolicy(max_batch_size=1),
        )
        probs = []
        for _, record in zip(range(200), iter_drive_days(serve_trace.records)):
            flushed = engine.submit(record)
            assert len(flushed) == 1
            probs.append(flushed[0].probability)
        assert np.array_equal(np.array(probs), offline_probs[:200])

    def test_poll_flushes_by_wait(self, serve_trace, predictor):
        clock = FakeClock()
        engine = ScoringEngine(
            predictor,
            batch_policy=BatchPolicy(max_batch_size=1000, max_wait_seconds=1.0),
            clock=clock,
        )
        records = iter_drive_days(serve_trace.records)
        for _, record in zip(range(5), records):
            assert engine.submit(record) == []
        assert engine.poll() == []
        clock.advance(1.0)
        assert len(engine.poll()) == 5
        assert engine.poll() == []

    def test_poll_flushes_once_summed_wait_pays_for_a_call(
        self, serve_trace, predictor
    ):
        clock = FakeClock()
        engine = ScoringEngine(
            predictor,
            batch_policy=BatchPolicy(max_batch_size=1000, max_wait_seconds=1.0),
            clock=clock,
        )
        score_rows = engine._score_rows

        def quarter_second_call(X, ages):
            clock.advance(0.25)
            return score_rows(X, ages)

        engine._score_rows = quarter_second_call
        records = iter_drive_days(serve_trace.records)
        engine.submit(next(records))
        clock.advance(1.0)
        assert len(engine.poll()) == 1  # the wait bound; times one call
        assert engine.batcher.call_cost == 0.25
        engine.submit(next(records))
        engine.submit(next(records))
        clock.advance(0.0625)  # summed wait 0.125
        assert engine.poll() == []
        assert engine.batcher.next_flush_in() == 0.0625
        clock.advance(0.0625)  # summed wait 0.25: one call's cost
        assert len(engine.poll()) == 2


class TestSchemaGate:
    def test_unfitted_predictor_rejected(self):
        from repro.core import FailurePredictor

        with pytest.raises(ValueError, match="fitted"):
            ScoringEngine(FailurePredictor())

    def test_feature_layout_mismatch_rejected(self, predictor):
        import copy

        stale = copy.deepcopy(predictor)
        stale._feature_names = tuple(reversed(predictor.feature_names))
        with pytest.raises(SchemaMismatchError, match="feature layout"):
            ScoringEngine(stale)


class TestInstrumentation:
    def test_spans_and_metrics_emitted(self, serve_trace, predictor):
        tracer = obs_tracing.Tracer(keep_spans=True)
        registry = obs_metrics.MetricsRegistry()
        with obs_tracing.activate(tracer), obs_metrics.activate(registry):
            ScoringEngine(predictor).replay(serve_trace.records, chunk_rows=512)
        names = {span.name for span in tracer.finished()}
        assert "repro.serve.replay" in names
        assert "repro.serve.score_batch" in names
        rendered = registry.render_prometheus()
        assert "repro_serve_events_total" in rendered
        assert "repro_serve_batches_total" in rendered
        assert "repro_serve_batch_size" in rendered
        assert "repro_serve_store_drives" in rendered


class TestTracerMemory:
    def test_replay_events_peak_is_flat_in_stream_length(self, serve_trace, predictor):
        # One scoring call per event (batch size 1) under the tracer a
        # command activates: a kept span per call would grow the peak by
        # ~440 B an event, about 1.2 MB at 4N here.
        import tracemalloc

        events = list(iter_drive_days(serve_trace.records))
        peaks = {}
        for n in (500, 2000):
            store = FeatureStore()
            engine = ScoringEngine(
                predictor,
                store=store,
                guard=AdmissionGuard(store),
                batch_policy=BatchPolicy(max_batch_size=1),
            )
            tracer = obs_tracing.Tracer()
            with obs_tracing.activate(tracer):
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    result = engine.replay_events(events[:n])
                    peaks[n] = tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()
            assert result.n_batches == n
            assert tracer.stage_summary()["repro.serve.score_batch"]["calls"] == n
            assert tracer.finished() == []
        assert max(peaks.values()) < 640 * 1024, peaks


class TestCrashRecovery:
    def test_snapshot_restore_resumes_identically(
        self, serve_trace, predictor, offline_probs, tmp_path
    ):
        cut_target = len(serve_trace.records) // 2
        store = FeatureStore()
        engine = ScoringEngine(predictor, store=store)
        engine.replay(
            serve_trace.records,
            chunk_rows=cut_target,
            snapshot_every=cut_target,
            snapshot_path=tmp_path / "snap.npz",
        )
        # Restore the FIRST snapshot by re-ingesting to the same edge.
        restored_store = FeatureStore()
        head = {
            k: v[:cut_target]
            for k, v in (
                (name, serve_trace.records[name])
                for name in serve_trace.records.column_names
            )
        }
        restored_store.ingest_columns(head)
        restored_store.snapshot(tmp_path / "mid.npz")
        resumed = FeatureStore.restore(tmp_path / "mid.npz")
        # The snapshot records no cut: the replay resumes at the store's
        # events_total and its result covers the rows past it.
        result = ScoringEngine(predictor, store=resumed).replay(
            serve_trace.records,
            chunk_rows=999,
        )
        assert result.resumed_at == cut_target
        assert np.array_equal(
            result.probability, offline_probs[cut_target:]
        )

    def test_sigkill_then_restore_scores_identically(
        self, serve_trace, predictor, offline_probs, tmp_path
    ):
        # A real replay process is SIGKILLed mid-stream (it kills itself
        # at a deterministic event count, so no timing races); the parent
        # restores the last snapshot and resumes.  The resumed result
        # must equal the offline pipeline's whole run bit-for-bit.
        records_path = tmp_path / "records.npz"
        model_path = tmp_path / "model.pkl"
        snap_path = tmp_path / "store.npz"
        save_dataset_npz(serve_trace.records, records_path)
        with open(model_path, "wb") as fh:
            pickle.dump(predictor, fh)
        kill_at = len(serve_trace.records) // 2
        script = textwrap.dedent(
            f"""
            import os, pickle, signal, sys
            sys.path.insert(0, {SRC!r})
            from repro.serve import ScoringEngine

            with open({str(model_path)!r}, "rb") as fh:
                predictor = pickle.load(fh)

            def boom(n_events):
                if n_events >= {kill_at}:
                    os.kill(os.getpid(), signal.SIGKILL)

            ScoringEngine(predictor).replay(
                {str(records_path)!r},
                chunk_rows=500,
                snapshot_every=1000,
                snapshot_path={str(snap_path)!r},
                progress=boom,
            )
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert snap_path.exists(), "no snapshot survived the SIGKILL"
        restored = FeatureStore.restore(snap_path)
        start = restored.events_total  # replay advances the counter
        assert 0 < start <= kill_at
        result = ScoringEngine(predictor, store=restored).replay(
            records_path,
            chunk_rows=713,
        )
        assert result.resumed_at == start
        assert np.array_equal(result.probability, offline_probs)


@fork_only
class TestChaos:
    def test_replay_bit_identical_under_worker_faults(
        self, serve_trace, predictor, offline_probs, monkeypatch
    ):
        # Every supervised scoring task errors on its first attempt
        # (error=1.0) and is retried; the replayed scores must still be
        # byte-identical and the supervision log must show the retries.
        monkeypatch.setenv(ENV_CHAOS, "error=1.0")
        monkeypatch.setenv(ENV_CHAOS_SEED, "0")
        supervision = SupervisionLog()
        engine = ScoringEngine(
            predictor,
            workers=2,
            policy=SupervisorPolicy(max_retries=3),
            supervision=supervision,
        )
        result = engine.replay(serve_trace.records, chunk_rows=4096)
        assert np.array_equal(result.probability, offline_probs)
        assert supervision.events, "chaos produced no supervision events"
