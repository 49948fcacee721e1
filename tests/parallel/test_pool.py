"""Unit tests for the process-pool primitive (repro.parallel.pool).

The worker functions live at module level so they can cross the process
boundary by reference; everything else (ordering, fallbacks, failure
surfacing, obs-delta merging) is asserted from the parent side.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

import repro.parallel.pool as pool_mod
from repro.obs import metrics, tracing
from repro.parallel import (
    ENV_WORKERS,
    ObsDelta,
    WorkerCrash,
    capture_obs,
    iter_tasks,
    merge_obs,
    resolve_workers,
    run_tasks,
    shard_ranges,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


# ---------------------------------------------------------------- worker fns


def _square(x):
    return x * x


def _slow_inverse_order(x):
    # Earlier tasks sleep longer, so completion order inverts task order
    # whenever two workers actually run concurrently.
    import time

    time.sleep(0.05 * (3 - x) if x < 3 else 0.0)
    return x


def _instrumented(x):
    with tracing.span("test.work", n_items=1):
        metrics.inc("test_tasks_total", help="tasks")
    return x + 1


def _raise_value_error(x):
    raise ValueError(f"bad task {x}")


def _hard_exit(x):
    os._exit(13)  # simulates a worker killed mid-task (no exception raised)


def _needs_init(x):
    return pool_mod._in_worker, _INIT_BOX[0] + x


_INIT_BOX = [0]


def _install_box(value):
    _INIT_BOX[0] = value


# ------------------------------------------------------------ resolve/shard


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        assert resolve_workers(None) == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "8")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "4")
        assert resolve_workers(None) == 4

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "lots")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError, match=">= 1"):
            resolve_workers(0)

    def test_worker_pins_to_one(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "_in_worker", True)
        monkeypatch.setenv(ENV_WORKERS, "16")
        assert resolve_workers(None) == 1
        assert resolve_workers(8) == 1


class TestShardRanges:
    def test_covers_everything_once(self):
        for n, workers in [(1, 4), (7, 2), (100, 3), (5, 100)]:
            ranges = shard_ranges(n, workers)
            flat = [i for lo, hi in ranges for i in range(lo, hi)]
            assert flat == list(range(n))

    def test_empty(self):
        assert shard_ranges(0, 4) == []

    def test_deterministic(self):
        assert shard_ranges(100, 3) == shard_ranges(100, 3)


# ----------------------------------------------------------------- iter_tasks


class TestIterTasks:
    def test_serial_results_in_order(self):
        assert run_tasks(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_parallel_results_in_task_order(self):
        out = run_tasks(_slow_inverse_order, list(range(4)), workers=2)
        assert out == [0, 1, 2, 3]

    def test_empty_tasks(self):
        assert run_tasks(_square, [], workers=4) == []

    def test_lambda_fn_falls_back_to_serial(self):
        # A lambda cannot be pickled; the pool must quietly degrade, not die.
        assert run_tasks(lambda x: x * 10, [1, 2], workers=2) == [10, 20]

    def test_unpicklable_initargs_fall_back_to_serial(self):
        calls = []
        out = run_tasks(
            _square,
            [2, 3],
            workers=2,
            initializer=lambda box: calls.append(box),
            initargs=(lambda: None,),
        )
        assert out == [4, 9]
        assert len(calls) == 1  # initializer still ran, in-process

    def test_initializer_runs_on_serial_path(self):
        out = run_tasks(
            _needs_init, [1], workers=1, initializer=_install_box, initargs=(100,)
        )
        assert out == [(False, 101)]

    def test_task_exception_surfaces_as_worker_crash(self):
        with pytest.raises(WorkerCrash) as err:
            run_tasks(_raise_value_error, [0, 1], workers=2)
        assert err.value.task_index == 0
        assert "ValueError" in str(err.value)
        assert err.value.worker_traceback is not None
        assert "bad task 0" in err.value.worker_traceback

    def test_worker_death_raises_instead_of_hanging(self):
        with pytest.raises(WorkerCrash, match="died|could not run"):
            run_tasks(_hard_exit, [0, 1], workers=2)

    def test_generator_yields_indices(self):
        pairs = list(iter_tasks(_square, [5, 6], workers=1))
        assert pairs == [(0, 25), (1, 36)]

    @pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
    def test_workers_are_marked(self):
        out = run_tasks(
            _needs_init, [1, 2], workers=2, initializer=_install_box, initargs=(7,)
        )
        assert out == [(True, 8), (True, 9)]


# -------------------------------------------------------------- obs shipping


class TestObsMerge:
    def test_spans_and_metrics_survive_fanout(self):
        tracer = tracing.Tracer()
        registry = metrics.MetricsRegistry()
        with tracing.activate(tracer), metrics.activate(registry):
            out = run_tasks(_instrumented, [1, 2, 3], workers=2)
        assert out == [2, 3, 4]
        summary = tracer.stage_summary()
        assert summary["test.work"]["calls"] == 3
        assert summary["test.work"]["n_items"] == 3
        rendered = registry.render_prometheus()
        assert "test_tasks_total 3" in rendered

    def test_obs_disabled_means_empty_delta(self):
        with capture_obs(enabled=False) as delta:
            with tracing.span("ignored"):
                pass
        assert not delta
        merge_obs(delta)  # no active collectors, no delta: must be a no-op

    def test_capture_obs_collects(self):
        with capture_obs() as delta:
            with tracing.span("captured.stage", rows_in=5):
                metrics.inc("captured_total", 2, help="x")
        assert delta
        assert [s["name"] for s in delta.spans] == ["captured.stage"]
        assert delta.elapsed > 0
        names = [fam["name"] for fam in delta.metrics]
        assert "captured_total" in names

    def test_merge_reparents_under_open_span(self):
        with capture_obs() as delta:
            with tracing.span("child.stage"):
                pass
        tracer = tracing.Tracer(keep_spans=True)
        with tracing.activate(tracer):
            with tracing.span("parent.stage"):
                merge_obs(delta)
        spans = {s.name: s for s in tracer.finished()}
        assert spans["child.stage"].parent_id == spans["parent.stage"].span_id

    def test_obs_delta_is_picklable(self):
        import pickle

        with capture_obs() as delta:
            with tracing.span("s"):
                metrics.inc("c_total", help="c")
        clone = pickle.loads(pickle.dumps(delta))
        assert isinstance(clone, ObsDelta)
        assert clone.spans == delta.spans


class TestAbsorb:
    def test_ids_remapped_and_offset_applied(self):
        src = tracing.Tracer(keep_spans=True)
        with tracing.activate(src):
            with tracing.span("outer"):
                with tracing.span("inner"):
                    pass
        dst = tracing.Tracer(keep_spans=True)
        with tracing.activate(dst):
            with tracing.span("top"):
                pass
        n = dst.absorb(src.to_dicts(), offset=100.0)
        assert n == 2
        spans = {s.name: s for s in dst.finished()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].start >= 100.0
        ids = [s.span_id for s in dst.finished()]
        assert len(ids) == len(set(ids))


class TestMetricsSnapshot:
    def test_counter_and_gauge_merge(self):
        a = metrics.MetricsRegistry()
        with metrics.activate(a):
            metrics.inc("jobs_total", 2, help="jobs", kind="sim")
            metrics.set_gauge("depth", 5, help="queue depth")
        b = metrics.MetricsRegistry()
        with metrics.activate(b):
            metrics.inc("jobs_total", 3, help="jobs", kind="sim")
            metrics.set_gauge("depth", 7, help="queue depth")
        a.merge_snapshot(b.snapshot())
        rendered = a.render_prometheus()
        assert 'jobs_total{kind="sim"} 5' in rendered
        assert "depth 7" in rendered

    def test_histogram_merge(self):
        a = metrics.MetricsRegistry()
        with metrics.activate(a):
            metrics.observe("latency_seconds", 0.2, help="lat")
        b = metrics.MetricsRegistry()
        with metrics.activate(b):
            metrics.observe("latency_seconds", 0.4, help="lat")
            metrics.observe("latency_seconds", 99.0, help="lat")
        a.merge_snapshot(b.snapshot())
        rendered = a.render_prometheus()
        assert 'latency_seconds_count 3' in rendered

    def test_bucket_mismatch_rejected(self):
        a = metrics.MetricsRegistry()
        with metrics.activate(a):
            metrics.observe("h_seconds", 0.2, help="h", buckets=(0.1, 1.0))
        b = metrics.MetricsRegistry()
        with metrics.activate(b):
            metrics.observe("h_seconds", 0.2, help="h", buckets=(0.5, 2.0))
        with pytest.raises(ValueError, match="bucket"):
            a.merge_snapshot(b.snapshot())

    def test_snapshot_roundtrip_empty(self):
        reg = metrics.MetricsRegistry()
        assert reg.snapshot() == []
        reg.merge_snapshot([])


def test_numpy_payloads_roundtrip():
    # Arrays are the dominant payload type; make sure nothing in the
    # trampoline mangles dtype or contents.
    tasks = [np.arange(5, dtype=np.int32), np.linspace(0, 1, 7)]
    out = run_tasks(_square, tasks, workers=2)
    assert np.array_equal(out[0], tasks[0] * tasks[0])
    assert out[1].dtype == np.float64
