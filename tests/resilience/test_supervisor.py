"""Unit tests for the supervision layer (repro.resilience.supervisor).

Worker functions live at module level so they can cross the process
boundary; controlled faults come from the deterministic chaos hooks
(``$REPRO_CHAOS``), which forked workers inherit from the test's
monkeypatched environment.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.obs import metrics, tracing
from repro.parallel import ObsDelta, WorkerCrash, iter_tasks, merge_obs
from repro.resilience import (
    ENV_CHAOS,
    ENV_CHAOS_HANG,
    ENV_CHAOS_SEED,
    FailureReport,
    PoisonTask,
    SupervisedPool,
    SupervisionLog,
    SupervisorPolicy,
    TaskFailure,
    TaskTimeout,
    force_fail,
    supervised_iter_tasks,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
SRC = Path(repro.__file__).resolve().parents[1]

fork_only = pytest.mark.skipif(
    not HAVE_FORK, reason="supervised pool tests rely on the fork start method"
)


# ---------------------------------------------------------------- worker fns


def _square(x):
    return x * x


def _always_raises(x):
    raise ValueError(f"bad task {x}")


_FLAKY_CALLS: dict[int, int] = {}


def _flaky_twice(x):
    """Fails the first two in-process calls per task (serial path only)."""
    _FLAKY_CALLS[x] = _FLAKY_CALLS.get(x, 0) + 1
    if _FLAKY_CALLS[x] <= 2:
        raise RuntimeError(f"transient {x}")
    return x * 10


_INIT_BOX: list[int] = []


def _install_box(value):
    _INIT_BOX.clear()
    _INIT_BOX.append(value)


def _needs_init(x):
    return x + _INIT_BOX[0]


_INSTALLS: list = []


def _install_counted(token):
    _INSTALLS.append(token)


def _installs_and_pid(x):
    return list(_INSTALLS), x, os.getpid()


# ---------------------------------------------------------------- policy


class TestSupervisorPolicy:
    def test_defaults(self):
        pol = SupervisorPolicy()
        assert pol.task_timeout is None
        assert pol.max_retries == 2
        assert pol.on_poison == "fail"

    def test_backoff_is_capped_exponential(self):
        pol = SupervisorPolicy(backoff_base=0.1, backoff_cap=0.35)
        assert pol.backoff(1) == pytest.approx(0.1)
        assert pol.backoff(2) == pytest.approx(0.2)
        assert pol.backoff(3) == pytest.approx(0.35)  # capped
        assert pol.backoff(10) == pytest.approx(0.35)

    def test_backoff_is_deterministic(self):
        pol = SupervisorPolicy()
        assert [pol.backoff(k) for k in (1, 2, 3)] == [
            pol.backoff(k) for k in (1, 2, 3)
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"task_timeout": 0.0},
            {"task_timeout": -1.0},
            {"max_retries": -1},
            {"on_poison": "explode"},
            {"pool_crash_threshold": 0},
            {"backoff_base": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorPolicy(**kwargs)

    def test_force_fail(self):
        pol = SupervisorPolicy(on_poison="quarantine", max_retries=7)
        forced = force_fail(pol)
        assert forced.on_poison == "fail" and forced.max_retries == 7
        assert force_fail(None) is None
        fail = SupervisorPolicy(on_poison="fail")
        assert force_fail(fail) is fail


# ---------------------------------------------------------------- log/report


class TestSupervisionLog:
    def test_events_property(self):
        log = SupervisionLog()
        assert not log.events
        log.retries = 1
        assert log.events

    def test_to_dict_matches_manifest_schema(self):
        from repro.obs.manifest import MANIFEST_SCHEMA, validate_manifest

        log = SupervisionLog(retries=2, timeouts=1, crashes=0)
        log.quarantined.append(
            FailureReport(
                task_index=3,
                label="test",
                attempts=3,
                quarantined=True,
                errors=[TaskFailure(attempt=1, kind="timeout", message="slow")],
            )
        )
        errors = validate_manifest(
            log.to_dict(), MANIFEST_SCHEMA["properties"]["resilience"], "$"
        )
        assert errors == []

    def test_summary_mentions_breaker(self):
        log = SupervisionLog(breaker_tripped=True)
        assert "breaker" in log.summary()


# ---------------------------------------------------------------- serial path


class TestSerialSupervised:
    def test_clean_run_yields_in_order(self):
        out = list(supervised_iter_tasks(_square, [1, 2, 3], workers=1))
        assert out == [(0, 1), (1, 4), (2, 9)]

    def test_retries_then_succeeds(self):
        _FLAKY_CALLS.clear()
        log = SupervisionLog()
        pol = SupervisorPolicy(max_retries=2, backoff_base=0.001)
        out = list(
            supervised_iter_tasks(
                _flaky_twice, [5], workers=1, policy=pol, supervision=log
            )
        )
        assert out == [(0, 50)]
        assert log.retries == 2 and not log.quarantined

    def test_poison_raises_with_traceback(self):
        pol = SupervisorPolicy(max_retries=1, backoff_base=0.001)
        with pytest.raises(PoisonTask) as exc_info:
            list(
                supervised_iter_tasks(
                    _always_raises, [7], workers=1, policy=pol
                )
            )
        exc = exc_info.value
        assert isinstance(exc, WorkerCrash)  # CLI exit-2 contract
        assert exc.report.attempts == 2
        assert "bad task 7" in (exc.worker_traceback or "")

    def test_quarantine_skips_slot_and_records_report(self):
        log = SupervisionLog()
        pol = SupervisorPolicy(
            max_retries=0, on_poison="quarantine", backoff_base=0.001
        )
        tasks = [1, "boom", 3]

        def fn(x):
            if x == "boom":
                raise RuntimeError("poison")
            return x

        out = list(
            supervised_iter_tasks(fn, tasks, workers=1, policy=pol, supervision=log)
        )
        assert out == [(0, 1), (2, 3)]
        assert len(log.quarantined) == 1
        report = log.quarantined[0]
        assert report.task_index == 1 and report.quarantined
        assert report.errors[0].kind == "error"

    def test_initializer_runs_in_process(self):
        out = list(
            supervised_iter_tasks(
                _needs_init,
                [1, 2],
                workers=1,
                initializer=_install_box,
                initargs=(100,),
            )
        )
        assert out == [(0, 101), (1, 102)]

    def test_empty_tasks(self):
        assert list(supervised_iter_tasks(_square, [], workers=4)) == []

    def test_unpicklable_falls_back_to_serial(self):
        calls = []

        def local_fn(x):  # not picklable by reference
            calls.append(x)
            return x

        out = list(supervised_iter_tasks(local_fn, [1, 2], workers=4))
        assert out == [(0, 1), (1, 2)] and calls == [1, 2]


# ---------------------------------------------------------------- pooled path


@fork_only
class TestPooledSupervised:
    def test_clean_run_matches_serial(self):
        serial = list(supervised_iter_tasks(_square, list(range(8)), workers=1))
        pooled = list(supervised_iter_tasks(_square, list(range(8)), workers=2))
        assert pooled == serial

    def test_chaos_error_retried_to_success(self, monkeypatch):
        monkeypatch.setenv(ENV_CHAOS, "error=1.0")
        log = SupervisionLog()
        pol = SupervisorPolicy(max_retries=1, backoff_base=0.001)
        out = list(
            supervised_iter_tasks(
                _square, list(range(4)), workers=2, policy=pol, supervision=log
            )
        )
        assert out == [(i, i * i) for i in range(4)]
        assert log.retries == 4  # every task failed exactly once

    def test_worker_crash_retried_to_success(self, monkeypatch):
        monkeypatch.setenv(ENV_CHAOS, "crash=1.0")
        log = SupervisionLog()
        pol = SupervisorPolicy(
            max_retries=1, backoff_base=0.001, pool_crash_threshold=100
        )
        out = list(
            supervised_iter_tasks(
                _square, list(range(3)), workers=2, policy=pol, supervision=log
            )
        )
        assert out == [(0, 0), (1, 1), (2, 4)]
        assert log.crashes == 3
        assert all(
            f.kind == "crash" for r in log.quarantined for f in r.errors
        )  # vacuous: nothing quarantined
        assert not log.quarantined

    def test_hang_becomes_timeout_then_retry(self, monkeypatch):
        monkeypatch.setenv(ENV_CHAOS, "hang=1.0")
        monkeypatch.setenv(ENV_CHAOS_HANG, "30")
        log = SupervisionLog()
        pol = SupervisorPolicy(
            task_timeout=0.5, max_retries=1, backoff_base=0.001
        )
        out = list(
            supervised_iter_tasks(
                _square, [2, 3], workers=2, policy=pol, supervision=log
            )
        )
        assert out == [(0, 4), (1, 9)]
        assert log.timeouts == 2 and log.retries == 2

    def test_all_timeouts_raise_tasktimeout(self, monkeypatch):
        monkeypatch.setenv(ENV_CHAOS, "error_always=0.0,hang=1.0")
        monkeypatch.setenv(ENV_CHAOS_HANG, "30")
        pol = SupervisorPolicy(task_timeout=0.4, max_retries=0)
        with pytest.raises(TaskTimeout) as exc_info:
            list(
                supervised_iter_tasks(_square, [1, 2], workers=2, policy=pol)
            )
        assert exc_info.value.report.errors[0].kind == "timeout"

    def test_timeouts_do_not_trip_breaker(self, monkeypatch):
        monkeypatch.setenv(ENV_CHAOS, "hang=1.0")
        monkeypatch.setenv(ENV_CHAOS_HANG, "30")
        log = SupervisionLog()
        pol = SupervisorPolicy(
            task_timeout=0.3,
            max_retries=1,
            backoff_base=0.001,
            pool_crash_threshold=1,
        )
        out = list(
            supervised_iter_tasks(
                _square, [1, 2], workers=2, policy=pol, supervision=log
            )
        )
        assert out == [(0, 1), (1, 4)]
        assert not log.breaker_tripped

    def test_poison_quarantine_completes_healthy_tasks(self, monkeypatch):
        monkeypatch.setenv(ENV_CHAOS, "error_always=0.4")
        monkeypatch.setenv(ENV_CHAOS_SEED, "9")
        from repro.resilience import parse_chaos_spec, planned_fault

        spec = parse_chaos_spec("error_always=0.4")
        poison = {
            i for i in range(8) if planned_fault(i, spec, 9) == "error_always"
        }
        assert poison and len(poison) < 8  # the drill needs both kinds
        log = SupervisionLog()
        pol = SupervisorPolicy(
            max_retries=1, backoff_base=0.001, on_poison="quarantine"
        )
        out = list(
            supervised_iter_tasks(
                _square, list(range(8)), workers=2, policy=pol, supervision=log
            )
        )
        assert [i for i, _ in out] == sorted(set(range(8)) - poison)
        assert all(v == i * i for i, v in out)
        assert {r.task_index for r in log.quarantined} == poison

    def test_breaker_trips_to_serial_and_completes(self, monkeypatch):
        monkeypatch.setenv(ENV_CHAOS, "crash=1.0")
        log = SupervisionLog()
        pol = SupervisorPolicy(
            max_retries=1, backoff_base=0.001, pool_crash_threshold=2
        )
        out = list(
            supervised_iter_tasks(
                _square, list(range(6)), workers=2, policy=pol, supervision=log
            )
        )
        assert out == [(i, i * i) for i in range(6)]
        assert log.breaker_tripped and log.crashes >= 2

    def test_breaker_serial_fallback_runs_initializer(self, monkeypatch):
        monkeypatch.setenv(ENV_CHAOS, "crash=1.0")
        _INIT_BOX.clear()
        pol = SupervisorPolicy(
            max_retries=1, backoff_base=0.001, pool_crash_threshold=1
        )
        out = list(
            supervised_iter_tasks(
                _needs_init,
                [1, 2, 3],
                workers=2,
                policy=pol,
                initializer=_install_box,
                initargs=(1000,),
            )
        )
        assert out == [(0, 1001), (1, 1002), (2, 1003)]

    def test_retry_counters_reach_metrics_registry(self, monkeypatch):
        monkeypatch.setenv(ENV_CHAOS, "error=1.0")
        registry = metrics.MetricsRegistry()
        pol = SupervisorPolicy(max_retries=1, backoff_base=0.001)
        with metrics.activate(registry):
            list(
                supervised_iter_tasks(
                    _square, list(range(3)), workers=2, policy=pol
                )
            )
        snap = {m["name"]: m for m in registry.snapshot()}
        assert snap["repro_task_retries_total"]["series"][0]["value"] == 3.0

    def test_retried_task_spans_carry_attempt_attr(self, monkeypatch):
        monkeypatch.setenv(ENV_CHAOS, "error=1.0")
        tracer = tracing.Tracer(keep_spans=True)
        pol = SupervisorPolicy(max_retries=1, backoff_base=0.001)
        with tracing.activate(tracer):
            list(
                supervised_iter_tasks(
                    _instrumented_task, [1, 2], workers=2, policy=pol
                )
            )
        spans = [s for s in tracer.finished() if s.name == "test.supervised"]
        assert spans and all(s.attrs.get("attempt") == 2 for s in spans)


def _instrumented_task(x):
    with tracing.span("test.supervised", n_items=1):
        pass
    return x


# ---------------------------------------------------------------- obs merge


class TestMergeObsExtraAttrs:
    def test_stamps_batch_roots_only(self):
        delta = ObsDelta(
            spans=[
                {
                    "span_id": 1,
                    "parent_id": None,
                    "name": "root",
                    "start": 0.0,
                    "duration": 0.1,
                    "attrs": {},
                },
                {
                    "span_id": 2,
                    "parent_id": 1,
                    "name": "child",
                    "start": 0.0,
                    "duration": 0.05,
                    "attrs": {},
                },
            ],
            elapsed=0.1,
        )
        tracer = tracing.Tracer(keep_spans=True)
        with tracing.activate(tracer):
            merge_obs(delta, extra_attrs={"attempt": 3})
        by_name = {s.name: s for s in tracer.finished()}
        assert by_name["root"].attrs.get("attempt") == 3
        assert "attempt" not in by_name["child"].attrs

    def test_delta_dicts_not_mutated(self):
        delta = ObsDelta(
            spans=[
                {
                    "span_id": 1,
                    "parent_id": None,
                    "name": "root",
                    "start": 0.0,
                    "duration": 0.1,
                    "attrs": {},
                }
            ],
            elapsed=0.1,
        )
        tracer = tracing.Tracer()
        with tracing.activate(tracer):
            merge_obs(delta, extra_attrs={"attempt": 2})
        assert delta.spans[0]["attrs"] == {}


# ---------------------------------------------------------------- integration


@fork_only
class TestIterTasksDelegation:
    def test_policy_routes_through_supervisor(self, monkeypatch):
        monkeypatch.setenv(ENV_CHAOS, "error=1.0")
        log = SupervisionLog()
        pol = SupervisorPolicy(max_retries=1, backoff_base=0.001)
        out = list(
            iter_tasks(
                _square,
                list(range(4)),
                workers=2,
                policy=pol,
                supervision=log,
            )
        )
        assert out == [(i, i * i) for i in range(4)]
        assert log.retries == 4

    def test_no_policy_is_fail_fast_under_chaos(self, monkeypatch):
        # There is one worker loop, so one chaos drill: without a policy
        # the first injected fault fails the run, reported for the lowest
        # failing task; the in-process path never injects.
        monkeypatch.setenv(ENV_CHAOS, "error=1.0")
        with pytest.raises(WorkerCrash) as exc_info:
            list(iter_tasks(_square, list(range(4)), workers=2))
        assert exc_info.value.task_index == 0
        out = list(iter_tasks(_square, list(range(4)), workers=1))
        assert out == [(i, i * i) for i in range(4)]


# ---------------------------------------------------------------- warm pool


class TestSupervisedPool:
    @fork_only
    def test_results_in_task_order(self):
        with SupervisedPool(workers=2) as pool:
            assert list(pool.imap(_square, range(10))) == [
                (i, i * i) for i in range(10)
            ]

    @fork_only
    def test_initializer_state_reused_across_runs(self):
        _INSTALLS.clear()
        with SupervisedPool(
            workers=2, initializer=_install_counted, initargs=("warm",)
        ) as pool:
            first = list(pool.imap(_installs_and_pid, [1, 2, 3, 4]))
            warm = set(pool.pids)
            second = list(pool.imap(_installs_and_pid, [5, 6]))
        # Each worker installed the state exactly once, and the same two
        # workers served both calls without re-shipping it.
        assert [(x, installs) for _, (installs, x, _) in first + second] == [
            (x, ["warm"]) for x in (1, 2, 3, 4, 5, 6)
        ]
        assert len(warm) == 2 and os.getpid() not in warm
        assert {pid for _, (_, _, pid) in first} == warm
        assert {pid for _, (_, _, pid) in second} == warm
        assert _INSTALLS == []  # the parent never installed it

    def test_serial_fallback_matches(self):
        _INSTALLS.clear()
        with SupervisedPool(
            workers=1, initializer=_install_counted, initargs=("solo",)
        ) as pool:
            out = list(pool.imap(_installs_and_pid, [7, 8]))
            assert pool.pids == ()
        assert out == [(0, (["solo"], 7, os.getpid())), (1, (["solo"], 8, os.getpid()))]

    def test_unpicklable_initializer_falls_back_serial(self):
        _INSTALLS.clear()
        token = lambda: None  # noqa: E731 - unpicklable initargs force the serial path
        with SupervisedPool(
            workers=2, initializer=_install_counted, initargs=(token,)
        ) as pool:
            out = list(pool.imap(_installs_and_pid, [1, 2]))
            assert pool.pids == ()
        assert out == [(0, ([token], 1, os.getpid())), (1, ([token], 2, os.getpid()))]

    @fork_only
    def test_task_error_surfaces_as_worker_crash(self):
        with SupervisedPool(workers=2) as pool:
            with pytest.raises(WorkerCrash, match="bad task 0") as exc_info:
                list(pool.imap(_always_raises, [0, 1]))
            assert exc_info.value.task_index == 0
            # The failed call leaves a usable pool behind.
            assert list(pool.imap(_square, [2, 3])) == [(0, 4), (1, 9)]

    @fork_only
    def test_supervision_counted_per_call(self, monkeypatch):
        monkeypatch.setenv(ENV_CHAOS, "error=1.0")
        log = SupervisionLog()
        pol = SupervisorPolicy(max_retries=1, backoff_base=0.001)
        with SupervisedPool(workers=2, policy=pol, supervision=log) as pool:
            first = list(pool.imap(_square, [1, 2, 3]))
            second = list(pool.imap(_square, [4, 5, 6]))
        # Task indices and attempts restart with each call, so the fault
        # plan fires (and is retried) again; the log tallies both calls.
        assert first == [(0, 1), (1, 4), (2, 9)]
        assert second == [(0, 16), (1, 25), (2, 36)]
        assert log.retries == 6

    def test_use_after_close_raises(self):
        pool = SupervisedPool(workers=2)
        pool.close()
        with pytest.raises(WorkerCrash, match="close"):
            list(pool.imap(_square, [1, 2]))

    @fork_only
    def test_close_is_idempotent(self):
        pool = SupervisedPool(workers=2)
        assert list(pool.imap(_square, [1, 2])) == [(0, 1), (1, 4)]
        pids = set(pool.pids)
        assert len(pids) == 2
        pool.close()
        pool.close()
        assert pool.pids == ()
        assert pids.isdisjoint(p.pid for p in multiprocessing.active_children())

    def test_empty_task_list(self):
        with SupervisedPool(workers=2) as pool:
            assert list(pool.imap(_square, [])) == []
            assert pool.pids == ()  # nothing to run, nothing spawned


#: Keeps a 2-worker supervised pool open with both workers idle, prints
#: their pids and waits to be killed.
_IDLE_POOL_PARENT = """
import json, multiprocessing, time
from repro.resilience import supervised_iter_tasks

results = supervised_iter_tasks(abs, range(4), workers=2)
next(results)
print(json.dumps([p.pid for p in multiprocessing.active_children()]), flush=True)
time.sleep(600)
"""


#: Holds an open fail-fast ``iter_tasks`` run (no policy) with two workers.
_IDLE_ITER_TASKS_PARENT = """
import json, multiprocessing, time
from repro.parallel import iter_tasks

results = iter_tasks(abs, range(4), workers=2)
next(results)
print(json.dumps([p.pid for p in multiprocessing.active_children()]), flush=True)
time.sleep(600)
"""

#: Warms a 2-worker scoring pool with one pooled predict call.
_WARM_SCORING_POOL_PARENT = """
import json, time
from repro.core import FailurePredictor, build_prediction_dataset
from repro.simulator import FleetConfig, simulate_fleet

trace = simulate_fleet(
    FleetConfig(n_drives_per_model=8, horizon_days=200, deploy_spread_days=100, seed=21)
)
predictor = FailurePredictor(lookahead=7, seed=3).fit(trace)
dataset = build_prediction_dataset(trace, lookahead=7)
pool = predictor.scoring_pool(2)
predictor.predict_proba_matrix(dataset.X, dataset.age_days, pool=pool)
print(json.dumps(list(pool.pids)), flush=True)
time.sleep(600)
"""

def _running(pids: list[int]) -> list[int]:
    """The pids that still run (a zombie has exited and counts as gone)."""
    running = []
    for pid in pids:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        if stat.rsplit(")", 1)[1].split()[0] != "Z":
            running.append(pid)
    return running


@fork_only
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
class TestOrphanedWorkers:
    def test_workers_exit_when_parent_is_killed(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", _IDLE_POOL_PARENT],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        with parent:
            try:
                pids = json.loads(parent.stdout.readline())
            finally:
                parent.kill()
        assert len(pids) == 2
        try:
            deadline = time.monotonic() + 5.0
            while _running(pids) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _running(pids) == []
        finally:
            for pid in _running(pids):
                os.kill(pid, signal.SIGKILL)

    def test_iter_tasks_workers_exit_when_parent_is_killed(self):
        _assert_workers_exit_with_parent(_IDLE_ITER_TASKS_PARENT)

    def test_scoring_pool_workers_exit_when_parent_is_killed(self):
        _assert_workers_exit_with_parent(_WARM_SCORING_POOL_PARENT)


def _assert_workers_exit_with_parent(script: str) -> None:
    """SIGKILL a parent running ``script`` once it prints its two worker
    pids; both workers must be gone within 5 s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    parent = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env
    )
    with parent:
        try:
            pids = json.loads(parent.stdout.readline())
        finally:
            parent.kill()
    assert len(pids) == 2
    try:
        deadline = time.monotonic() + 5.0
        while _running(pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _running(pids) == []
    finally:
        for pid in _running(pids):
            os.kill(pid, signal.SIGKILL)
