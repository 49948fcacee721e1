"""The one worker pool, and its supervision: deadlines, retries, quarantine.

:class:`SupervisedPool` is the only process pool in the package.  Its
workers (forked where the platform allows) each run the pool's
initializer once and then serve :meth:`SupervisedPool.imap` calls until
the owner closes the pool, so a caller that fans out repeatedly (the
serving engine's per-chunk scoring) ships its large state once.  Every
``imap`` call maps a module-level ``fn`` over a task list and yields
``(index, result)`` strictly in task order, under a supervision layer
counted per call:

- **deadlines** — a parent-side watchdog polls every in-flight task;
  one that outlives ``policy.task_timeout`` gets its worker SIGKILLed
  and is recorded as a ``timeout`` failure instead of hanging the run;
- **deterministic retries** — a failed attempt re-dispatches the exact
  same payload after a capped exponential backoff.  Payloads carry
  their pre-spawned :class:`~numpy.random.SeedSequence` work (see
  DESIGN.md §11), so a task retried five times returns byte-identical
  results to one that succeeded first try;
- **poison quarantine** — a task that exhausts ``max_retries`` becomes
  a structured :class:`FailureReport`.  Under
  ``on_poison="quarantine"`` the run completes every healthy task and
  the report lands in the :class:`SupervisionLog` (and from there in
  the run manifest); under ``on_poison="fail"`` a
  :class:`PoisonTask`/:class:`TaskTimeout` is raised in the task's
  place in the yielded order;
- **circuit breaker** — ``pool_crash_threshold`` worker deaths (OOM
  kills, fork failures, hard crashes) trip the run to serial
  in-process execution, preserving per-task attempt budgets;
- **graceful shutdown** — a :class:`ShutdownRequested`/Ctrl-C caught
  while supervising stops dispatch, drains in-flight tasks, yields the
  completed in-order prefix (so the caller can checkpoint it), then
  re-raises for the CLI to exit 130.

Without a policy a pool is fail-fast (:data:`_FAIL_FAST`: no retry, no
deadline, no drain wait), which is how :func:`repro.parallel.iter_tasks`
runs; :func:`supervised_iter_tasks` is a one-shot pool under a policy.
Either way a failed pooled call raises for its lowest failing task
index, so the reported error does not depend on the worker count.

Every retry/timeout/crash/quarantine event increments the counters
named in :data:`repro.obs.metrics.RESILIENCE_COUNTERS` and is tallied
in the caller-visible :class:`SupervisionLog`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import traceback
import weakref
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, replace
from multiprocessing import connection as mp_connection
from typing import Any

from ..obs import metrics, tracing
from ..obs.metrics import RESILIENCE_COUNTERS
from ..parallel import pool as _pool
from ..parallel.obsmerge import capture_obs, merge_obs
from . import chaos
from .shutdown import ShutdownRequested

__all__ = [
    "SupervisorPolicy",
    "TaskFailure",
    "FailureReport",
    "SupervisionLog",
    "TaskTimeout",
    "PoisonTask",
    "QuarantinedRunError",
    "SupervisedPool",
    "supervised_iter_tasks",
]

#: Failure kinds recorded per attempt (also the manifest schema enum).
FAILURE_KINDS = ("error", "timeout", "crash")


class TaskTimeout(_pool.WorkerCrash):
    """A task exceeded its deadline on every allowed attempt."""

    def __init__(self, message: str, report: "FailureReport"):
        super().__init__(
            message,
            task_index=report.task_index,
            worker_traceback=report.last_traceback(),
        )
        self.report = report


class PoisonTask(_pool.WorkerCrash):
    """A task exhausted its retry budget (``on_poison="fail"``)."""

    def __init__(self, message: str, report: "FailureReport"):
        super().__init__(
            message,
            task_index=report.task_index,
            worker_traceback=report.last_traceback(),
        )
        self.report = report


class QuarantinedRunError(RuntimeError):
    """A quarantine-mode run finished, but some tasks were poison.

    Raised by callers that cannot hand back a partial result (the
    chunked runner): every healthy chunk has been completed and
    checkpointed, the poisoned ones are described by ``log.quarantined``,
    and the CLI maps this to its distinct quarantine exit code.
    """

    def __init__(self, message: str, log: "SupervisionLog", completed: int, total: int):
        super().__init__(message)
        self.log = log
        self.completed = completed
        self.total = total


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs of the supervision layer (see DESIGN.md §12 for tuning).

    Attributes
    ----------
    task_timeout:
        Per-attempt deadline in seconds; ``None`` disables the watchdog.
        Deadlines are enforced only on pooled execution — a serial
        in-process task cannot be killed from within.
    max_retries:
        Re-dispatches allowed after the first failed attempt (so a task
        runs at most ``max_retries + 1`` times).
    backoff_base, backoff_cap:
        Delay before retry ``k`` is ``min(base * 2**(k-1), cap)`` —
        deterministic on purpose: jitter here would not desynchronize
        anything (one parent schedules all retries) but would make run
        timings irreproducible.
    on_poison:
        ``"fail"`` raises :class:`PoisonTask`/:class:`TaskTimeout` for the
        lowest exhausted task, once every result before it is yielded;
        ``"quarantine"`` records a
        :class:`FailureReport`, skips the task's slot, and lets every
        healthy task finish.
    pool_crash_threshold:
        Worker deaths (crashes, OOM kills, failed spawns) tolerated
        before the circuit breaker trips the run to serial in-process
        execution.
    poll_interval:
        Parent watchdog heartbeat: upper bound on how long a result,
        death, deadline, or shutdown request can go unnoticed.
    drain_grace:
        On shutdown with no ``task_timeout``, how long to wait for
        in-flight tasks before abandoning them.
    """

    task_timeout: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.1
    backoff_cap: float = 2.0
    on_poison: str = "fail"
    pool_crash_threshold: int = 3
    poll_interval: float = 0.05
    drain_grace: float = 10.0

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {self.task_timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.on_poison not in ("fail", "quarantine"):
            raise ValueError(
                f"on_poison must be 'fail' or 'quarantine', got {self.on_poison!r}"
            )
        if self.pool_crash_threshold < 1:
            raise ValueError("pool_crash_threshold must be >= 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base/backoff_cap must be >= 0")

    def backoff(self, retry_number: int) -> float:
        """Deterministic delay before the ``retry_number``-th retry (1-based)."""
        return min(self.backoff_base * (2.0 ** (retry_number - 1)), self.backoff_cap)


@dataclass
class TaskFailure:
    """One failed attempt of one task."""

    attempt: int
    kind: str  # "error" | "timeout" | "crash"
    message: str
    traceback: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "attempt": self.attempt,
            "kind": self.kind,
            "message": self.message,
            "traceback": self.traceback,
        }


@dataclass
class FailureReport:
    """Everything known about a task that exhausted its retry budget."""

    task_index: int
    label: str
    attempts: int
    quarantined: bool
    errors: list[TaskFailure] = field(default_factory=list)

    def last_traceback(self) -> str | None:
        for failure in reversed(self.errors):
            if failure.traceback:
                return failure.traceback
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "task_index": self.task_index,
            "label": self.label,
            "attempts": self.attempts,
            "quarantined": self.quarantined,
            "errors": [f.to_dict() for f in self.errors],
        }


@dataclass
class SupervisionLog:
    """Caller-visible tally of everything the supervisor had to absorb."""

    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    breaker_tripped: bool = False
    quarantined: list[FailureReport] = field(default_factory=list)

    @property
    def events(self) -> bool:
        """True when any retry/timeout/crash/quarantine/breaker event fired."""
        return bool(
            self.retries
            or self.timeouts
            or self.crashes
            or self.breaker_tripped
            or self.quarantined
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "breaker_tripped": self.breaker_tripped,
            "quarantined": [r.to_dict() for r in self.quarantined],
        }

    def summary(self) -> str:
        parts = [
            f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}",
            f"{self.timeouts} timeout(s)",
            f"{self.crashes} worker crash(es)",
            f"{len(self.quarantined)} quarantined task(s)",
        ]
        if self.breaker_tripped:
            parts.append("circuit breaker tripped to serial")
        return "supervision: " + ", ".join(parts)


# --------------------------------------------------------------------------
# internal task/worker bookkeeping
# --------------------------------------------------------------------------

#: Preferred start method: fork is cheap and inherits read-only state;
#: spawn is the portable fallback.
_START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)

#: The policy of a pool built without one: the first failed attempt
#: fails the call, no deadline, and no wait for in-flight work on
#: shutdown.
_FAIL_FAST = SupervisorPolicy(max_retries=0, drain_grace=0.0)

#: Slot marker for a quarantined task (never yielded to the caller).
_QUARANTINED = object()


class _TaskState:
    __slots__ = ("index", "payload", "attempts", "failures", "not_before")

    def __init__(self, index: int, payload: Any):
        self.index = index
        self.payload = payload
        self.attempts = 0
        self.failures: list[TaskFailure] = []
        self.not_before = 0.0  # monotonic time before which no re-dispatch


def _inc(name: str) -> None:
    metrics.inc(name, help=RESILIENCE_COUNTERS[name])


def _pickles(obj: Any) -> bool:
    try:
        pickle.dumps(obj)
    except Exception:
        return False
    return True


def _call_task(fn: Callable[[Any], Any], task: Any, want_obs: bool) -> tuple:
    """Run one task under private obs collectors.

    Returns ``("ok", result, None, delta)`` or, when the task raises,
    ``("error", summary, traceback_text, delta)`` — exceptions travel as
    data so unpicklable exception types cannot poison the result pipe.
    """
    with capture_obs(enabled=want_obs) as delta:
        try:
            result = fn(task)
        except Exception as exc:
            return (
                "error",
                f"{type(exc).__name__}: {exc}",
                traceback.format_exc(),
                delta,
            )
    return ("ok", result, None, delta)


#: How often an idle worker checks that its parent is still alive.
_PARENT_CHECK_SECONDS = 0.5


def _supervised_worker_main(
    conn: Any,
    initializer: Callable[..., None] | None,
    initargs: tuple,
) -> None:
    """Worker loop: receive ``(index, attempt, fn, want_obs, task)``, send
    the outcome, until told to stop or orphaned.

    The initializer runs once, so the state it installs serves every
    call the worker takes.  Chaos faults injected here are
    indistinguishable from real worker failures, which is exactly what
    the drill wants.
    """
    _pool._mark_worker(initializer, initargs)
    # A SIGKILLed parent never sends the stop message, and forked siblings
    # hold copies of its pipe ends, so EOF never comes either: an idle
    # worker checks between polls that its parent is still there.
    parent = multiprocessing.parent_process()
    ppid = os.getppid()
    while True:
        try:
            while not conn.poll(_PARENT_CHECK_SECONDS):
                if os.getppid() != ppid or not parent.is_alive():
                    return
            item = conn.recv()
        except (EOFError, OSError):
            break
        if item is None:
            break
        index, attempt, fn, want_obs, task = item
        try:
            chaos.maybe_inject(index, attempt)
            out = _call_task(fn, task, want_obs)
        except chaos.ChaosError as exc:
            out = ("error", f"ChaosError: {exc}", traceback.format_exc(), None)
        try:
            conn.send((index, *out))
        except Exception:
            # Unpicklable/unsendable result: report the failure instead of
            # dying silently (a silent death would read as a pool crash).
            try:
                conn.send(
                    (
                        index,
                        "error",
                        "task result could not be sent back to the parent",
                        traceback.format_exc(),
                        None,
                    )
                )
            except Exception:  # pragma: no cover - pipe gone entirely
                break


class _WorkerHandle:
    """One worker process plus its dedicated message pipe."""

    __slots__ = ("conn", "process", "state", "deadline")

    def __init__(
        self,
        ctx: multiprocessing.context.BaseContext,
        initializer: Callable[..., None] | None,
        initargs: tuple,
    ):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = ctx.Process(
            target=_supervised_worker_main,
            args=(child_conn, initializer, initargs),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.state: _TaskState | None = None
        self.deadline: float | None = None

    def assign(
        self,
        state: _TaskState,
        fn: Callable[[Any], Any],
        want_obs: bool,
        policy: SupervisorPolicy,
    ) -> None:
        self.conn.send((state.index, state.attempts, fn, want_obs, state.payload))
        self.state = state
        self.deadline = (
            time.monotonic() + policy.task_timeout
            if policy.task_timeout is not None
            else None
        )

    def release(self) -> _TaskState | None:
        state, self.state, self.deadline = self.state, None, None
        return state

    def stop(self, kill: bool = False) -> None:
        """Shut the worker down; ``kill=True`` skips the polite attempt."""
        if not kill and self.process.is_alive():
            try:
                self.conn.send(None)
            except (OSError, ValueError, BrokenPipeError):
                pass
            self.process.join(timeout=0.5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


# --------------------------------------------------------------------------
# failure handling shared by the pooled and serial paths
# --------------------------------------------------------------------------


def _record_failure(
    state: _TaskState, kind: str, message: str, tb: str | None
) -> None:
    state.failures.append(
        TaskFailure(
            attempt=state.attempts, kind=kind, message=message, traceback=tb or ""
        )
    )


def _schedule_retry(
    state: _TaskState, policy: SupervisorPolicy, log: SupervisionLog
) -> bool:
    """Arm the next attempt; ``False`` when the retry budget is exhausted."""
    if state.attempts > policy.max_retries:
        return False
    log.retries += 1
    _inc("repro_task_retries_total")
    state.not_before = time.monotonic() + policy.backoff(state.attempts)
    return True


def _poison(
    state: _TaskState, policy: SupervisorPolicy, log: SupervisionLog, label: str
) -> object:
    """Settle an out-of-retries task: :data:`_QUARANTINED` when it is
    quarantined, else the :class:`TaskTimeout`/:class:`PoisonTask` its
    slot raises."""
    report = FailureReport(
        task_index=state.index,
        label=label,
        attempts=state.attempts,
        quarantined=policy.on_poison == "quarantine",
        errors=list(state.failures),
    )
    if report.quarantined:
        log.quarantined.append(report)
        _inc("repro_tasks_quarantined_total")
        return _QUARANTINED
    kinds = {f.kind for f in report.errors}
    if kinds == {"timeout"}:
        return TaskTimeout(
            f"{label}: task {state.index} exceeded its "
            f"{policy.task_timeout}s deadline on all {report.attempts} attempt(s)",
            report,
        )
    last = report.errors[-1].message if report.errors else "unknown failure"
    return PoisonTask(
        f"{label}: task {state.index} is poison after "
        f"{report.attempts} attempt(s); last failure: {last}",
        report,
    )


def _merge_success(delta: Any, attempts: int) -> None:
    """Fold the winning attempt's obs delta into the parent collectors.

    Failed attempts' deltas are dropped (their spans would double-count
    stage aggregates); retried tasks are visible instead through the
    ``attempt`` attribute stamped on the surviving spans and through the
    resilience counters.
    """
    extra = {"attempt": attempts} if attempts > 1 else None
    merge_obs(delta, extra_attrs=extra)


def _run_serial(
    fn: Callable[[Any], Any],
    states: list[_TaskState],
    policy: SupervisorPolicy,
    label: str,
    log: SupervisionLog,
    want_obs: bool,
) -> Iterator[tuple[int, Any]]:
    """Run ``states`` in-process with retry/quarantine bookkeeping.

    No deadlines (a hung in-process task cannot be killed from within)
    and no chaos injection (a ``crash`` fault here would take the parent
    down with it) — this is both the ``workers=1`` path under a policy
    and the circuit breaker's landing strip.
    """
    for state in states:
        while True:
            state.attempts += 1
            status, value, tb, delta = _call_task(fn, state.payload, want_obs)
            if status == "ok":
                _merge_success(delta, state.attempts)
                yield state.index, value
                break
            _record_failure(state, "error", value, tb)
            if _schedule_retry(state, policy, log):
                time.sleep(max(state.not_before - time.monotonic(), 0.0))
                continue
            slot = _poison(state, policy, log, label)
            if slot is not _QUARANTINED:
                raise slot
            break


def _pop_ready(pending: list[_TaskState], now: float) -> _TaskState | None:
    for i, state in enumerate(pending):
        if state.not_before <= now:
            return pending.pop(i)
    return None


def _next_wait(
    workers: list[_WorkerHandle],
    pending: list[_TaskState],
    policy: SupervisorPolicy,
    now: float,
) -> float:
    """How long the parent may sleep before the next scheduled event."""
    timeout = policy.poll_interval
    for handle in workers:
        if handle.deadline is not None:
            timeout = min(timeout, handle.deadline - now)
    for state in pending:
        if state.not_before > now:
            timeout = min(timeout, state.not_before - now)
    return max(timeout, 0.0)


def _stop_workers(handles: list[_WorkerHandle]) -> None:
    while handles:
        handles.pop().stop()


# --------------------------------------------------------------------------
# the pool
# --------------------------------------------------------------------------


class SupervisedPool:
    """Worker processes that outlive one call, supervised call by call.

    Parameters
    ----------
    workers:
        Worker processes; ``None`` resolves via
        :func:`repro.parallel.resolve_workers`.  Results are identical
        for every value.
    initializer, initargs:
        Per-worker setup, run once in each worker process (and again by a
        respawned one), so large shared state is shipped once instead of
        with every task.  Also run in-process before any in-process call.
    label:
        Stage prefix of error messages and failure reports.
    policy:
        The :class:`SupervisorPolicy` of every :meth:`imap` call; ``None``
        is fail-fast (no retry, no deadline).
    supervision:
        The :class:`SupervisionLog` every call tallies into.

    Workers spawn on the first pooled call and stay warm between calls;
    the owner reaps them with :meth:`close` (or ``with``), and a pool
    collected unclosed reaps its idle workers then.  A call runs
    in-process instead — ``fn`` called directly — when it would use one
    worker, when ``fn``, its first task or the initializer state cannot
    be pickled, or when no worker can be started.
    """

    def __init__(
        self,
        workers: int | None = None,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
        label: str = "repro.parallel",
        policy: SupervisorPolicy | None = None,
        supervision: SupervisionLog | None = None,
    ):
        self.workers = _pool.resolve_workers(workers)
        self.label = label
        self.policy = policy
        self.supervision = supervision if supervision is not None else SupervisionLog()
        self._initializer = initializer
        self._initargs = initargs
        #: Whether the initializer state pickles; probed on first pooled use.
        self._shippable: bool | None = None
        #: Live workers waiting for the next call.
        self._idle: list[_WorkerHandle] = []
        #: Stops the idle workers, once: on close(), or when the pool is
        #: collected without one.
        self._reap = weakref.finalize(self, _stop_workers, self._idle)
        self._closed = False

    @property
    def pids(self) -> tuple[int, ...]:
        """Process ids of the warm workers waiting for the next call."""
        return tuple(handle.process.pid for handle in self._idle)

    def imap(
        self, fn: Callable[[Any], Any], tasks: Iterable[Any]
    ) -> Iterator[tuple[int, Any]]:
        """Map ``fn`` over ``tasks``, yielding ``(index, result)`` in order.

        Retries, deadlines, quarantine and the circuit breaker are those
        of one :func:`supervised_iter_tasks` call: their counts start
        afresh with each call, and only the workers and the state their
        initializer installed carry over.  Quarantined tasks' indices are
        skipped.  A failed pooled call raises for its lowest failing task
        index; an in-process call without a policy raises ``fn``'s own
        exception.
        """
        if self._closed:
            raise _pool.WorkerCrash(f"{self.label}: pool used after close()")
        states = [_TaskState(i, task) for i, task in enumerate(tasks)]
        if not states:
            return
        want_obs = tracing.current() is not None or metrics.current() is not None
        if min(self.workers, len(states)) > 1 and self._can_ship(
            fn, states[0].payload
        ):
            yield from self._supervise(fn, states, want_obs)
        else:
            yield from self._serial(fn, states, want_obs)

    def close(self) -> None:
        """Stop the warm workers; the pool cannot be used again."""
        self._closed = True
        self._reap()

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------ internals
    def _can_ship(self, fn: Callable[[Any], Any], task: Any) -> bool:
        if self._shippable is None:
            self._shippable = _pickles((self._initializer, self._initargs))
        return self._shippable and _pickles((fn, task))

    def _install(self) -> None:
        if self._initializer is not None:
            self._initializer(*self._initargs)

    def _serial(
        self, fn: Callable[[Any], Any], states: list[_TaskState], want_obs: bool
    ) -> Iterator[tuple[int, Any]]:
        self._install()
        if self.policy is None:
            for state in states:
                yield state.index, fn(state.payload)
        else:
            yield from _run_serial(
                fn, states, self.policy, self.label, self.supervision, want_obs
            )

    def _supervise(
        self, fn: Callable[[Any], Any], states: list[_TaskState], want_obs: bool
    ) -> Iterator[tuple[int, Any]]:
        ctx = multiprocessing.get_context(_START_METHOD)
        policy = self.policy if self.policy is not None else _FAIL_FAST
        label, log = self.label, self.supervision
        n_workers = min(self.workers, len(states))
        workers = list(self._idle)
        self._idle.clear()
        pending: list[_TaskState] = list(states)
        #: Finished slots by task index: ``(value, delta, attempts)``,
        #: :data:`_QUARANTINED`, or the exception the slot raises.
        results: dict[int, Any] = {}
        next_yield = 0
        #: The lowest task index whose failure ends the call.
        failed_at = len(states)
        crashes = 0
        draining = False
        drain_deadline = float("inf")
        shutdown_exc: BaseException | None = None

        def crashed() -> None:
            nonlocal crashes
            crashes += 1
            log.crashes += 1
            _inc("repro_pool_crashes_total")

        def spawn() -> bool:
            try:
                workers.append(_WorkerHandle(ctx, self._initializer, self._initargs))
                return True
            except (OSError, ValueError):
                crashed()
                return False

        def task_failed(
            state: _TaskState, kind: str, message: str, tb: str | None
        ) -> None:
            """Record a failed attempt; re-queue or settle the task."""
            nonlocal failed_at
            _record_failure(state, kind, message, tb)
            if draining or state.index > failed_at:
                return  # no retries while shutting down; --resume redoes it
            if _schedule_retry(state, policy, log):
                pending.append(state)
                return
            slot = _poison(state, policy, log, label)
            results[state.index] = slot
            if slot is not _QUARANTINED:
                # Nothing past this index will be yielded: stop feeding it.
                failed_at = state.index
                pending[:] = [s for s in pending if s.index < failed_at]

        def reap(handle: _WorkerHandle, kill: bool) -> None:
            handle.stop(kill=kill)
            workers.remove(handle)

        def ready() -> Iterator[tuple[int, Any]]:
            """Yield every result that extends the in-order prefix."""
            nonlocal next_yield
            while next_yield in results:
                slot = results.pop(next_yield)
                index, next_yield = next_yield, next_yield + 1
                if isinstance(slot, BaseException):
                    raise slot
                if slot is not _QUARANTINED:
                    value, delta, attempts = slot
                    _merge_success(delta, attempts)
                    yield index, value

        try:
            for _ in range(n_workers - len(workers)):
                spawn()
            if not workers:
                # No pool at all (resource limits, sandbox): run in-process.
                yield from self._serial(fn, pending, want_obs)
                return

            # Circuit breaker: repeated pool-level deaths mean the machine
            # (not a task) is the problem — below, fall back to one process.
            while crashes < policy.pool_crash_threshold:
                try:
                    yield from ready()
                    if next_yield >= len(states):
                        return
                    if draining and all(h.state is None for h in workers):
                        raise shutdown_exc  # drained everything in flight

                    now = time.monotonic()
                    # Keep the pool at strength and the idle workers busy.
                    if not draining:
                        in_flight = sum(1 for h in workers if h.state is not None)
                        while len(workers) < min(n_workers, in_flight + len(pending)):
                            if not spawn():
                                break
                        for handle in workers:
                            if handle.state is not None or not handle.process.is_alive():
                                continue
                            state = _pop_ready(pending, now)
                            if state is None:
                                break
                            state.attempts += 1
                            try:
                                handle.assign(state, fn, want_obs, policy)
                            except (OSError, ValueError, BrokenPipeError):
                                # Died between poll and send: crash-account it.
                                pending.append(state)
                                state.attempts -= 1
                                crashed()
                                reap(handle, kill=True)
                                break

                    waitables: list[Any] = []
                    for handle in workers:
                        waitables.append(handle.conn)
                        waitables.append(handle.process.sentinel)
                    if waitables:
                        mp_connection.wait(
                            waitables, timeout=_next_wait(workers, pending, policy, now)
                        )
                    elif pending:
                        time.sleep(_next_wait(workers, pending, policy, now))

                    now = time.monotonic()
                    if draining and now >= drain_deadline:
                        raise shutdown_exc  # in-flight work refused to finish

                    for handle in list(workers):
                        # 1. completed result (consume before declaring death:
                        #    a worker may finish the task and then die).
                        try:
                            has_data = handle.conn.poll()
                        except (OSError, EOFError):
                            has_data = False
                        if has_data:
                            try:
                                msg = handle.conn.recv()
                            except (EOFError, OSError):
                                msg = None
                            if msg is not None:
                                index, status, value, tb, delta = msg
                                state = handle.release()
                                if state is None or state.index != index:
                                    continue  # stale message from a reassigned pipe
                                if status == "ok":
                                    results[index] = (value, delta, state.attempts)
                                else:
                                    task_failed(state, "error", value, tb)
                                continue
                        # 2. worker death (crash, OOM kill, chaos kill/crash).
                        if not handle.process.is_alive():
                            state = handle.release()
                            crashed()
                            reap(handle, kill=True)
                            if state is not None:
                                task_failed(
                                    state,
                                    "crash",
                                    "worker process died while running task "
                                    f"{state.index} (exit code "
                                    f"{handle.process.exitcode})",
                                    None,
                                )
                            continue
                        # 3. deadline exceeded: the watchdog turns a wedged
                        #    worker into a recorded timeout.
                        if (
                            handle.state is not None
                            and handle.deadline is not None
                            and now >= handle.deadline
                        ):
                            state = handle.release()
                            log.timeouts += 1
                            _inc("repro_task_timeouts_total")
                            reap(handle, kill=True)
                            task_failed(
                                state,
                                "timeout",
                                f"task {state.index} exceeded the "
                                f"{policy.task_timeout}s deadline",
                                None,
                            )
                except (ShutdownRequested, KeyboardInterrupt) as exc:
                    if draining:
                        raise  # second signal: stop waiting, abandon the drain
                    draining = True
                    shutdown_exc = exc
                    drain_deadline = time.monotonic() + (
                        policy.task_timeout
                        if policy.task_timeout is not None
                        else policy.drain_grace
                    )

            log.breaker_tripped = True
            _inc("repro_breaker_trips_total")
            for handle in list(workers):
                state = handle.release()
                if state is not None and state.index < failed_at:
                    pending.append(state)
                reap(handle, kill=True)
        finally:
            # Idle workers stay warm for the next call; a busy one is
            # running work nobody will collect, so it is killed.
            for handle in workers:
                if handle.state is None and handle.process.is_alive() and not self._closed:
                    self._idle.append(handle)
                else:
                    handle.stop(kill=handle.state is not None)

        # The breaker tripped: finish the remaining work in-process,
        # preserving each task's consumed attempt budget.
        remaining = sorted(pending, key=lambda s: s.index)
        if remaining:
            self._install()
            try:
                for index, value in _run_serial(
                    fn, remaining, policy, label, log, want_obs
                ):
                    results[index] = (value, None, 1)  # obs merged already
            except _pool.WorkerCrash as exc:
                results[exc.task_index] = exc
            for state in remaining:
                results.setdefault(state.index, _QUARANTINED)
        yield from ready()


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------


def supervised_iter_tasks(
    fn: Callable[[Any], Any],
    tasks: Iterable[Any],
    workers: int | None = None,
    policy: SupervisorPolicy | None = None,
    label: str = "repro.resilience",
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
    supervision: SupervisionLog | None = None,
) -> Iterator[tuple[int, Any]]:
    """Supervised :func:`repro.parallel.pool.iter_tasks`: one call on a
    one-shot :class:`SupervisedPool` under ``policy`` (by default
    :class:`SupervisorPolicy`'s defaults).

    Yields ``(index, result)`` strictly in task order; quarantined tasks'
    indices are skipped (the :class:`SupervisionLog` names them).  The
    in-process path (``workers=1``, unpicklable payloads, pool
    unavailable, tripped breaker) applies the same retry/quarantine
    policy minus deadlines, so supervision semantics never depend on the
    machine.
    """
    with SupervisedPool(
        workers,
        initializer,
        initargs,
        label,
        policy if policy is not None else SupervisorPolicy(),
        supervision,
    ) as pool:
        yield from pool.imap(fn, tasks)


def force_fail(policy: SupervisorPolicy | None) -> SupervisorPolicy | None:
    """A copy of ``policy`` with ``on_poison="fail"``.

    For call sites that must hand back a *complete* result (fleet shards
    concatenated into one trace, scoring shards concatenated into one
    probability vector) — a quarantined hole there would silently corrupt
    the output, so poison must raise instead.
    """
    if policy is None or policy.on_poison == "fail":
        return policy
    return replace(policy, on_poison="fail")
