"""Deterministic process-pool execution.

The paper's two hot paths — fleet simulation and CV/grid-search — are
embarrassingly parallel *and* seeded per unit of work (per-drive RNG
streams, per-fold downsampling streams), so worker scheduling can never
influence results.  This module supplies the one execution primitive
both paths share:

- :func:`iter_tasks` / :func:`run_tasks` — map a **module-level**
  function over a task list with ``N`` worker processes, yielding
  results strictly in task order no matter which worker finishes first;
- serial fallback — ``workers=1``, a single task, an unpicklable
  payload, or a pool that cannot start all call the function directly
  in-process, so parallelism is an optimization, never a requirement;
- observability — each pooled task runs under
  :func:`~.obsmerge.capture_obs` and its span/metric delta is merged
  into the parent's collectors as the result is consumed (in task order,
  so merges are deterministic);
- clean failure — a task that raises (or a worker that dies outright)
  surfaces as :class:`WorkerCrash` for the lowest failing task, carrying
  the worker-side traceback; the CLI maps it to exit code 2 instead of
  hanging.

The workers are those of :class:`repro.resilience.SupervisedPool`, the
package's one pool; without a ``policy`` it runs fail-fast.

Worker counts resolve as: explicit argument > ``REPRO_WORKERS`` env var
> 1 (serial).  Inside a pool worker the resolution is pinned to 1, so
nested parallel calls (e.g. a grid-search worker running CV) cannot
fork-bomb the machine.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator
from typing import Any

import numpy as np

from ..errors import ReproError

__all__ = [
    "ENV_WORKERS",
    "WorkerCrash",
    "WorkerConfigError",
    "resolve_workers",
    "shard_ranges",
    "iter_tasks",
    "run_tasks",
]

#: Environment variable consulted when no explicit worker count is given.
ENV_WORKERS = "REPRO_WORKERS"

#: Set in pool children: nested resolve_workers() calls stay serial.
_in_worker = False


class WorkerCrash(RuntimeError, ReproError):
    """A pool task failed; carries the worker-side traceback when known."""

    def __init__(
        self,
        message: str,
        task_index: int | None = None,
        worker_traceback: str | None = None,
    ):
        super().__init__(message)
        self.task_index = task_index
        self.worker_traceback = worker_traceback

    def detail(self) -> str | None:
        return self.worker_traceback or None


class WorkerConfigError(ValueError, ReproError):
    """Bad worker configuration (``REPRO_WORKERS`` or explicit count).

    Subclasses :class:`ValueError` for backward compatibility; the CLI
    maps it to a one-line message and exit code 2 instead of a traceback.
    """


def resolve_workers(workers: int | None) -> int:
    """Resolve a worker count: explicit > ``REPRO_WORKERS`` > 1 (serial).

    Pool children always resolve to 1, whatever the environment says —
    nested fan-out would oversubscribe the machine without speeding
    anything up.
    """
    if _in_worker:
        return 1
    if workers is None:
        raw = os.environ.get(ENV_WORKERS, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise WorkerConfigError(
                f"{ENV_WORKERS} must be an integer, got {raw!r}"
            ) from None
    if workers < 1:
        raise WorkerConfigError(f"workers must be >= 1, got {workers}")
    return workers


def shard_ranges(
    n: int, workers: int, per_worker: int = 4
) -> list[tuple[int, int]]:
    """Split ``range(n)`` into contiguous near-equal ``(lo, hi)`` shards.

    A few shards per worker (not one) so an expensive shard cannot
    straggle the whole pool; shard boundaries depend only on ``n`` and
    the shard count, never on timing.
    """
    if n <= 0:
        return []
    n_shards = max(1, min(n, workers * per_worker))
    bounds = np.linspace(0, n, n_shards + 1).astype(np.int64)
    return [
        (int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
    ]


def _mark_worker(
    extra_init: Callable[..., None] | None = None, extra_args: tuple = ()
) -> None:
    """Pool-child initializer: pin nested parallelism to serial."""
    global _in_worker
    _in_worker = True
    os.environ[ENV_WORKERS] = "1"
    if extra_init is not None:
        extra_init(*extra_args)


def iter_tasks(
    fn: Callable[[Any], Any],
    tasks: Iterable[Any],
    workers: int | None = None,
    label: str = "repro.parallel",
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
    policy: Any | None = None,
    supervision: Any | None = None,
) -> Iterator[tuple[int, Any]]:
    """Map ``fn`` over ``tasks``, yielding ``(index, result)`` in order.

    Parameters
    ----------
    fn:
        Module-level function of one argument (must be picklable for the
        parallel path; the serial fallback takes anything callable).
    tasks:
        Task payloads, one per call.
    workers:
        Worker processes; ``None`` resolves via :func:`resolve_workers`.
        Results are identical for every value — determinism comes from
        per-task seeds, not scheduling.
    label:
        Stage prefix used in error messages.
    initializer, initargs:
        Optional per-worker setup (e.g. installing a large shared array
        once per process instead of once per task).  Also invoked
        in-process on the serial path, so ``fn`` can rely on it.
    policy, supervision:
        A :class:`repro.resilience.SupervisorPolicy` adds deadlines,
        retries, quarantine and the circuit breaker; ``supervision``
        optionally receives the :class:`~repro.resilience.SupervisionLog`.
        ``None`` is fail-fast: the first failed attempt ends the run.
    """
    # Lazy import: resilience sits above parallel in the layering.
    from ..resilience.supervisor import SupervisedPool

    with SupervisedPool(
        workers, initializer, initargs, label, policy, supervision
    ) as pool:
        yield from pool.imap(fn, tasks)


def run_tasks(
    fn: Callable[[Any], Any],
    tasks: Iterable[Any],
    workers: int | None = None,
    label: str = "repro.parallel",
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
    policy: Any | None = None,
    supervision: Any | None = None,
) -> list[Any]:
    """Eager form of :func:`iter_tasks`: results as a list, task order."""
    return [
        result
        for _, result in iter_tasks(
            fn,
            tasks,
            workers=workers,
            label=label,
            initializer=initializer,
            initargs=initargs,
            policy=policy,
            supervision=supervision,
        )
    ]
