"""Differential oracle for the pool layer.

Whatever the worker count, the supervision policy and the worker fault
plan, a run either yields exactly what the fault-free serial run yields,
or fails with :class:`~repro.parallel.WorkerCrash` for the lowest task
the plan faults.  The plan is a pure function of ``(REPRO_CHAOS_SEED,
task_index)`` (:func:`repro.resilience.planned_fault`), and the
``error`` and ``crash`` modes fire on a task's first attempt only, so a
policy with one retry or more covers every fault; without a policy the
first fault fails the run.  The in-process path (one worker, or one
task) never injects.
"""

from __future__ import annotations

import multiprocessing
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import WorkerCrash, iter_tasks
from repro.resilience import (
    ENV_CHAOS,
    ENV_CHAOS_SEED,
    SupervisorPolicy,
    parse_chaos_spec,
    planned_fault,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="workers inherit the fault plan through fork",
)


def _square(x):
    return x * x


policies = st.one_of(
    st.none(),
    st.builds(
        SupervisorPolicy,
        max_retries=st.integers(1, 2),
        backoff_base=st.just(0.001),
    ),
)

chaos_specs = st.one_of(
    st.none(),
    st.builds(
        "{}={}".format,
        st.sampled_from(["error", "crash"]),
        st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5]),
    ),
)


@settings(max_examples=50, deadline=None)
@given(
    n_tasks=st.integers(0, 12),
    workers=st.integers(1, 3),
    policy=policies,
    spec=chaos_specs,
    chaos_seed=st.integers(0, 2**16),
)
def test_pool_matches_serial_or_fails_at_lowest_fault(
    n_tasks, workers, policy, spec, chaos_seed
):
    tasks = list(range(n_tasks))
    serial = [(i, _square(i)) for i in tasks]
    plan = parse_chaos_spec(spec) if spec else []
    faulted = [i for i in tasks if planned_fault(i, plan, chaos_seed) is not None]
    pooled = min(workers, n_tasks) > 1
    env = {ENV_CHAOS: spec or "", ENV_CHAOS_SEED: str(chaos_seed)}
    with mock.patch.dict(os.environ, env):
        run = iter_tasks(_square, tasks, workers=workers, policy=policy)
        if pooled and faulted and policy is None:
            with pytest.raises(WorkerCrash) as exc_info:
                list(run)
            assert exc_info.value.task_index == faulted[0]
        else:
            assert list(run) == serial
