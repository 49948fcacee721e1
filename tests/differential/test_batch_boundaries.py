"""Differential oracle for the micro-batcher: no output may depend on
when a batch closes.

Hypothesis draws a batch policy, a fake-clock schedule (the time between
submissions and how many idle polls fall in each gap), a fixed cost per
scoring call that the clock advances by, and a chaos-perturbed event
stream (duplicates, reorders, late and garbled arrivals).  Whatever
those are, the scored events — staleness tags included — the policy
runner's audit journal and the health breaker's trips must equal those
of the unbatched ``max_batch_size=1`` run.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FailurePredictor
from repro.data.io import iter_drive_days
from repro.fleet import AuditJournal, PolicyRunner, ThresholdPolicy
from repro.resilience import TELEMETRY_MODES, chaos_telemetry_events
from repro.serve import (
    AdmissionGuard,
    BatchPolicy,
    FeatureStore,
    ScoringEngine,
    ServeBreaker,
    StalenessPolicy,
)
from repro.simulator import FleetConfig, simulate_fleet


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture(scope="module")
def live():
    """A small fleet's events in calendar order (a live feed) and a model."""
    trace = simulate_fleet(
        FleetConfig(n_drives_per_model=4, horizon_days=200, deploy_spread_days=100, seed=11)
    )
    predictor = FailurePredictor(lookahead=7, seed=3).fit(trace)
    events = sorted(
        ({k: v.item() for k, v in e.items()} for e in iter_drive_days(trace.records)),
        key=lambda e: (e["calendar_day"], e["drive_id"]),
    )
    return predictor, events


def _serve(predictor, events, policy, staleness, schedule=(), cost=0.0):
    """Feed ``events`` to a guarded engine on a fake clock; returns the
    scored events, the audit journal's bytes and the breaker's record."""
    clock = FakeClock()
    with tempfile.TemporaryDirectory() as tmp:
        journal = AuditJournal(Path(tmp) / "audit.jsonl")
        runner = PolicyRunner(
            ThresholdPolicy(
                watch_at=0.4, quarantine_at=0.6, replace_at=0.8, clear_below=0.2
            ),
            journal=journal,
        )
        store = FeatureStore()
        engine = ScoringEngine(
            predictor,
            store=store,
            batch_policy=policy,
            guard=AdmissionGuard(
                store, breaker=ServeBreaker(fault_threshold=2, recovery_threshold=4)
            ),
            staleness=staleness,
            on_scored=runner.feed,
            clock=clock,
        )
        score_rows = engine._score_rows

        def timed_call(X, ages):
            clock.now += cost
            return score_rows(X, ages)

        engine._score_rows = timed_call
        scored = []
        for i, event in enumerate(events):
            if schedule:
                gap, polls = schedule[i % len(schedule)]
                for _ in range(polls):
                    clock.now += gap / (polls + 1)
                    scored += engine.poll()
                clock.now += gap / (polls + 1)
            scored += engine.submit(event)
        scored += engine.drain()
        runner.finalize()
        journal.close()
        audit = (Path(tmp) / "audit.jsonl").read_bytes()
    return scored, audit, engine.guard.breaker.to_dict()


chaos_specs = st.dictionaries(
    st.sampled_from(TELEMETRY_MODES), st.sampled_from([0.05, 0.1, 0.2]), max_size=4
)
schedules = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0002, 0.001, 0.005, 0.02, 0.06]),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=40,
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    max_batch_size=st.integers(1, 64),
    max_wait=st.floats(0.0, 0.05),
    schedule=schedules,
    cost=st.sampled_from([0.0, 0.0002, 0.001, 0.004]),
    start=st.integers(0, 900),
    length=st.integers(1, 120),
    spec=chaos_specs,
    chaos_seed=st.integers(0, 2**16),
    max_lag=st.integers(0, 3),
    count_as_fault=st.booleans(),
)
def test_outputs_do_not_depend_on_batch_boundaries(
    live,
    max_batch_size,
    max_wait,
    schedule,
    cost,
    start,
    length,
    spec,
    chaos_seed,
    max_lag,
    count_as_fault,
):
    predictor, events = live
    stream = list(
        chaos_telemetry_events(events[start : start + length], spec, chaos_seed)
    )
    staleness = StalenessPolicy(max_lag_days=max_lag, count_as_fault=count_as_fault)
    reference = _serve(predictor, stream, BatchPolicy(max_batch_size=1), staleness)
    batched = _serve(
        predictor,
        stream,
        BatchPolicy(max_batch_size=max_batch_size, max_wait_seconds=max_wait),
        staleness,
        schedule,
        cost,
    )
    assert batched[0] == reference[0]
    assert batched[1] == reference[1]
    assert batched[2] == reference[2]
