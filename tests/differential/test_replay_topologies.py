"""Differential oracle for the replay topologies: every way this repo
replays a trace scores it the same.

Hypothesis draws a fault plan (row-level fault classes, a rate and a
seed, applied to a small fleet's trace), two chunk sizes, a shard
count, a checkpoint cadence and a batch size.  The guarded chunked
``replay`` at the first chunk size is the reference; each topology
must reproduce its probability bytes, its ``accepted_index`` (where
the topology has one) and its diverted/duplicate counts:

- the guarded ``replay`` at the second chunk size;
- on a clean trace, the offline ``predict_proba_records`` and the
  unguarded ``replay``;
- ``replay_events`` over the trace's events, with size-bound batches;
- the in-process sharded plane (``run_sharded_replay``).

Three restore properties follow: a shard task rerun from its previous
checkpoint, as the retry after a kill runs it, a replay restored from a
mid-stream snapshot, and a replay restored from a snapshot of an
already restored replay all reproduce the uninterrupted run: its
scores, rows and counts, and for the shard its status counters.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FailurePredictor
from repro.data.io import iter_drive_days
from repro.reliability import FaultInjector
from repro.serve import (
    AdmissionGuard,
    BatchPolicy,
    FeatureStore,
    ScoringEngine,
    ShardPaths,
    latest_snapshot,
    list_generations,
    run_sharded_replay,
)
from repro.serve.partition import PartitionMap
from repro.serve.shard import run_shard_task
from repro.simulator import FleetConfig, simulate_fleet

FAULTS = ("duplicate_rows", "out_of_order", "value_spikes", "missing_days")


@pytest.fixture(scope="module")
def fleet():
    """A small fleet's trace (~1,200 rows, 12 drives) and a model."""
    trace = simulate_fleet(
        FleetConfig(n_drives_per_model=4, horizon_days=200, deploy_spread_days=100, seed=11)
    )
    return trace.records, FailurePredictor(lookahead=7, seed=3).fit(trace)


def _trace(records, classes, rate, seed):
    if not classes:
        return records
    rates = {c: rate for c in classes}
    return FaultInjector(seed).inject(records, classes, rates).dataset()


def _engine(predictor, guarded=True, batch_size=256, store=None):
    store = FeatureStore() if store is None else store
    return ScoringEngine(
        predictor,
        store=store,
        guard=AdmissionGuard(store) if guarded else None,
        batch_policy=BatchPolicy(max_batch_size=batch_size, max_wait_seconds=float("inf")),
        workers=1,
    )


def _assert_agrees(result, reference, index=True):
    assert result.probability.tobytes() == reference.probability.tobytes()
    if index:
        assert np.array_equal(result.accepted_index, reference.accepted_index)
    assert (result.n_diverted, result.n_duplicates) == (
        reference.n_diverted,
        reference.n_duplicates,
    )


fault_plans = st.tuples(
    st.lists(st.sampled_from(FAULTS), unique=True, max_size=4),
    st.sampled_from([0.01, 0.03, 0.1]),
    st.integers(0, 2**16),
)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    plan=fault_plans,
    chunk_a=st.integers(1, 900),
    chunk_b=st.integers(1, 900),
    n_shards=st.integers(1, 3),
    checkpoint_every=st.none() | st.integers(20, 600),
    batch_size=st.integers(1, 64),
)
def test_every_topology_scores_like_the_guarded_replay(
    fleet, plan, chunk_a, chunk_b, n_shards, checkpoint_every, batch_size
):
    records, predictor = fleet
    classes, rate, seed = plan
    trace = _trace(records, classes, rate, seed)
    reference = _engine(predictor).replay(trace, chunk_rows=chunk_a)

    _assert_agrees(_engine(predictor).replay(trace, chunk_rows=chunk_b), reference)

    if not classes:
        n = len(records)
        assert reference.probability.tobytes() == (
            predictor.predict_proba_records(records).tobytes()
        )
        assert np.array_equal(reference.accepted_index, np.arange(n))
        unguarded = _engine(predictor, guarded=False).replay(trace, chunk_rows=chunk_b)
        assert unguarded.probability.tobytes() == reference.probability.tobytes()

    events = iter_drive_days(trace, chunk_rows=chunk_b)
    _assert_agrees(
        _engine(predictor, batch_size=batch_size).replay_events(events),
        reference,
        index=False,
    )

    with tempfile.TemporaryDirectory() as plane:
        sharded = run_sharded_replay(
            predictor,
            trace,
            n_shards,
            plane,
            chunk_rows=chunk_b,
            checkpoint_every=checkpoint_every,
            workers=1,
        )
    _assert_agrees(sharded, reference)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    plan=fault_plans,
    chunk_rows=st.integers(1, 900),
    n_shards=st.integers(1, 3),
    checkpoint_every=st.integers(20, 600),
)
def test_a_rerun_shard_task_reproduces_its_killed_attempt(
    fleet, plan, chunk_rows, n_shards, checkpoint_every
):
    # Dropping a shard's final checkpoint leaves its newest cut
    # mid-stream, as a kill would; the rerun restores that cut.  Its
    # scores, rows and counts, the duplicates dropped before the cut
    # included, are the first run's.
    records, predictor = fleet
    trace = _trace(records, *plan)
    with tempfile.TemporaryDirectory() as root:
        sharded = run_sharded_replay(
            predictor,
            trace,
            n_shards,
            root,
            chunk_rows=chunk_rows,
            checkpoint_every=checkpoint_every,
            workers=1,
        )
        task_plan = {
            "root": root,
            "n_shards": n_shards,
            "chunk_rows": chunk_rows,
            "checkpoint_every": checkpoint_every,
            "n_rows": len(trace),
        }
        ids = np.asarray(trace["drive_id"])
        for shard in sharded.shards:
            paths = ShardPaths(Path(root), shard["shard_id"])
            final = latest_snapshot(paths.checkpoint_base)
            reference = FeatureStore.restore(final).cut
            status = json.loads(paths.status.read_text())
            final.unlink()
            rerun = run_shard_task(predictor, trace, task_plan, shard["shard_id"])
            own = np.flatnonzero(PartitionMap(n_shards).shard_of_array(ids) == shard["shard_id"])
            assert rerun["probability"].tobytes() == reference["scores"].tobytes()
            assert np.array_equal(rerun["accepted_global"], own[reference["score_rows"]])
            assert (rerun["n_diverted"], rerun["n_duplicates"]) == (
                shard["n_diverted"],
                shard["n_duplicates"],
            )
            again = json.loads(paths.status.read_text())
            for key in ("guard", "events_seen", "requests_total"):
                assert again[key] == status[key]


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    plan=fault_plans,
    chunk_a=st.integers(1, 900),
    chunk_b=st.integers(1, 900),
    snapshot_every=st.integers(20, 600),
    pick=st.integers(0, 2**16),
)
def test_a_restored_replay_resumes_where_its_snapshot_was_cut(
    fleet, plan, chunk_a, chunk_b, snapshot_every, pick
):
    records, predictor = fleet
    trace = _trace(records, *plan)
    with tempfile.TemporaryDirectory() as root:
        base = Path(root) / "store.npz"
        full = _engine(predictor).replay(
            trace,
            chunk_rows=chunk_a,
            snapshot_every=snapshot_every,
            snapshot_path=base,
            snapshot_keep=10**6,
        )
        gens = list_generations(base)
        store = FeatureStore.restore(gens[pick % len(gens)][1])
    resumed = _engine(predictor, store=store).replay(trace, chunk_rows=chunk_b)
    _assert_agrees(resumed, full)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    plan=fault_plans,
    chunks=st.tuples(st.integers(1, 900), st.integers(1, 900), st.integers(1, 900)),
    snapshot_every=st.tuples(st.integers(20, 600), st.integers(20, 600)),
    picks=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
)
def test_a_twice_restored_replay_still_returns_the_whole_run(
    fleet, plan, chunks, snapshot_every, picks
):
    # Restore a drawn generation, replay it with snapshots into a second
    # base, restore a drawn generation of that, and replay again.
    records, predictor = fleet
    trace = _trace(records, *plan)
    full = _engine(predictor).replay(trace, chunk_rows=chunks[0])
    store = FeatureStore()
    with tempfile.TemporaryDirectory() as root:
        for k, name in enumerate(("first.npz", "second.npz")):
            base = Path(root) / name
            _engine(predictor, store=store).replay(
                trace,
                chunk_rows=chunks[k],
                snapshot_every=snapshot_every[k],
                snapshot_path=base,
                snapshot_keep=10**6,
            )
            gens = list_generations(base)
            store = FeatureStore.restore(gens[picks[k] % len(gens)][1])
    resumed = _engine(predictor, store=store).replay(trace, chunk_rows=chunks[2])
    _assert_agrees(resumed, full)
