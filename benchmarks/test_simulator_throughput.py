"""Performance benchmarks for the substrate itself.

Unlike the experiment benches (one-shot pedantic runs), these measure
steady-state throughput of the hot paths: fleet simulation, feature
extraction, and forest scoring.

The floor tests at the bottom pin the committed throughput targets of
the columnar overhaul against the seed baseline (the constants below
record both).  They need a quiet box — wall-clock assertions on a
loaded CI sandbox measure the neighbours, not the code — so they skip
below four cores like ``test_serve_throughput.py``.
"""

import os
import time

import numpy as np
import pytest

from repro.core import build_features, build_prediction_dataset
from repro.data import downsample_majority
from repro.ml import RandomForestClassifier
from repro.simulator import FleetConfig, simulate_fleet

#: Seed serial throughput (drive-day events/s) on the 1-core reference
#: box: best-of-5 at the BENCH_CFG workload before the columnar
#: overhaul.  The committed speedup targets below are multiples of it.
SEED_SERIAL_EVENTS_PER_SECOND = 770_000

#: Serial floor: the overhaul's buffered emission and in-place
#: error/workload kernels must stay ahead of the seed on one process.
#: Per-drive RNG draw order is the identity contract, so the serial path
#: is bounded by raw draw time (~35% of the wall clock) — the bulk of
#: the committed speedup target rides on sharding, below.
MIN_SERIAL_EVENTS_PER_SECOND = 800_000

#: Combined floor at four workers: the committed >=5x target over the
#: seed serial baseline.  Needs four *fast* quiet cores: the serial win
#: plus near-linear drive-shard scaling (shards are balanced and share
#: nothing until assembly).
MIN_WORKERS4_SPEEDUP = 5.0

BENCH_CFG = FleetConfig(
    n_drives_per_model=60, horizon_days=730, deploy_spread_days=365, seed=3
)


def _best_rate(runs: int, **kwargs) -> float:
    """Best-of-N drive-day events/s (floors measure the code, not noise)."""
    best = float("inf")
    n_records = 0
    for _ in range(runs):
        t0 = time.perf_counter()
        trace = simulate_fleet(BENCH_CFG, **kwargs)
        best = min(best, time.perf_counter() - t0)
        n_records = len(trace.records)
    return n_records / best


def test_simulate_fleet_throughput(benchmark):
    trace = benchmark(simulate_fleet, BENCH_CFG)
    assert len(trace.records) > 10_000


def test_simulate_fleet_throughput_two_workers(benchmark):
    """Same fleet through the sharded pool path (workers=2).

    Comparing this number against the serial bench above shows the
    fan-out overhead/payoff at this fleet size; the record count pins
    the workload to the exact same trace.
    """
    trace = benchmark(simulate_fleet, BENCH_CFG, workers=2)
    assert len(trace.records) > 10_000


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="throughput floor needs a quiet 4-core box"
)
def test_simulate_fleet_serial_floor():
    simulate_fleet(BENCH_CFG)  # warm: imports, allocator growth
    rate = _best_rate(3)
    assert rate >= MIN_SERIAL_EVENTS_PER_SECOND, (
        f"serial simulator sustained {rate:,.0f} drive-day events/s, below "
        f"the {MIN_SERIAL_EVENTS_PER_SECOND:,} floor"
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="throughput floor needs a quiet 4-core box"
)
def test_simulate_fleet_workers4_floor():
    simulate_fleet(BENCH_CFG, workers=4)  # warm: pool startup, imports
    rate = _best_rate(3, workers=4)
    floor = SEED_SERIAL_EVENTS_PER_SECOND * MIN_WORKERS4_SPEEDUP
    assert rate >= floor, (
        f"sharded simulator sustained {rate:,.0f} drive-day events/s at 4 "
        f"workers — {rate / SEED_SERIAL_EVENTS_PER_SECOND:.1f}x the seed "
        f"serial baseline, below the {MIN_WORKERS4_SPEEDUP:.0f}x floor"
    )


def test_feature_extraction_throughput(benchmark, ml_trace):
    frame = benchmark(build_features, ml_trace.records)
    assert frame.X.shape[0] == len(ml_trace.records)


def test_forest_scoring_throughput(benchmark, ml_trace):
    ds = build_prediction_dataset(ml_trace, lookahead=1)
    rng = np.random.default_rng(0)
    keep = downsample_majority(ds.y, 1.0, rng)
    rf = RandomForestClassifier(
        n_estimators=40, max_depth=10, random_state=0
    ).fit(ds.X[keep], ds.y[keep])
    sample = ds.X[:200_000]
    scores = benchmark(rf.predict_proba, sample)
    assert scores.shape == (sample.shape[0],)
