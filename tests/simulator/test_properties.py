"""Property-based tests: simulator invariants under random configurations.

Hypothesis draws random (small) fleet configurations and drive seeds; every
draw must satisfy the structural invariants the rest of the stack relies
on — sorted records, monotone cumulative counters, consistent event
ordering, no telemetry from inside the repair shop.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simulator import MLC_B, FleetConfig, simulate_drive, simulate_fleet


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    deploy=st.integers(0, 300),
    horizon=st.integers(330, 1200),
)
# An MLC-B drive that re-enters production and fails again.
@example(seed=1223, deploy=0, horizon=330)
def test_single_drive_invariants(seed, deploy, horizon):
    rng = np.random.default_rng(seed)
    res = simulate_drive(
        drive_id=1,
        model_index=1,
        spec=MLC_B,
        deploy_day=deploy,
        horizon_days=horizon,
        rng=rng,
    )
    ages = res.records["age_days"]
    max_age = horizon - deploy
    # Ages strictly increasing and inside the observation window.
    assert (np.diff(ages) > 0).all()
    if ages.size:
        assert ages.min() >= 0 and ages.max() < max_age
    # Cumulative counters never decrease.
    assert (np.diff(res.records["pe_cycles"]) >= -1e-9).all()
    assert (np.diff(res.records["grown_bad_blocks"]) >= 0).all()
    # Every daily quantity non-negative.
    for name, arr in res.records.items():
        assert (np.asarray(arr, dtype=np.float64) >= 0).all(), name
    # Swap-event ordering: a failed period starts at age 0 or at the
    # previous swap's re-entry (the SwapLog contract), and none follows
    # a swap whose drive never returned.
    period_start = 0.0
    for ev in res.swaps:
        assert ev.operational_start_age <= ev.failure_age <= ev.swap_age
        assert ev.swap_age < max_age
        assert ev.operational_start_age == period_start
        if not np.isnan(ev.reentry_age):
            assert ev.reentry_age > ev.swap_age
        period_start = ev.reentry_age
        # No telemetry between swap and re-entry (the repair shop).
        if not np.isnan(ev.reentry_age):
            in_shop = (ages > ev.swap_age) & (ages < ev.reentry_age)
            assert in_shop.sum() == 0


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 1000),
    n=st.integers(5, 25),
    horizon=st.integers(200, 600),
)
def test_fleet_invariants(seed, n, horizon):
    cfg = FleetConfig(
        n_drives_per_model=n,
        horizon_days=horizon,
        deploy_spread_days=horizon // 3,
        seed=seed,
    )
    trace = simulate_fleet(cfg)
    # Drive table covers all three models evenly.
    assert len(trace.drives) == 3 * n
    # Records sorted by (drive, age).
    ids = trace.records["drive_id"]
    ages = trace.records["age_days"]
    same = ids[1:] == ids[:-1]
    assert ((ids[1:] > ids[:-1]) | (same & (ages[1:] > ages[:-1]))).all()
    # Swap log refers only to existing drives and valid ages.
    drive_ids = set(trace.drives.drive_id.tolist())
    for i in range(len(trace.swaps)):
        assert int(trace.swaps.drive_id[i]) in drive_ids
        assert trace.swaps.failure_age[i] >= 1
    # Simulation is deterministic in the config.
    again = simulate_fleet(cfg)
    assert len(again.records) == len(trace.records)
    assert np.array_equal(
        again.records["uncorrectable_error"], trace.records["uncorrectable_error"]
    )
