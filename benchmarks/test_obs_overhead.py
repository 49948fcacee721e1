"""Observability overhead: tracing + metrics must cost < 5% on hot loops.

The instrumentation contract (DESIGN.md §10) is that spans are placed at
chunk/model granularity, never per drive or per row, precisely so that a
fully-activated tracer + metrics registry stays within a 5% wall-clock
budget on the fleet-simulation hot loop.  This benchmark enforces that
budget; the no-op path (no tracer activated) is also checked, since every
production call site pays it even when observability is off.
"""

from __future__ import annotations

import time

from repro.obs import metrics, tracing
from repro.simulator import FleetConfig, simulate_fleet

#: Large enough that per-run wall clock dominates timer noise (~1s).
_CONFIG = FleetConfig(
    n_drives_per_model=40, horizon_days=365, deploy_spread_days=100, seed=11
)

#: Fractional overhead budget from ISSUE acceptance criteria.
_BUDGET = 0.05
#: Absolute slack so sub-second runs don't fail on scheduler jitter.
_EPSILON_SECONDS = 0.05


def _best_of(n: int, fn) -> float:
    """Minimum wall-clock of ``n`` runs — the standard noise-resistant
    estimator for deterministic workloads."""
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _run_plain() -> None:
    assert tracing.current() is None and metrics.current() is None
    simulate_fleet(_CONFIG)


def _run_traced() -> None:
    with tracing.activate(), metrics.activate():
        simulate_fleet(_CONFIG)


def test_tracing_overhead_under_budget():
    # Warm-up once each (imports, allocator, branch caches).
    _run_plain()
    _run_traced()
    t_plain = _best_of(3, _run_plain)
    t_traced = _best_of(3, _run_traced)
    overhead = t_traced - t_plain
    assert t_traced <= t_plain * (1 + _BUDGET) + _EPSILON_SECONDS, (
        f"observability overhead {overhead * 1e3:.1f}ms on a "
        f"{t_plain * 1e3:.1f}ms baseline exceeds the "
        f"{_BUDGET:.0%} + {_EPSILON_SECONDS * 1e3:.0f}ms budget"
    )


def test_traced_run_collects_spans_and_metrics():
    """The overhead number above is honest: the traced run really records."""
    with tracing.activate() as tracer, metrics.activate() as registry:
        simulate_fleet(_CONFIG)
    summary = tracer.stage_summary()
    assert summary["repro.simulator.chunk"]["calls"] == 4
    assert summary["repro.simulator.chunk"]["rows_out"] > 0
    assert "repro.simulator.assemble" in summary
    snap = registry.to_dict()
    assert snap["repro_drives_simulated_total"]["series"][0]["value"] == 120.0
