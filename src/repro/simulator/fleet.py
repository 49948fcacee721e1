"""Fleet-level simulation: many drives, three models, one trace.

:func:`simulate_fleet` is the main entry point of the simulator.  It runs
every drive independently (each on its own spawned RNG stream, so results
are reproducible and independent of iteration order) and assembles the two
data products the paper's analyses consume:

- the **daily performance log** (:class:`~repro.data.DriveDayDataset`), and
- the **swap log** (:class:`~repro.data.SwapLog`) plus drive metadata
  (:class:`~repro.data.DriveTable`).

Because each drive owns a pre-spawned :class:`numpy.random.SeedSequence`
child, the fleet can be sharded across worker processes
(``simulate_fleet(config, workers=N)``) with byte-identical output for
any ``N`` — scheduling never touches a random stream.  See DESIGN.md §11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..data import DriveDayDataset, DriveTable, SwapLog, concat_datasets
from ..data.fields import FIELD_DTYPES
from ..obs import metrics, tracing
from ..parallel import iter_tasks, resolve_workers, shard_ranges
from .config import DriveModelSpec, FleetConfig, default_models

if TYPE_CHECKING:
    from .drive import DriveResult

__all__ = ["FleetTrace", "simulate_fleet", "concat_traces"]


@dataclass
class FleetTrace:
    """The complete synthetic trace: telemetry, drive metadata, swap log."""

    records: DriveDayDataset
    drives: DriveTable
    swaps: SwapLog
    config: FleetConfig

    def summary(self) -> str:
        """One-paragraph human-readable description of the trace."""
        n_dr = len(self.drives)
        n_sw = len(self.swaps)
        failed = len(np.unique(self.swaps.drive_id)) if n_sw else 0
        return (
            f"FleetTrace: {n_dr} drives, {len(self.records)} drive-day records, "
            f"{n_sw} swap events over {failed} distinct failed drives "
            f"({100.0 * failed / max(n_dr, 1):.2f}% of fleet), horizon "
            f"{self.config.horizon_days} days."
        )


def _seed_plan(
    config: FleetConfig, n_total: int
) -> tuple[list[np.random.SeedSequence], list[int]]:
    """Spawn the fleet's RNG streams and draw every deploy day upfront.

    One seed child per drive plus a trailing deployment stream; deploy
    days are drawn sequentially in global drive order from that dedicated
    stream, so precomputing them here is stream-for-stream identical to
    drawing them lazily inside the simulation loop.  Both the serial and
    the sharded paths (and :func:`repro.reliability.simulate_fleet_resumable`)
    consume this one plan — the root of the any-N bit-identity guarantee.
    """
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(n_total + 1)
    deploy_rng = np.random.default_rng(children[-1])
    deploy_days = [
        int(deploy_rng.integers(0, config.deploy_spread_days + 1))
        if config.deploy_spread_days
        else 0
        for _ in range(n_total)
    ]
    return children[:n_total], deploy_days


def simulate_fleet(
    config: FleetConfig | None = None,
    models: tuple[DriveModelSpec, ...] | None = None,
    workers: int | None = None,
    policy: object | None = None,
    supervision: object | None = None,
) -> FleetTrace:
    """Simulate the whole fleet described by ``config``.

    Parameters
    ----------
    config:
        Fleet parameters (defaults to :class:`FleetConfig`'s defaults).
    models:
        Drive-model specs, in model-index order (defaults to the paper's
        MLC-A / MLC-B / MLC-D presets).
    workers:
        Worker processes to shard drives across; ``None`` resolves to
        ``$REPRO_WORKERS`` or 1 (serial).  The trace is byte-identical
        for every value.
    policy, supervision:
        A :class:`repro.resilience.SupervisorPolicy` adds deadlines and
        deterministic retries to the sharded path.  Quarantine is forced
        off here (shards concatenate into one trace — a missing shard
        would be silent corruption); use
        :func:`repro.reliability.simulate_fleet_resumable` for runs that
        must survive poison tasks.
    """
    # The simulation engine loads here, not with FleetTrace, and before
    # the sharded path forks its workers.
    from .drive import simulate_drive

    config = config or FleetConfig()
    models = models or default_models()
    n_total = config.n_drives_per_model * len(models)
    workers = resolve_workers(workers)
    if workers > 1 and n_total > 1:
        return _simulate_fleet_parallel(
            config, models, workers, policy=policy, supervision=supervision
        )

    seeds, deploy_days = _seed_plan(config, n_total)
    results: list[DriveResult] = []
    drive_id = 0
    for model_index, spec in enumerate(models):
        # Span granularity is per model group, not per drive: the hot loop
        # stays uninstrumented inside (benchmarks/test_obs_overhead.py
        # holds the enabled-vs-disabled delta under 5%).
        with tracing.span(
            "repro.simulator.model", n_drives=config.n_drives_per_model
        ) as sp:
            rows = 0
            for _ in range(config.n_drives_per_model):
                rng = np.random.default_rng(seeds[drive_id])
                results.append(
                    simulate_drive(
                        drive_id=drive_id,
                        model_index=model_index,
                        spec=spec,
                        deploy_day=deploy_days[drive_id],
                        horizon_days=config.horizon_days,
                        rng=rng,
                    )
                )
                rows += results[-1].records["age_days"].shape[0]
                drive_id += 1
            sp.set(model=model_index, rows_out=rows)
        metrics.inc(
            "repro_drives_simulated_total",
            config.n_drives_per_model,
            help="Drives simulated",
        )

    return _assemble(results, config)


# --------------------------------------------------------------------------
# sharded execution
# --------------------------------------------------------------------------


def _simulate_shard(task: tuple) -> FleetTrace:
    """Pool task: simulate one contiguous drive range into a partial trace."""
    from .drive import simulate_drive

    config, models, lo, hi, seeds, deploy_days = task
    with tracing.span("repro.simulator.shard", n_drives=hi - lo) as sp:
        results = []
        for drive_id in range(lo, hi):
            model_index = drive_id // config.n_drives_per_model
            results.append(
                simulate_drive(
                    drive_id=drive_id,
                    model_index=model_index,
                    spec=models[model_index],
                    deploy_day=deploy_days[drive_id - lo],
                    horizon_days=config.horizon_days,
                    rng=np.random.default_rng(seeds[drive_id - lo]),
                )
            )
        part = _assemble(results, config)
        sp.set(shard_lo=lo, rows_out=len(part.records))
    metrics.inc("repro_drives_simulated_total", hi - lo, help="Drives simulated")
    return part


def _simulate_fleet_parallel(
    config: FleetConfig,
    models: tuple[DriveModelSpec, ...],
    workers: int,
    policy: object | None = None,
    supervision: object | None = None,
) -> FleetTrace:
    n_total = config.n_drives_per_model * len(models)
    seeds, deploy_days = _seed_plan(config, n_total)
    tasks = [
        (config, models, lo, hi, seeds[lo:hi], deploy_days[lo:hi])
        for lo, hi in shard_ranges(n_total, workers)
    ]
    if policy is not None:
        # Shards concatenate into one trace; a quarantined hole would be
        # silent data loss, so poison must raise here.
        from ..resilience.supervisor import force_fail

        policy = force_fail(policy)
    parts = [
        part
        for _, part in iter_tasks(
            _simulate_shard,
            tasks,
            workers=workers,
            label="repro.simulator",
            policy=policy,
            supervision=supervision,
        )
    ]
    return concat_traces(parts, config)


def concat_traces(parts: list[FleetTrace], config: FleetConfig) -> FleetTrace:
    """Concatenate partial traces in drive order (parts are disjoint)."""
    records = concat_datasets([p.records for p in parts if len(p.records)])
    if not any(len(p.records) for p in parts):
        records = DriveDayDataset.empty()
    drives = DriveTable(
        drive_id=np.concatenate([p.drives.drive_id for p in parts]),
        model=np.concatenate([p.drives.model for p in parts]),
        deploy_day=np.concatenate([p.drives.deploy_day for p in parts]),
        end_of_observation_age=np.concatenate(
            [p.drives.end_of_observation_age for p in parts]
        ),
    )
    swaps = SwapLog(
        drive_id=np.concatenate([p.swaps.drive_id for p in parts]),
        model=np.concatenate([p.swaps.model for p in parts]),
        failure_age=np.concatenate([p.swaps.failure_age for p in parts]),
        swap_age=np.concatenate([p.swaps.swap_age for p in parts]),
        reentry_age=np.concatenate([p.swaps.reentry_age for p in parts]),
        operational_start_age=np.concatenate(
            [p.swaps.operational_start_age for p in parts]
        ),
        failure_mode=np.concatenate([p.swaps.failure_mode for p in parts]),
    )
    return FleetTrace(records=records, drives=drives, swaps=swaps, config=config)


# --------------------------------------------------------------------------
# assembly
# --------------------------------------------------------------------------


def _assemble(results: list[DriveResult], config: FleetConfig) -> FleetTrace:
    """Concatenate per-drive outputs into the fleet-level data products."""
    with tracing.span("repro.simulator.assemble", n_drives=len(results)) as sp:
        trace = _assemble_inner(results, config)
        sp.set(rows_out=len(trace.records))
    return trace


def _assemble_inner(results: list[DriveResult], config: FleetConfig) -> FleetTrace:
    from .drive import _RECORD_COLUMNS

    # --- telemetry records ------------------------------------------------
    # Columns are preallocated at their registry storage dtypes and filled
    # one drive-slice at a time — no per-drive intermediate arrays and no
    # post-hoc casting pass in the dataset constructor.
    sizes = [res.records["age_days"].shape[0] for res in results]
    n_total = sum(sizes)
    if n_total:
        columns: dict[str, np.ndarray] = {
            "drive_id": np.empty(n_total, dtype=np.int32),
            "model": np.empty(n_total, dtype=np.int8),
            "calendar_day": np.empty(n_total, dtype=np.int32),
        }
        for name in _RECORD_COLUMNS:
            columns[name] = np.empty(n_total, dtype=FIELD_DTYPES[name])
        pos = 0
        for res, n in zip(results, sizes):
            if n == 0:
                continue
            end = pos + n
            columns["drive_id"][pos:end] = res.drive_id
            columns["model"][pos:end] = res.model
            columns["calendar_day"][pos:end] = (
                res.records["age_days"] + res.deploy_day
            )
            for name in _RECORD_COLUMNS:
                columns[name][pos:end] = res.records[name]
            pos = end
        records = DriveDayDataset(columns, check_sorted=False)
    else:
        records = DriveDayDataset.empty()

    # --- drive table --------------------------------------------------------
    drives = DriveTable(
        drive_id=np.array([r.drive_id for r in results]),
        model=np.array([r.model for r in results]),
        deploy_day=np.array([r.deploy_day for r in results]),
        end_of_observation_age=np.array(
            [r.end_of_observation_age for r in results]
        ),
    )

    # --- swap log -------------------------------------------------------------
    # Preallocated columns filled one drive-slice at a time (a drive has
    # at most a handful of swaps, the fleet has thousands).
    n_swaps = sum(len(r.swaps) for r in results)
    sw_drive = np.empty(n_swaps, dtype=np.int32)
    sw_model = np.empty(n_swaps, dtype=np.int8)
    sw_fail = np.empty(n_swaps, dtype=np.float64)
    sw_swap = np.empty(n_swaps, dtype=np.float64)
    sw_re = np.empty(n_swaps, dtype=np.float64)
    sw_start = np.empty(n_swaps, dtype=np.float64)
    sw_mode = np.empty(n_swaps, dtype=np.int8)
    pos = 0
    for res in results:
        k = len(res.swaps)
        if k == 0:
            continue
        end = pos + k
        sw_drive[pos:end] = res.drive_id
        sw_model[pos:end] = res.model
        sw_fail[pos:end] = [ev.failure_age for ev in res.swaps]
        sw_swap[pos:end] = [ev.swap_age for ev in res.swaps]
        sw_re[pos:end] = [ev.reentry_age for ev in res.swaps]
        sw_start[pos:end] = [ev.operational_start_age for ev in res.swaps]
        sw_mode[pos:end] = [int(ev.mode) for ev in res.swaps]
        pos = end
    swaps = SwapLog(
        drive_id=sw_drive,
        model=sw_model,
        failure_age=sw_fail,
        swap_age=sw_swap,
        reentry_age=sw_re,
        operational_start_age=sw_start,
        failure_mode=sw_mode,
    )
    return FleetTrace(records=records, drives=drives, swaps=swaps, config=config)
