"""Fleet-level simulation: many drives, three models, one trace.

:func:`simulate_fleet` is the main entry point of the simulator.  It runs
every drive independently (each on its own spawned RNG stream, so results
are reproducible and independent of iteration order) and assembles the two
data products the paper's analyses consume:

- the **daily performance log** (:class:`~repro.data.DriveDayDataset`), and
- the **swap log** (:class:`~repro.data.SwapLog`) plus drive metadata
  (:class:`~repro.data.DriveTable`).

Every simulate path runs one chunk loop, :func:`_simulate_chunks`: a
pool task per contiguous drive range, each simulating its drives from
their slice of one seed plan.  :func:`simulate_fleet` runs it over
:func:`~repro.parallel.shard_ranges` and
:func:`repro.reliability.simulate_fleet_resumable` over the checkpoint
chunks it has not cached.  Because each drive owns a pre-spawned
:class:`numpy.random.SeedSequence` child, the trace is byte-identical
for any worker count and any chunking — scheduling never touches a
random stream.  See DESIGN.md §11.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from ..data import DriveDayDataset, DriveTable, SwapLog, concat_datasets
from ..data.fields import FIELD_DTYPES
from ..obs import metrics, tracing
from ..parallel import iter_tasks, resolve_workers, shard_ranges
from .config import DriveModelSpec, FleetConfig, default_models

if TYPE_CHECKING:
    from collections.abc import Iterator

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
    drawing them lazily inside the simulation loop.  The chunk loop
    (:func:`_simulate_chunks`) hands every chunk its slice of this one
    plan, whichever path runs it and however the drives are chunked —
    the root of the any-N bit-identity guarantee.
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

    Drives run in the contiguous chunks of
    :func:`~repro.parallel.shard_ranges`, one task each on the chunk
    loop, and the chunks concatenate in drive order.

    Parameters
    ----------
    config:
        Fleet parameters (defaults to :class:`FleetConfig`'s defaults).
    models:
        Drive-model specs, in model-index order (defaults to the paper's
        MLC-A / MLC-B / MLC-D presets).
    workers:
        Worker processes to run the chunks on; ``None`` resolves to
        ``$REPRO_WORKERS`` or 1 (in-process).  The trace is
        byte-identical for every value.
    policy, supervision:
        A :class:`repro.resilience.SupervisorPolicy` adds deadlines and
        deterministic retries to the chunk tasks.  Quarantine is forced
        off here (chunks concatenate into one trace — a missing chunk
        would be silent corruption); use
        :func:`repro.reliability.simulate_fleet_resumable` for runs that
        must survive poison tasks.
    """
    config = config or FleetConfig()
    models = models or default_models()
    workers = resolve_workers(workers)
    if policy is not None:
        # A quarantined hole would be silent data loss, so poison must
        # raise here.
        from ..resilience.supervisor import force_fail

        policy = force_fail(policy)
    ranges = shard_ranges(config.n_drives_per_model * len(models), workers)
    bounds = [(chunk, lo, hi) for chunk, (lo, hi) in enumerate(ranges)]
    chunks = _simulate_chunks(config, models, bounds, workers, policy, supervision)
    return concat_traces([part for _, part in chunks], config)


# --------------------------------------------------------------------------
# the chunk loop
# --------------------------------------------------------------------------


def _simulate_chunks(
    config: FleetConfig,
    models: tuple[DriveModelSpec, ...],
    bounds: list[tuple[int, int, int]],
    workers: int,
    policy: object | None,
    supervision: object | None,
) -> Iterator[tuple[int, FleetTrace]]:
    """Simulate ``(chunk, lo, hi)`` drive ranges, yielding ``(chunk, part)``.

    The one loop behind every simulate path: each range is one
    :func:`_simulate_chunk` task on the worker pool, and parts arrive in
    ``bounds`` order whatever the worker count.  Quarantined tasks are
    skipped, as :func:`~repro.parallel.iter_tasks` skips them.
    """
    # The simulation engine loads here, not with FleetTrace, and before
    # the pool forks its workers.
    from . import drive  # noqa: F401

    seeds, deploy_days = _seed_plan(config, config.n_drives_per_model * len(models))
    tasks = [
        (config, models, chunk, lo, hi, seeds[lo:hi], deploy_days[lo:hi])
        for chunk, lo, hi in bounds
    ]
    for i, part in iter_tasks(
        _simulate_chunk,
        tasks,
        workers=workers,
        label="repro.simulator",
        policy=policy,
        supervision=supervision,
    ):
        yield bounds[i][0], part


def _simulate_chunk(task: tuple) -> FleetTrace:
    """Pool task: simulate drives ``[lo, hi)`` into one partial trace.

    Span granularity is per chunk, not per drive: the hot loop stays
    uninstrumented inside (benchmarks/test_obs_overhead.py holds the
    enabled-vs-disabled delta under 5%).
    """
    from .drive import simulate_drive

    config, models, chunk, lo, hi, seeds, deploy_days = task
    with tracing.span("repro.simulator.chunk", n_drives=hi - lo) as sp:
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
        sp.set(chunk=chunk, cached=False, rows_out=len(part.records))
    metrics.inc("repro_drives_simulated_total", hi - lo, help="Drives simulated")
    return part


def _concat_tables(cls: type, tables: list) -> object:
    """Concatenate aligned tables of one dataclass, column by column."""
    return cls(
        **{
            f.name: np.concatenate([getattr(t, f.name) for t in tables])
            for f in fields(cls)
        }
    )


def concat_traces(parts: list[FleetTrace], config: FleetConfig) -> FleetTrace:
    """Concatenate partial traces in drive order (parts are disjoint)."""
    return FleetTrace(
        records=concat_datasets([p.records for p in parts]),
        drives=_concat_tables(DriveTable, [p.drives for p in parts]),
        swaps=_concat_tables(SwapLog, [p.swaps for p in parts]),
        config=config,
    )


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
