"""Seeded input preparation for the serving benchmark (never timed).

Everything a workload consumes is made here from the seed and cached
per seed under ``.servebench/inputs/<key>/seed-<n>/`` in the checkout,
where ``<key>`` digests the constants in ``params.py`` that shape inputs:

- one published model (simulate a training fleet, fit, publish to a
  model registry) that every workload of the seed serves;
- per workload, a simulated fleet packed as ``records.cst`` (for
  ``backfill``, the first ``REPLAY_ROWS`` rows of its trace) plus the
  reference outputs the run's output check compares against: offline
  ``predict_proba_records`` scores (``backfill``), the chaos-perturbed
  arrival list and an untimed ``replay_events`` + ``PolicyRunner`` pass
  over it with its priced report (``live``).

``run.py`` calls this module in a child process, so the memory that
simulation and training take never shows in the run's peak RSS.

Run directly: ``python3 servebench/prepare.py --seed 1 --workload live``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from itertools import islice
from pathlib import Path

import params

__all__ = ["workload_dir", "ensure_prepared"]

#: Keep at most this many prepared seeds; the least recently used go.
MAX_CACHED_SEEDS = 24


def seed_dir(work: Path, seed: int) -> Path:
    return work / "inputs" / params.inputs_key() / f"seed-{seed}"


def workload_dir(work: Path, seed: int, workload: str, seconds: float) -> Path:
    """Where one workload's inputs live (``live`` is sized by duration)."""
    name = workload
    if workload == "live":
        name = f"live-n{params.live_events(seconds)}"
    return seed_dir(work, seed) / name


def _publish(target: Path, fn) -> None:
    """Build into a temp dir, then rename: a killed run leaves no half."""
    tmp = target.with_name(f".{target.name}.tmp-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    fn(tmp)
    try:
        tmp.rename(target)
    except OSError:
        if not target.exists():
            raise
        shutil.rmtree(tmp, ignore_errors=True)  # a concurrent run won


def _simulate(seed: int, fleet: dict):
    from repro.simulator import FleetConfig, simulate_fleet

    return simulate_fleet(FleetConfig(seed=seed, **fleet), workers=1)


def _save_fleet(trace, fleet: dict, out: Path) -> None:
    from repro.data.io import save_drivetable_npz, save_swaplog_npz
    from repro.data.store import save_dataset_store

    save_dataset_store(trace.records, out / "records.cst")
    save_drivetable_npz(trace.drives, out / "drives.npz")
    save_swaplog_npz(trace.swaps, out / "swaps.npz")
    (out / "fleet.json").write_text(json.dumps(fleet, sort_keys=True))


def _prepare_model(out: Path, seed: int) -> None:
    from repro.core.predictor import FailurePredictor
    from repro.serve import ModelRegistry

    trace = _simulate(params.fleet_seed(seed, "train"), params.TRAIN_FLEET)
    predictor = FailurePredictor(seed=seed, **params.MODEL)
    predictor.fit(trace)
    ModelRegistry(out / "registry").publish(predictor, activate=True)


def _load_predictor(work: Path, seed: int):
    from repro.serve import ModelRegistry

    return ModelRegistry(seed_dir(work, seed) / "model" / "registry").load()


def _prepare_backfill(out: Path, seed: int, predictor) -> None:
    """The first ``REPLAY_ROWS`` rows of a fleet's trace + their offline
    reference scores."""
    import numpy as np
    from repro.data.store import save_dataset_store

    trace = _simulate(params.fleet_seed(seed, "backfill"), params.BACKFILL_FLEET)
    n_rows = params.REPLAY_ROWS
    if len(trace.records) < n_rows:
        raise RuntimeError(f"backfill fleet of seed {seed} has {len(trace.records)} rows, "
                           f"fewer than the {n_rows} a pass replays")
    records = trace.records.select(np.arange(n_rows))
    save_dataset_store(records, out / "records.cst")
    np.save(out / "reference.npy", predictor.predict_proba_records(records))


def _prepare_live(out: Path, seed: int, seconds: float, predictor) -> None:
    """The perturbed arrival list and its untimed reference pass."""
    import numpy as np
    from repro.data.io import iter_drive_days
    from repro.data.store import load_dataset_store
    from repro.resilience.chaos import chaos_telemetry_events

    n_events = params.live_events(seconds)
    stretch = 1.0
    while True:
        fleet = params.live_fleet(n_events, stretch)
        trace = _simulate(params.fleet_seed(seed, "live"), fleet)
        if len(trace.records) >= 1.1 * n_events:
            break
        stretch *= 1.2 * n_events / max(1, len(trace.records))
    _save_fleet(trace, fleet, out)
    records = load_dataset_store(out / "records.cst")
    # Tag each row with its index so the arrival list can be stored as
    # row indices plus the garbled fields (the tag is not a counter, so
    # garbling never picks it).
    tagged = (
        dict(ev, _row=i) for i, ev in enumerate(iter_drive_days(records))
    )
    arrivals = list(
        islice(
            chaos_telemetry_events(tagged, params.LIVE_CHAOS, seed), n_events
        )
    )
    rows = np.asarray([ev["_row"] for ev in arrivals], dtype=np.int64)
    cols = {name: records[name] for name in records.column_names}
    garbles = {}
    for k, ev in enumerate(arrivals):
        row = int(ev["_row"])
        changed = {
            name: float(value)
            for name, value in ev.items()
            if name != "_row" and not _same(value, cols[name][row])
        }
        if changed:
            garbles[str(k)] = changed
    np.save(out / "arrival_rows.npy", rows)
    (out / "garbles.json").write_text(json.dumps(garbles, sort_keys=True))

    from workloads import close_run, live_objects, load_trace

    objs = live_objects(predictor, out / "reference-pass")
    result = objs.engine.replay_events(params.live_arrivals(records, rows, garbles))
    outcome, report, verdict = close_run(objs, load_trace(out))
    shutil.rmtree(out / "reference-pass")
    if not verdict.ok:
        raise RuntimeError(f"reference audit journal does not verify: {verdict.problems}")
    np.save(out / "reference_probs.npy", result.probability)
    reference = {
        "n_scored": int(result.n_events),
        "dead_lettered": int(objs.guard.stats.dead_lettered),
        "duplicates": int(objs.guard.stats.duplicates_dropped),
        "chain": outcome.chain,
        "report": report.to_dict(),
    }
    (out / "reference.json").write_text(json.dumps(reference, indent=2))


def _same(a, b) -> bool:
    """Equal, with NaN equal to NaN (garbling may write a NaN)."""
    return bool(a == b) or (a != a and b != b)


def ensure_prepared(work: Path, seed: int, workload: str, seconds: float) -> Path:
    """Prepare (or reuse) the seed's model and the workload's inputs."""
    model = seed_dir(work, seed) / "model"
    if not model.exists():
        _publish(model, lambda d: _prepare_model(d, seed))
    target = workload_dir(work, seed, workload, seconds)
    if not target.exists():
        predictor = _load_predictor(work, seed)
        if workload == "live":
            _publish(target, lambda d: _prepare_live(d, seed, seconds, predictor))
        else:
            _publish(target, lambda d: _prepare_backfill(d, seed, predictor))
    _prune(work, keep=seed_dir(work, seed))
    return target


def _prune(work: Path, keep: Path) -> None:
    """Drop caches made with other constants, then all but the most
    recently used seeds."""
    os.utime(keep)
    for stale in (work / "inputs").iterdir():
        if stale != keep.parent:
            shutil.rmtree(stale, ignore_errors=True)
    seeds = sorted(keep.parent.glob("seed-*"), key=lambda p: p.stat().st_mtime)
    for old in seeds[:-MAX_CACHED_SEEDS]:
        if old != keep:
            shutil.rmtree(old, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=params.WORKLOADS, required=True)
    parser.add_argument("--seconds", type=float, default=params.DEFAULT_SECONDS)
    args = parser.parse_args(argv)
    params.use_checkout_source()
    print(ensure_prepared(params.work_area(), args.seed, args.workload, args.seconds))
    return 0


if __name__ == "__main__":
    params.pin_environment()
    sys.exit(main())
