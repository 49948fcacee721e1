"""Fixed parameters of the serving benchmark, and its environment.

Every size, rate and policy a workload uses is a constant here, so two
commits measured with the same benchmark code run identical work.  The
seed (a command-line argument) only changes which fleet and which model
are drawn, never how much work there is.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from collections.abc import Iterator
from pathlib import Path

WORKLOADS = ("backfill", "live")

#: Seed used while developing a change (README.md names the held-out one).
DEFAULT_SEED = 1

DEFAULT_SECONDS = 35.0

#: The checkout the benchmark runs in: this file's grandparent.
ROOT = Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------- model
#: The served model: the default 160-tree, depth-13 forest.  Keeping 30
#: negatives per positive when fitting grows every tree to the depth
#: cap on every seed, so traversal work per row is the same across
#: seeds (with the 1:1 default, mean tree depth ranged 6.8-9.4 and
#: replay speed moved 30% between seeds).
MODEL = {"lookahead": 7, "downsample_ratio": 30.0}

# ---------------------------------------------------------------- fleets
#: Fleets differ in width (drives) so per-drive state in the feature
#: store, the guard and fleet health ranges from small to large.
TRAIN_FLEET = {"n_drives_per_model": 150, "horizon_days": 1000, "deploy_spread_days": 600}
BACKFILL_FLEET = {"n_drives_per_model": 100, "horizon_days": 300, "deploy_spread_days": 200}
_ROLES = ("train", "backfill", "live")


def fleet_seed(seed: int, role: str) -> int:
    """Simulator seed of one fleet: distinct per seed and per role."""
    return seed * 16 + _ROLES.index(role)


# ---------------------------------------------------------------- serving
#: ``serve replay`` default chunk size.
CHUNK_ROWS = 4096
#: Rows a backfill pass replays: the first rows of the fleet's trace,
#: whole chunks only.  A fleet's row count moves by about 6% between
#: seeds; a fixed prefix keeps the work the same on every seed.  Every
#: seed's fleet has at least 10% more rows than this.
REPLAY_ROWS = 8 * CHUNK_ROWS

# ---------------------------------------------------------------- live
#: Offered rate of the open loop.  The path sustains ~5k events/s in a
#: closed loop (full batches), but on a fixed schedule with the default
#: 5 ms batch wait each wait yields a ~4 ms predict call of few rows, so
#: the generator idled only 14-37% of the time at 2,000 events/s on a
#: 2-vCPU VM and latency swung with host contention.  At 1,000 events/s
#: with the wait bound below it idles ~60%: the loop runs below capacity,
#: so latency measures the program.
LIVE_RATE = 1000.0
#: The micro-batcher's wait bound on live (``serve run --max-wait``; the
#: default is 5 ms).  A predict call costs ~4.5 ms whatever its size, and
#: while it runs the single-threaded loop offers nothing, so an event's
#: latency is its batch wait plus one or two calls.  At 5 ms, calls
#: scored ~9 rows, the wait was at most half of p50 (~7-10 ms), and p50
#: moved by 28% between runs as the shared host's speed drifted.  At
#: 20 ms a call scores ~24 rows (the 10-30 the path is meant to carry)
#: and the wait is ~2/3 of p50 (12.5 of ~18 ms); a predict call twice as
#: slow still adds its own ~4.5 ms, a quarter of p50, to every event.
LIVE_MAX_WAIT_S = 0.020
#: Latency percentiles are taken per window of this many seconds of due
#: time (~1,950 scored events, so p99 has ~19 samples beyond it).
LIVE_WINDOW_S = 2.0
#: The live latency limit on p99 (reported, not a pass/fail gate).
LIVE_P99_LIMIT_MS = 50.0
LIVE_DRIVES_PER_MODEL = 24
#: Telemetry faults on about 3% of arrivals.
LIVE_CHAOS = [("duplicate", 0.01), ("reorder", 0.01), ("late", 0.005), ("garble", 0.005)]
#: Longest the idle loop waits between ``engine.poll()`` calls.
IDLE_STEP_S = 0.0005


def live_events(seconds: float) -> int:
    """Arrivals offered in one live run: the rate times the duration."""
    return max(1, int(round(LIVE_RATE * seconds)))


def live_fleet(n_events: int, stretch: float = 1.0) -> dict:
    """A narrow fleet observed long enough for about ``n_events`` rows;
    ``stretch`` lengthens the horizon when a draw falls short."""
    drives = 3 * LIVE_DRIVES_PER_MODEL
    spread = 60
    days = spread + math.ceil(stretch * 1.5 * n_events / drives)
    return {
        "n_drives_per_model": LIVE_DRIVES_PER_MODEL,
        "horizon_days": days,
        "deploy_spread_days": spread,
    }


def live_arrivals(records, rows, garbles: dict) -> Iterator[dict]:
    """Yield the perturbed arrival dicts, rebuilt from row indices +
    garbles one at a time, as ``fleet run`` streams its arrivals.

    Values are NumPy scalars of the stored columns, exactly what
    ``repro.data.io.iter_drive_days`` yields to ``fleet run``.
    """
    cols = [(name, records[name]) for name in records.column_names]
    for k, r in enumerate(rows.tolist()):
        ev = {name: col[r] for name, col in cols}
        ev.update(garbles.get(str(k), {}))
        yield ev


# ---------------------------------------------------------------- fleet
#: Watch → quarantine → replace ladder with hysteresis and cooldown.
THRESHOLD_LADDER = {
    "watch_at": 0.2, "quarantine_at": 0.4, "replace_at": 0.6, "clear_below": 0.1, "cooldown_days": 3,
}


def threshold_ladder():
    from repro.fleet import ThresholdPolicy

    return ThresholdPolicy(**THRESHOLD_LADDER)


#: Bump when ``prepare.py`` changes what it writes.
INPUTS_FORMAT = 2


def inputs_key() -> str:
    """Digest of every constant that shapes prepared inputs, so a change
    to any of them never reuses a stale cache."""
    shape = [INPUTS_FORMAT, MODEL, TRAIN_FLEET, BACKFILL_FLEET, REPLAY_ROWS, LIVE_RATE, LIVE_MAX_WAIT_S,
             LIVE_DRIVES_PER_MODEL,
             LIVE_CHAOS, THRESHOLD_LADDER, _ROLES]
    return hashlib.sha256(json.dumps(shape, sort_keys=True).encode()).hexdigest()[:12]


# ---------------------------------------------------------------- environment
def pin_environment() -> None:
    """Drop run-shaping variables and fix BLAS threads before NumPy loads."""
    for key in list(os.environ):
        if key in ("REPRO_WORKERS", "REPRO_EPOCH") or key.startswith("REPRO_CHAOS"):
            del os.environ[key]
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"


def use_checkout_source() -> None:
    """Import the program from this checkout's ``src/``, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"servebench: no program source at {src}", file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def work_area() -> Path:
    """The benchmark's cache and scratch space inside the checkout."""
    return ROOT / ".servebench"
