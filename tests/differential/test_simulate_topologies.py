"""Differential oracle for the simulate topologies: every way this repo
simulates a fleet writes the same trace bytes.

Hypothesis draws a small fleet (drives per model, horizon, deploy
spread, seed), a worker count, a checkpoint chunk size and a subset of
chunk files to delete.  The serial ``simulate_fleet`` is the reference;
each topology must reproduce the bytes of its records, drive table and
swap log, column by column:

- ``simulate_fleet`` at two workers;
- ``simulate_fleet_resumable`` at the drawn chunk size and worker count;
- a ``resume=True`` run over that checkpoint directory after the drawn
  chunk files are deleted, which reloads the rest and simulates those.

Bytes, not values, are compared: ``reentry_age`` holds NaN.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reliability import simulate_fleet_resumable
from repro.simulator import FleetConfig, simulate_fleet


def _trace_bytes(trace) -> dict[str, tuple[str, bytes]]:
    """Every column of the trace's three tables as ``(dtype, bytes)``."""
    out = {f"records.{k}": (v.dtype.str, v.tobytes()) for k, v in trace.records.items()}
    for table in ("drives", "swaps"):
        for name, arr in vars(getattr(trace, table)).items():
            out[f"{table}.{name}"] = (arr.dtype.str, arr.tobytes())
    return out


@st.composite
def fleet_configs(draw):
    horizon = draw(st.integers(30, 150))
    return FleetConfig(
        n_drives_per_model=draw(st.integers(1, 4)),
        horizon_days=horizon,
        deploy_spread_days=draw(st.integers(0, horizon - 1)),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=12, deadline=None)
@given(
    config=fleet_configs(),
    workers=st.sampled_from([1, 2]),
    chunk_size=st.integers(1, 8),
    dropped=st.sets(st.integers(0, 11)),
)
def test_every_simulate_path_writes_the_serial_bytes(config, workers, chunk_size, dropped):
    reference = _trace_bytes(simulate_fleet(config, workers=1))
    assert _trace_bytes(simulate_fleet(config, workers=2)) == reference

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp)
        first = simulate_fleet_resumable(
            config, checkpoint_dir=ckpt, chunk_size=chunk_size, workers=workers
        )
        assert _trace_bytes(first) == reference

        chunks = sorted(ckpt.glob("chunk_*.npz"))
        for index in dropped:
            if index < len(chunks):
                chunks[index].unlink()
        resumed = simulate_fleet_resumable(
            config,
            checkpoint_dir=ckpt,
            chunk_size=chunk_size,
            resume=True,
            workers=workers,
        )
        assert _trace_bytes(resumed) == reference
