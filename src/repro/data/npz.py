"""The one NPZ writer: atomic and byte-deterministic.

Traces, feature-store and fleet-health snapshots, shard checkpoints and
simulation checkpoints are all written by :func:`atomic_save_npz`.  It
imports only NumPy, :mod:`zipfile` and
:func:`repro.obs.durable.atomic_write`, so a serving process that
writes a snapshot loads nothing of the simulator.
"""

from __future__ import annotations

import io
import zipfile
from pathlib import Path

import numpy as np

from ..obs.durable import atomic_write

__all__ = ["atomic_save_npz"]

#: Fixed zip entry timestamp (the zip epoch) for deterministic archives.
_NPZ_EPOCH = (1980, 1, 1, 0, 0, 0)


def atomic_save_npz(path: str | Path, **arrays: np.ndarray) -> None:
    """Atomic, *deterministic* replacement for :func:`numpy.savez_compressed`.

    Unlike ``np.savez_compressed``, zip entries carry a fixed timestamp,
    so two runs with the same seed produce byte-identical artifacts —
    required for ``repro-ssd obs diff`` to report zero drift between
    same-seed runs (manifests digest every output file).
    """
    with atomic_write(path, "wb") as fh:
        with zipfile.ZipFile(fh, "w", compression=zipfile.ZIP_DEFLATED) as zf:
            for name, array in arrays.items():
                buf = io.BytesIO()
                np.lib.format.write_array(
                    buf, np.asanyarray(array), allow_pickle=False
                )
                info = zipfile.ZipInfo(name + ".npy", date_time=_NPZ_EPOCH)
                info.compress_type = zipfile.ZIP_DEFLATED
                info.external_attr = 0o600 << 16
                zf.writestr(info, buf.getvalue())
