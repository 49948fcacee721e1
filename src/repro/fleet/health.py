"""Per-drive rolling risk state, fed by the serving plane's scored events.

A single score is a snapshot; a *decision* needs history.  Pinciroli et
al. (PAPERS.md) show decision quality degrades silently as fleets drift,
so the autopilot keeps, per drive, an exponentially-weighted moving
average of its failure probability plus enough metadata to know how
trustworthy that estimate is right now:

- ``risk`` — EWMA of the scores, newest-weighted by ``ewma_alpha``
  (``risk = alpha * p + (1 - alpha) * risk``; the first score seeds it);
- ``peak`` — the highest single score ever seen (a drive that spiked
  and "recovered" is still suspect);
- ``last_day``/``staleness`` — how far the drive's newest score lags
  the decision day, the input to the policies' staleness gate.

Updates fold left in event order, exactly like the serving feature
store, so the state after N events is a pure function of the event
sequence — snapshots are deterministic NPZ files
(:func:`repro.data.npz.atomic_save_npz`, fixed zip metadata)
and two identical streams produce byte-identical snapshots.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..data.npz import atomic_save_npz
from ..errors import ReproError

__all__ = ["RiskPolicy", "FleetView", "FleetHealth", "HealthError"]

#: Bumped whenever the snapshot layout changes incompatibly.
HEALTH_SNAPSHOT_VERSION = 1


class HealthError(RuntimeError, ReproError):
    """A health snapshot is missing, corrupt, or incompatible."""


@dataclass(frozen=True)
class RiskPolicy:
    """How score history becomes a per-drive risk estimate.

    ``ewma_alpha`` is the weight of the newest score (1.0 degenerates to
    "latest score wins", small values smooth heavily);
    ``stale_after_days`` is the default staleness bound stamped onto
    views for policies that don't override it.
    """

    ewma_alpha: float = 0.3
    stale_after_days: int = 7

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must lie in (0, 1]")
        if self.stale_after_days < 0:
            raise ValueError("stale_after_days must be >= 0")


@dataclass(frozen=True)
class FleetView:
    """One decision day's read-only snapshot of fleet health.

    Arrays are parallel and sorted by ``drive_id`` — the canonical
    iteration order every policy sees, so decisions never depend on
    event arrival order.  ``staleness_days`` is measured against the
    view's ``day``; ``stale`` applies the risk policy's default bound.
    """

    day: int
    drive_id: np.ndarray
    risk: np.ndarray
    last_probability: np.ndarray
    peak: np.ndarray
    n_scores: np.ndarray
    last_age: np.ndarray
    last_day: np.ndarray
    staleness_days: np.ndarray
    stale: np.ndarray

    def __len__(self) -> int:
        return len(self.drive_id)


class FleetHealth:
    """The mutable per-drive risk registry behind the autopilot.

    ``observe`` folds one scored event; ``observe_columns`` folds a
    scored chunk (the serving tap's shape).  Out-of-order days within a
    drive are tolerated — the EWMA folds in arrival order, matching
    what a live consumer of the scored-event stream would compute — but
    ``last_age``/``last_day`` only ever advance.
    """

    def __init__(self, policy: RiskPolicy | None = None):
        self.policy = policy or RiskPolicy()
        # drive_id -> [risk, last_prob, peak, n_scores, last_age, last_day]
        self._state: dict[int, list[float]] = {}
        self.events_total = 0
        self.watermark = -1

    @property
    def n_drives(self) -> int:
        return len(self._state)

    # ------------------------------------------------------------------ ingest
    def observe(
        self, drive_id: int, age_days: int, probability: float, day: int
    ) -> float:
        """Fold one scored event; returns the drive's updated risk."""
        drive_id = int(drive_id)
        p = float(probability)
        alpha = self.policy.ewma_alpha
        cell = self._state.get(drive_id)
        if cell is None:
            cell = [p, p, p, 1.0, float(age_days), float(day)]
            self._state[drive_id] = cell
        else:
            cell[0] = alpha * p + (1.0 - alpha) * cell[0]
            cell[1] = p
            if p > cell[2]:
                cell[2] = p
            cell[3] += 1.0
            if age_days > cell[4]:
                cell[4] = float(age_days)
            if day > cell[5]:
                cell[5] = float(day)
        self.events_total += 1
        if day > self.watermark:
            self.watermark = int(day)
        return cell[0]

    def observe_columns(
        self,
        drive_ids: np.ndarray,
        ages: np.ndarray,
        days: np.ndarray,
        probs: np.ndarray,
    ) -> None:
        """Fold one scored chunk (parallel arrays), row by row.

        Row order is the fold order — callers that need canonical
        decisions sort by ``(day, drive_id, age)`` first (the
        :class:`repro.fleet.whatif.PolicyRunner` does).
        """
        n = len(drive_ids)
        if not (len(ages) == len(days) == len(probs) == n):
            raise ValueError("observe_columns needs same-length columns")
        for i in range(n):
            self.observe(
                int(drive_ids[i]), int(ages[i]), float(probs[i]), int(days[i])
            )

    # ------------------------------------------------------------------ views
    def view(self, day: int | None = None) -> FleetView:
        """The fleet's risk state as of ``day`` (default: the watermark)."""
        if day is None:
            day = self.watermark
        ids = sorted(self._state)
        n = len(ids)
        arr = np.empty((n, 6), dtype=np.float64)
        for i, d in enumerate(ids):
            arr[i] = self._state[d]
        last_day = arr[:, 5].astype(np.int64)
        staleness = np.maximum(0, int(day) - last_day)
        return FleetView(
            day=int(day),
            drive_id=np.asarray(ids, dtype=np.int64),
            risk=arr[:, 0].copy(),
            last_probability=arr[:, 1].copy(),
            peak=arr[:, 2].copy(),
            n_scores=arr[:, 3].astype(np.int64),
            last_age=arr[:, 4].astype(np.int64),
            last_day=last_day,
            staleness_days=staleness,
            stale=staleness > self.policy.stale_after_days,
        )

    def state_digest(self) -> str:
        """sha256 over the canonical state — the reconstruction gate."""
        body = {
            "version": HEALTH_SNAPSHOT_VERSION,
            "ewma_alpha": self.policy.ewma_alpha,
            "stale_after_days": self.policy.stale_after_days,
            "events_total": self.events_total,
            "watermark": self.watermark,
            "drives": {
                str(d): self._state[d] for d in sorted(self._state)
            },
        }
        payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    # -------------------------------------------------------------- snapshots
    def snapshot(self, path: str | Path) -> Path:
        """Atomically persist the full state as a deterministic NPZ."""
        path = Path(path)
        ids = np.asarray(sorted(self._state), dtype=np.int64)
        arr = np.empty((len(ids), 6), dtype=np.float64)
        for i, d in enumerate(ids):
            arr[i] = self._state[int(d)]
        atomic_save_npz(
            path,
            meta=np.asarray(
                [
                    HEALTH_SNAPSHOT_VERSION,
                    self.events_total,
                    self.watermark,
                ],
                dtype=np.int64,
            ),
            policy=np.asarray(
                [self.policy.ewma_alpha, float(self.policy.stale_after_days)],
                dtype=np.float64,
            ),
            drive_id=ids,
            state=arr,
        )
        return path

    @classmethod
    def restore(cls, path: str | Path) -> "FleetHealth":
        """Rebuild a :class:`FleetHealth` from a snapshot, exactly."""
        path = Path(path)
        try:
            with np.load(path) as npz:
                meta = npz["meta"]
                policy = npz["policy"]
                ids = npz["drive_id"]
                state = npz["state"]
        except (OSError, KeyError, ValueError) as exc:
            raise HealthError(f"health snapshot {path}: {exc}") from None
        if int(meta[0]) != HEALTH_SNAPSHOT_VERSION:
            raise HealthError(
                f"health snapshot {path} has version {int(meta[0])}, "
                f"this build reads {HEALTH_SNAPSHOT_VERSION}"
            )
        out = cls(
            RiskPolicy(
                ewma_alpha=float(policy[0]),
                stale_after_days=int(policy[1]),
            )
        )
        out.events_total = int(meta[1])
        out.watermark = int(meta[2])
        for i in range(len(ids)):
            out._state[int(ids[i])] = [float(v) for v in state[i]]
        return out
