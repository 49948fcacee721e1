"""Repair policies: turn a dirty raw trace into a usable dataset.

Three policies, mirroring how production ingestion tiers handle dirty
telemetry (see DESIGN.md's failure-mode taxonomy):

- ``strict`` — any error-severity violation raises
  :class:`TraceValidationError` carrying the full report; nothing is
  silently fixed.
- ``repair`` — violations are fixed in place: duplicate drive-days
  dropped, out-of-order rows re-sorted, NaN/sentinel values
  forward-filled (cumulative counters) or zeroed (daily counts),
  negatives clamped, non-monotone cumulative counters clamped to their
  per-drive running max, missing schema columns zero-filled.
- ``quarantine`` — the same sanitization is applied so downstream maths
  stays finite, but every touched row is *marked* in a ``quarantined``
  column instead of being trusted; the training pipeline excludes those
  rows via the operational mask
  (:func:`repro.core.pipeline.build_prediction_dataset`).

The entry point is :func:`apply_policy`, used by the checked loaders in
:mod:`repro.data.io`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from ..data.dataset import DriveDayDataset
from ..data.fields import FIELD_DTYPES
from ..errors import ReproError
from .validation import (
    CRITICAL_COLUMNS,
    CUMULATIVE_FIELDS,
    REQUIRED_COLUMNS,
    SENTINEL_CEILING,
    ValidationReport,
    validate_columns,
)

__all__ = [
    "POLICIES",
    "TraceValidationError",
    "RepairAction",
    "RepairResult",
    "apply_policy",
]

#: The recognized repair policies.
POLICIES: tuple[str, ...] = ("strict", "repair", "quarantine")


class TraceValidationError(ValueError, ReproError):
    """A trace failed validation under the ``strict`` policy."""

    def __init__(self, message: str, report: ValidationReport | None = None):
        super().__init__(message)
        self.report = report

    def detail(self) -> str | None:
        return self.report.render() if self.report is not None else None


@dataclass(frozen=True)
class RepairAction:
    """One repair applied to the raw columns."""

    check: str
    action: str
    n_rows: int

    def __str__(self) -> str:
        return f"{self.check}: {self.action} ({self.n_rows} row(s))"


@dataclass
class RepairResult:
    """Outcome of :func:`apply_policy`.

    Attributes
    ----------
    dataset:
        The usable dataset.  Under ``quarantine`` it carries a
        ``quarantined`` uint8 column (1 = untrusted row).
    report:
        The *pre-repair* validation report.
    actions:
        Repairs applied, in order.
    n_quarantined:
        Rows marked untrusted (0 unless policy is ``quarantine``).
    """

    dataset: DriveDayDataset
    report: ValidationReport
    actions: list[RepairAction] = field(default_factory=list)
    n_quarantined: int = 0

    def summary(self) -> str:
        acts = "; ".join(str(a) for a in self.actions) or "none"
        return (
            f"Repair: {len(self.actions)} action(s) [{acts}], "
            f"{self.n_quarantined} row(s) quarantined"
        )


def _ffill_per_drive(
    values: np.ndarray, ids: np.ndarray, bad: np.ndarray
) -> np.ndarray:
    """Forward-fill ``bad`` positions with the last good same-drive value.

    Rows with no prior good value in their drive fall back to 0.
    Expects rows sorted by drive (ages may be anything).
    """
    v = values.astype(np.float64, copy=True)
    n = v.size
    if not n:
        return v
    good = ~bad
    # Index of the most recent good row at or before each position.
    idx = np.where(good, np.arange(n), -1)
    idx = np.maximum.accumulate(idx)
    # Reset carries across drive boundaries: a fill source must belong to
    # the same drive.
    first_of_drive = np.concatenate(([0], np.flatnonzero(ids[1:] != ids[:-1]) + 1))
    drive_start = np.zeros(n, dtype=np.int64)
    drive_start[first_of_drive] = first_of_drive
    drive_start = np.maximum.accumulate(drive_start)
    usable = idx >= drive_start
    out = np.where(usable, v[np.maximum(idx, 0)], 0.0)
    return np.where(bad, out, v)


def apply_policy(
    cols: Mapping[str, np.ndarray],
    policy: str = "strict",
    max_gap_days: int | None = None,
) -> RepairResult:
    """Validate raw columns and apply the chosen policy.

    Raises
    ------
    TraceValidationError
        Under ``strict`` when any error-severity check fails, and under
        every policy when a *critical* column (``drive_id``/``age_days``)
        is missing — there is no meaningful repair for a table without
        row identity.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
    report = validate_columns(cols, max_gap_days=max_gap_days)
    missing_critical = [c for c in CRITICAL_COLUMNS if c not in cols]
    if missing_critical:
        raise TraceValidationError(
            f"trace is missing critical column(s) {missing_critical}; "
            "cannot repair a table without row identity",
            report,
        )
    if policy == "strict":
        if not report.ok:
            failed = ", ".join(c.check for c in report.failed() if c.severity == "error")
            raise TraceValidationError(
                f"trace failed validation under strict policy: {failed}", report
            )
        return RepairResult(
            dataset=DriveDayDataset(dict(cols), check_sorted=False),
            report=report,
        )

    work = {k: np.array(v) for k, v in cols.items()}
    actions: list[RepairAction] = []
    n = int(np.asarray(work["drive_id"]).shape[0])
    suspect = np.zeros(n, dtype=bool)

    # -- schema: zero-fill missing non-critical columns -------------------
    for name in REQUIRED_COLUMNS:
        if name in work:
            continue
        # Zero-fill keeps downstream maths working; the column (not the
        # rows) is degraded, so rows are not quarantined for this.
        work[name] = np.zeros(n, dtype=FIELD_DTYPES[name])
        actions.append(RepairAction(f"schema.{name}", "zero-filled missing column", n))

    # -- sort (fixes out-of-order) ---------------------------------------
    ids = np.asarray(work["drive_id"])
    age = np.asarray(work["age_days"])
    same = ids[1:] == ids[:-1]
    ordered = (ids[1:] > ids[:-1]) | (same & (age[1:] >= age[:-1]))
    if ids.size > 1 and not bool(np.all(ordered)):
        moved = np.zeros(n, dtype=bool)
        bad_pairs = np.flatnonzero(~ordered)
        moved[bad_pairs] = True
        moved[bad_pairs + 1] = True
        order = np.lexsort((age, ids))
        work = {k: v[order] for k, v in work.items()}
        suspect = suspect | moved
        suspect = suspect[order]
        moved_n = int(moved.sum())
        actions.append(
            RepairAction("order.sorted", "re-sorted by (drive_id, age_days)", moved_n)
        )
        ids = np.asarray(work["drive_id"])
        age = np.asarray(work["age_days"])

    # -- duplicates: keep the first delivery ------------------------------
    if ids.size:
        dup = np.concatenate(
            ([False], (ids[1:] == ids[:-1]) & (age[1:] == age[:-1]))
        )
        if bool(dup.any()):
            keep = ~dup
            # The surviving first delivery of a duplicated day is suspect
            # too: we cannot tell which delivery carried the true values.
            survivors = np.concatenate((dup[1:], [False])) & keep
            suspect = suspect | survivors
            work = {k: v[keep] for k, v in work.items()}
            suspect = suspect[keep]
            actions.append(
                RepairAction(
                    "rows.duplicates", "dropped re-delivered rows", int(dup.sum())
                )
            )
            ids = np.asarray(work["drive_id"])
            age = np.asarray(work["age_days"])
            n = ids.size

    # -- non-finite & sentinel values -------------------------------------
    for name, arr in list(work.items()):
        if name in ("drive_id", "age_days", "model", "calendar_day", "quarantined"):
            continue
        a = arr.astype(np.float64, copy=False)
        with np.errstate(invalid="ignore"):
            bad = ~np.isfinite(a) | (a < 0) | (a > SENTINEL_CEILING)
        if not bool(bad.any()):
            continue
        if name in CUMULATIVE_FIELDS:
            fixed = _ffill_per_drive(a, ids, bad)
            action = "forward-filled from last good value"
        else:
            fixed = np.where(bad, 0.0, a)
            action = "zeroed"
        dtype = FIELD_DTYPES.get(name, arr.dtype)
        if not np.issubdtype(dtype, np.floating):
            fixed = np.round(fixed)
        work[name] = fixed.astype(dtype, copy=False)
        suspect = suspect | bad
        actions.append(
            RepairAction(f"values.{name}", action, int(bad.sum()))
        )

    # -- monotone cumulative counters -------------------------------------
    if n:
        first = np.concatenate(([True], ids[1:] != ids[:-1]))
        seg_start = np.flatnonzero(first)
        for name in CUMULATIVE_FIELDS:
            if name not in work:
                continue
            a = work[name].astype(np.float64, copy=False)
            drop_mask = np.concatenate(([False], (np.diff(a) < 0) & ~first[1:]))
            if not bool(drop_mask.any()):
                continue
            # Per-drive running max: global cummax restarted at segment
            # starts via the subtract-baseline trick is wrong for max, so
            # do it with a segmented loop over only the affected drives.
            seg_of_row = np.cumsum(first) - 1
            affected = np.unique(seg_of_row[drop_mask])
            fixed = a.copy()
            stops = np.concatenate((seg_start[1:], [n]))
            for s_idx in affected:
                s, e = int(seg_start[s_idx]), int(stops[s_idx])
                fixed[s:e] = np.maximum.accumulate(fixed[s:e])
            dtype = FIELD_DTYPES.get(name, work[name].dtype)
            if not np.issubdtype(dtype, np.floating):
                fixed = np.round(fixed)
            work[name] = fixed.astype(dtype, copy=False)
            suspect = suspect | drop_mask
            actions.append(
                RepairAction(
                    f"monotone.{name}",
                    "clamped to per-drive running max",
                    int(drop_mask.sum()),
                )
            )

    # -- stuck counters: unrecoverable, mark only --------------------------
    # The true counter value is unknowable, so there is nothing to fix;
    # re-detect on the repaired table (pre-repair row indices no longer
    # apply after the sort/drop steps above) and mark the rows suspect.
    had_stuck = any(not c.passed for c in report.by_check("stuck."))
    if had_stuck and n > 1 and "pe_cycles" in work and "write_count" in work:
        pe = work["pe_cycles"].astype(np.float64, copy=False)
        writes = work["write_count"].astype(np.float64, copy=False)
        same_d = ids[1:] == ids[:-1]
        with np.errstate(invalid="ignore"):
            frozen = same_d & (np.diff(pe) == 0) & (writes[1:] > 0)
        rows = np.flatnonzero(frozen) + 1
        if rows.size:
            suspect[rows] = True
            actions.append(
                RepairAction(
                    "stuck.pe_cycles",
                    "marked frozen-counter rows as suspect",
                    int(rows.size),
                )
            )

    if policy == "quarantine":
        work["quarantined"] = suspect.astype(np.uint8)
        n_quarantined = int(suspect.sum())
    else:
        work.pop("quarantined", None)
        n_quarantined = 0

    return RepairResult(
        dataset=DriveDayDataset(work, check_sorted=False),
        report=report,
        actions=actions,
        n_quarantined=n_quarantined,
    )
