"""Human-readable run summaries and manifest-to-manifest diffs.

Two consumers:

- ``repro-ssd obs show <manifest>`` — :func:`render_manifest`, a
  one-screen summary of what a run did (stage table with timings and
  rows in/out, validation tallies, artifact digests);
- ``repro-ssd obs diff <a> <b>`` — :func:`diff_manifests`, which
  classifies differences into **drift** (seeds, config, input/output
  digests, row counts, validation tallies — anything that makes two
  runs non-comparable) and **warnings** (stage-time regressions beyond
  a threshold — worth a look, but not a comparability failure).

Two runs of the same command with the same seed and inputs must diff
clean: timings are never drift, and wall-clock metadata (``created_unix``,
``elapsed_seconds``, ``argv``) is ignored.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "DiffEntry",
    "ManifestDiff",
    "diff_manifests",
    "render_manifest",
]

#: Keys compared verbatim at the top level (besides structured sections).
_IDENTITY_KEYS = ("schema_version", "command", "config_digest")


@dataclass(frozen=True)
class DiffEntry:
    """One observed difference between two manifests."""

    kind: str  # e.g. "seed", "config", "input", "output", "rows", "stage-time"
    field: str
    a: Any
    b: Any

    def __str__(self) -> str:
        return f"[{self.kind}] {self.field}: {self.a!r} -> {self.b!r}"


@dataclass
class ManifestDiff:
    """Classified differences between two run manifests."""

    drift: list[DiffEntry] = field(default_factory=list)
    warnings: list[DiffEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the runs are comparable (no drift; warnings allowed)."""
        return not self.drift

    def render(self) -> str:
        lines = [
            f"Manifest diff: {len(self.drift)} drift item(s), "
            f"{len(self.warnings)} warning(s)"
        ]
        for entry in self.drift:
            lines.append(f"  DRIFT {entry}")
        for entry in self.warnings:
            lines.append(f"  warn  {entry}")
        lines.append(
            "Result: " + ("COMPARABLE" if self.ok else "NOT COMPARABLE")
        )
        return "\n".join(lines)


def _diff_mapping(
    kind: str,
    field_prefix: str,
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    out: list[DiffEntry],
) -> None:
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va != vb:
            out.append(DiffEntry(kind, f"{field_prefix}{key}", va, vb))


def diff_manifests(
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    time_regression: float = 0.25,
    min_regression_seconds: float = 0.05,
) -> ManifestDiff:
    """Compare two manifests (``a`` = baseline, ``b`` = candidate).

    Parameters
    ----------
    time_regression:
        Fractional slowdown of a stage's ``total_seconds`` (b vs. a)
        reported as a warning, e.g. ``0.25`` = 25 % slower.
    min_regression_seconds:
        Absolute floor below which timing differences are noise and
        never reported.
    """
    diff = ManifestDiff()
    for key in _IDENTITY_KEYS:
        if a.get(key) != b.get(key):
            diff.drift.append(DiffEntry("identity", key, a.get(key), b.get(key)))
    _diff_mapping("seed", "seeds.", a.get("seeds", {}), b.get("seeds", {}), diff.drift)
    _diff_mapping(
        "config", "config.", a.get("config", {}), b.get("config", {}), diff.drift
    )
    _diff_mapping(
        "input", "inputs.", a.get("inputs", {}), b.get("inputs", {}), diff.drift
    )
    _diff_mapping(
        "output", "outputs.", a.get("outputs", {}), b.get("outputs", {}), diff.drift
    )
    _diff_mapping(
        "counts", "counts.", a.get("counts", {}), b.get("counts", {}), diff.drift
    )
    _diff_mapping(
        "validation",
        "validation.",
        a.get("validation", {}),
        b.get("validation", {}),
        diff.drift,
    )

    stages_a = {s.get("name"): s for s in a.get("stages", [])}
    stages_b = {s.get("name"): s for s in b.get("stages", [])}
    for name in sorted(set(stages_a) | set(stages_b)):
        sa, sb = stages_a.get(name), stages_b.get(name)
        if sa is None or sb is None:
            diff.drift.append(
                DiffEntry(
                    "stage",
                    f"stages.{name}",
                    "present" if sa else "absent",
                    "present" if sb else "absent",
                )
            )
            continue
        for rows_key in ("rows_in", "rows_out", "calls"):
            if sa.get(rows_key) != sb.get(rows_key):
                diff.drift.append(
                    DiffEntry(
                        "rows",
                        f"stages.{name}.{rows_key}",
                        sa.get(rows_key),
                        sb.get(rows_key),
                    )
                )
        ta = float(sa.get("total_seconds", 0.0))
        tb = float(sb.get("total_seconds", 0.0))
        if (
            tb - ta > min_regression_seconds
            and ta > 0
            and (tb - ta) / ta > time_regression
        ):
            diff.warnings.append(
                DiffEntry(
                    "stage-time",
                    f"stages.{name}.total_seconds",
                    round(ta, 4),
                    round(tb, 4),
                )
            )
    return diff


def _fmt_rows(value: Any) -> str:
    if value is None:
        return "-"
    return str(int(value))


def render_manifest(m: Mapping[str, Any]) -> str:
    """One-screen human-readable summary of a run manifest."""
    lines = [
        f"Run manifest (schema v{m.get('schema_version', '?')}): "
        f"{m.get('command', '?')}",
        f"  config digest: {str(m.get('config_digest', ''))[:16]}…",
        f"  seeds:         {m.get('seeds', {}) or '{}'}",
        f"  elapsed:       {float(m.get('elapsed_seconds', 0.0)):.2f}s",
    ]
    counts = m.get("counts") or {}
    if counts:
        lines.append(
            "  counts:        "
            + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        )
    validation = m.get("validation") or {}
    lines.append(
        "  validation:    "
        f"{validation.get('n_errors', 0)} error(s), "
        f"{validation.get('n_warnings', 0)} warning(s), "
        f"{validation.get('n_quarantined', 0)} quarantined row(s)"
    )
    stages = m.get("stages") or []
    if stages:
        lines.append("  stages:")
        lines.append(
            f"    {'stage':<34s} {'calls':>6s} {'total s':>9s} "
            f"{'rows in':>10s} {'rows out':>10s}"
        )
        for stage in stages:
            lines.append(
                f"    {str(stage.get('name', '?')):<34s} "
                f"{int(stage.get('calls', 0)):>6d} "
                f"{float(stage.get('total_seconds', 0.0)):>9.3f} "
                f"{_fmt_rows(stage.get('rows_in')):>10s} "
                f"{_fmt_rows(stage.get('rows_out')):>10s}"
            )
    slo = m.get("slo") or {}
    if slo:
        objectives = slo.get("objectives") or []
        lines.append(
            f"  slo:           {slo.get('state', '?')} "
            f"({len(objectives)} objective(s))"
        )
        for obj in objectives:
            if obj.get("state", "ok") != "ok":
                lines.append(
                    f"    {obj.get('state', '?'):<7s}"
                    f"{obj.get('name', '?')}: {obj.get('metric', '?')} "
                    f"{obj.get('op', '?')} {obj.get('threshold', '?')} "
                    f"violated {obj.get('violations', 0)}/"
                    f"{obj.get('windows_evaluated', 0)} window(s)"
                )
    for section, title in (("inputs", "inputs"), ("outputs", "outputs")):
        entries = m.get(section) or {}
        if entries:
            lines.append(f"  {title}:")
            for name, digest in sorted(entries.items()):
                lines.append(f"    {name:<20s} sha256:{str(digest)[:16]}…")
    for warning in _histogram_overflows(m.get("metrics") or {}):
        lines.append(f"  WARN {warning}")
    return "\n".join(lines)


def _histogram_overflows(metrics: Mapping[str, Any]) -> list[str]:
    """Warning lines for histograms with observations above the top bucket.

    A quantile read off such a histogram is clamped to the highest
    finite bound — a p99 "holding steady" there may really be unbounded,
    so ``obs show`` must not let it masquerade as healthy.
    """
    out: list[str] = []
    for name, fam in sorted(metrics.items()):
        if not isinstance(fam, Mapping) or fam.get("kind") != "histogram":
            continue
        for series in fam.get("series", []):
            overflow = int(series.get("overflow", 0) or 0)
            if overflow <= 0:
                continue
            labels = series.get("labels") or {}
            label_str = (
                "{" + ",".join(f'{k}="{v}"' for k, v in sorted(labels.items())) + "}"
                if labels
                else ""
            )
            out.append(
                f"{name}{label_str}: {overflow}/{series.get('count', '?')} "
                "observation(s) above the top bucket — quantiles are "
                "clamped to the highest finite bound"
            )
    return out
