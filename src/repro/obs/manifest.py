"""Per-run manifests: what ran, on what inputs, with what outcome.

Every ``simulate``/``train``/``score`` invocation writes a
``*manifest.json`` next to its artifacts (through the one
:func:`repro.obs.durable.atomic_write`) recording everything needed to
decide whether two runs are comparable:

- the command, argv and a **config digest** (sha256 over the sorted
  JSON of the run configuration);
- every **RNG seed** in play;
- sha256 **digests of input and output files**;
- per-stage **spans** (timings + rows in/out) aggregated from the
  active :class:`repro.obs.tracing.Tracer`;
- **validation/quarantine tallies** from :mod:`repro.reliability`;
- a snapshot of the active metrics registry.

:data:`MANIFEST_SCHEMA` is a self-contained JSON-schema subset that
:func:`validate_manifest` checks without external dependencies; CI runs
it against a fresh ``simulate --trace`` manifest.  ``repro-ssd obs
show``/``obs diff`` consume these files (:mod:`repro.obs.reportobs`).
"""

from __future__ import annotations

import json
import sys
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Any

from ..errors import ReproError
from . import metrics as _metrics
from . import tracing as _tracing
from .durable import atomic_write, now

__all__ = [
    "MANIFEST_VERSION",
    "MANIFEST_SCHEMA",
    "FAILURE_REPORT_SCHEMA",
    "ManifestError",
    "RunManifest",
    "config_digest",
    "file_digest",
    "load_manifest",
    "validate_manifest",
]

#: Bumped whenever the manifest layout changes incompatibly.
MANIFEST_VERSION = 1


class ManifestError(ValueError, ReproError):
    """A manifest file is missing, unreadable, or fails its schema."""


def file_digest(path: str | Path, chunk_size: int = 1 << 20) -> str:
    """Streaming sha256 of a file's bytes."""
    h = sha256()
    with open(path, "rb") as fh:
        while True:
            block = fh.read(chunk_size)
            if not block:
                break
            h.update(block)
    return h.hexdigest()


def config_digest(payload: Mapping[str, Any]) -> str:
    """Stable sha256 over the sorted-JSON form of a config mapping."""
    return sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


# --------------------------------------------------------------------------
# schema (self-contained JSON-schema subset)
# --------------------------------------------------------------------------

_STAGE_SCHEMA = {
    "type": "object",
    "required": ["name", "calls", "total_seconds"],
    "properties": {
        "name": {"type": "string"},
        "calls": {"type": "number"},
        "total_seconds": {"type": "number"},
        "min_seconds": {"type": "number"},
        "max_seconds": {"type": "number"},
        "rows_in": {"type": "number"},
        "rows_out": {"type": "number"},
    },
}

#: Schema of one quarantined task's report (``resilience.quarantined[i]``),
#: mirroring :class:`repro.resilience.FailureReport`.  Exported on its own
#: so the chaos drill / CI can validate reports independently.
FAILURE_REPORT_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["task_index", "label", "attempts", "quarantined", "errors"],
    "properties": {
        "task_index": {"type": "integer"},
        "label": {"type": "string"},
        "attempts": {"type": "integer"},
        "quarantined": {"type": "boolean"},
        "errors": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["attempt", "kind", "message"],
                "properties": {
                    "attempt": {"type": "integer"},
                    "kind": {
                        "type": "string",
                        "enum": ["error", "timeout", "crash"],
                    },
                    "message": {"type": "string"},
                    "traceback": {"type": "string"},
                },
            },
        },
    },
}

MANIFEST_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": [
        "schema_version",
        "command",
        "created_unix",
        "elapsed_seconds",
        "config",
        "config_digest",
        "seeds",
        "inputs",
        "outputs",
        "stages",
        "validation",
        "metrics",
    ],
    "properties": {
        "schema_version": {"type": "integer"},
        "command": {
            "type": "string",
            "enum": [
                "simulate",
                "train",
                "score",
                "serve.replay",
                "serve.bench",
                "serve.run",
                "serve.publish",
                "serve.heal",
                "serve.shard",
                "fleet.run",
                "fleet.whatif",
                "fleet.decide",
                "fleet.audit",
            ],
        },
        "argv": {"type": "array", "items": {"type": "string"}},
        "created_unix": {"type": "number"},
        "elapsed_seconds": {"type": "number"},
        "config": {"type": "object"},
        "config_digest": {"type": "string", "minLength": 64, "maxLength": 64},
        "seeds": {"type": "object"},
        "inputs": {"type": "object"},
        "outputs": {"type": "object"},
        "counts": {"type": "object"},
        "stages": {"type": "array", "items": _STAGE_SCHEMA},
        "spans": {"type": "array", "items": {"type": "object"}},
        "validation": {
            "type": "object",
            "required": ["n_errors", "n_warnings", "n_quarantined"],
            "properties": {
                "n_errors": {"type": "integer"},
                "n_warnings": {"type": "integer"},
                "n_quarantined": {"type": "integer"},
            },
        },
        "metrics": {"type": "object"},
        "results": {"type": "object"},
        "resilience": {
            "type": "object",
            "required": [
                "retries",
                "timeouts",
                "crashes",
                "breaker_tripped",
                "quarantined",
            ],
            "properties": {
                "retries": {"type": "integer"},
                "timeouts": {"type": "integer"},
                "crashes": {"type": "integer"},
                "breaker_tripped": {"type": "boolean"},
                "quarantined": {
                    "type": "array",
                    "items": FAILURE_REPORT_SCHEMA,
                },
            },
        },
        "serve": {
            "type": "object",
            "required": [
                "health",
                "admitted",
                "duplicates_dropped",
                "dead_lettered",
                "shed",
                "by_fault",
            ],
            "properties": {
                "health": {
                    "type": "string",
                    "enum": ["ready", "degraded", "draining"],
                },
                "admitted": {"type": "integer"},
                "duplicates_dropped": {"type": "integer"},
                "dead_lettered": {"type": "integer"},
                "shed": {"type": "integer"},
                "stale_scores": {"type": "integer"},
                "by_fault": {"type": "object"},
                "breaker": {"type": "object"},
                "dlq_path": {"type": "string"},
                "journal_path": {"type": "string"},
            },
        },
        "fleet": {
            "type": "object",
            "required": [
                "policy_kind",
                "n_events",
                "n_days",
                "n_actions",
                "by_action",
                "spares_used",
                "cost_total",
                "chain",
                "state_digest",
            ],
            "properties": {
                "policy_kind": {"type": "string"},
                "n_events": {"type": "integer"},
                "n_days": {"type": "integer"},
                "n_actions": {"type": "integer"},
                "n_rejected": {"type": "integer"},
                "reverts": {"type": "integer"},
                "by_action": {"type": "object"},
                "spares_used": {"type": "integer"},
                "cost_total": {"type": "number"},
                "chain": {"type": "string"},
                "state_digest": {"type": "string"},
                "health_digest": {"type": "string"},
                "journal_path": {"type": "string"},
                "caught": {"type": "integer"},
                "missed": {"type": "integer"},
                "false_replacements": {"type": "integer"},
                "savings": {"type": "number"},
            },
        },
        "slo": {
            "type": "object",
            "required": ["state", "objectives"],
            "properties": {
                "state": {"type": "string", "enum": ["ok", "warn", "breach"]},
                "objectives": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["name", "metric", "state"],
                        "properties": {
                            "name": {"type": "string"},
                            "metric": {"type": "string"},
                            "state": {
                                "type": "string",
                                "enum": ["ok", "warn", "breach"],
                            },
                            "threshold": {"type": "number"},
                            "op": {"type": "string", "enum": ["<=", ">="]},
                            "windows_evaluated": {"type": "integer"},
                            "violations": {"type": "integer"},
                            "short_fraction": {"type": "number"},
                            "long_fraction": {"type": "number"},
                        },
                    },
                },
            },
        },
    },
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate_manifest(
    data: Any,
    schema: Mapping[str, Any] | None = None,
    path: str = "$",
) -> list[str]:
    """Check ``data`` against the (subset) JSON schema; returns errors.

    Supports ``type``, ``required``, ``properties``, ``items``, ``enum``,
    ``minLength``/``maxLength`` — everything :data:`MANIFEST_SCHEMA`
    uses.  Unknown keys in the data are allowed (manifests may carry
    command-specific extras).
    """
    schema = MANIFEST_SCHEMA if schema is None else schema
    errors: list[str] = []
    expected = schema.get("type")
    if expected is not None and not _TYPE_CHECKS[expected](data):
        errors.append(
            f"{path}: expected {expected}, got {type(data).__name__}"
        )
        return errors
    if "enum" in schema and data not in schema["enum"]:
        errors.append(f"{path}: {data!r} not one of {schema['enum']}")
    if isinstance(data, str):
        if "minLength" in schema and len(data) < schema["minLength"]:
            errors.append(f"{path}: shorter than {schema['minLength']} chars")
        if "maxLength" in schema and len(data) > schema["maxLength"]:
            errors.append(f"{path}: longer than {schema['maxLength']} chars")
    if isinstance(data, dict):
        for key in schema.get("required", ()):
            if key not in data:
                errors.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in data:
                errors.extend(validate_manifest(data[key], sub, f"{path}.{key}"))
    if isinstance(data, list) and "items" in schema:
        for i, item in enumerate(data):
            errors.extend(
                validate_manifest(item, schema["items"], f"{path}[{i}]")
            )
    return errors


# --------------------------------------------------------------------------
# building and persisting
# --------------------------------------------------------------------------

@dataclass
class RunManifest:
    """Builder for one run's manifest.

    Typical CLI lifecycle::

        manifest = RunManifest(command="simulate", config=cfg, seeds={"seed": 7})
        ...  # run under tracing.activate()/metrics.activate()
        manifest.add_output(out / "records.npz")
        manifest.finish(tracer, registry, include_spans=args.trace)
        manifest.write(out / "run_manifest.json")
    """

    command: str
    config: dict[str, Any] = field(default_factory=dict)
    seeds: dict[str, int] = field(default_factory=dict)
    argv: list[str] = field(default_factory=lambda: list(sys.argv[1:]))
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    stages: list[dict[str, Any]] = field(default_factory=list)
    spans: list[dict[str, Any]] | None = None
    validation: dict[str, Any] = field(
        default_factory=lambda: {"n_errors": 0, "n_warnings": 0, "n_quarantined": 0}
    )
    metrics: dict[str, Any] = field(default_factory=dict)
    results: dict[str, Any] = field(default_factory=dict)
    resilience: dict[str, Any] | None = None
    serve: dict[str, Any] | None = None
    fleet: dict[str, Any] | None = None
    slo: dict[str, Any] | None = None
    created_unix: float = field(default_factory=now)
    elapsed_seconds: float = 0.0
    schema_version: int = MANIFEST_VERSION
    _t0: float = field(default_factory=time.perf_counter, repr=False)

    # ------------------------------------------------------------- recording
    def add_input(self, path: str | Path) -> str:
        """Digest an input file into the manifest; returns the digest."""
        digest = file_digest(path)
        self.inputs[Path(path).name] = digest
        return digest

    def add_output(self, path: str | Path) -> str:
        """Digest an output file into the manifest; returns the digest."""
        digest = file_digest(path)
        self.outputs[Path(path).name] = digest
        return digest

    def record_validation(
        self,
        n_errors: int = 0,
        n_warnings: int = 0,
        n_quarantined: int = 0,
        **extra: Any,
    ) -> None:
        """Accumulate reliability tallies (validation + quarantine)."""
        self.validation["n_errors"] += int(n_errors)
        self.validation["n_warnings"] += int(n_warnings)
        self.validation["n_quarantined"] += int(n_quarantined)
        for key, value in extra.items():
            self.validation[key] = value

    def record_resilience(self, data: dict[str, Any]) -> None:
        """Attach a supervision summary (a ``SupervisionLog.to_dict()``).

        Takes a plain dict rather than the log object so :mod:`repro.obs`
        keeps no dependency on :mod:`repro.resilience`.
        """
        errors = validate_manifest(
            data, MANIFEST_SCHEMA["properties"]["resilience"], "$.resilience"
        )
        if errors:
            raise ManifestError(
                f"invalid resilience record: {'; '.join(errors)}"
            )
        self.resilience = data

    def record_serve(self, data: dict[str, Any]) -> None:
        """Attach serving health + admission tallies (guard/breaker dicts).

        Same plain-dict contract as :meth:`record_resilience`:
        :mod:`repro.obs` stays independent of :mod:`repro.serve`.
        """
        errors = validate_manifest(
            data, MANIFEST_SCHEMA["properties"]["serve"], "$.serve"
        )
        if errors:
            raise ManifestError(f"invalid serve record: {'; '.join(errors)}")
        self.serve = data

    def record_fleet(self, data: dict[str, Any]) -> None:
        """Attach a fleet-autopilot decision summary.

        Plain-dict contract like :meth:`record_serve`: :mod:`repro.obs`
        stays independent of :mod:`repro.fleet`.
        """
        errors = validate_manifest(
            data, MANIFEST_SCHEMA["properties"]["fleet"], "$.fleet"
        )
        if errors:
            raise ManifestError(f"invalid fleet record: {'; '.join(errors)}")
        self.fleet = data

    def record_slo(self, data: dict[str, Any]) -> None:
        """Attach an SLO evaluation (an ``SloReport.to_dict()``).

        Plain-dict contract like :meth:`record_resilience`; callers build
        the report with :func:`repro.obs.slo.evaluate_slos`.
        """
        errors = validate_manifest(
            data, MANIFEST_SCHEMA["properties"]["slo"], "$.slo"
        )
        if errors:
            raise ManifestError(f"invalid slo record: {'; '.join(errors)}")
        self.slo = data

    def finish(
        self,
        tracer: "_tracing.Tracer | None" = None,
        registry: "_metrics.MetricsRegistry | None" = None,
        include_spans: bool = False,
    ) -> "RunManifest":
        """Freeze elapsed time and pull stage/metric snapshots."""
        self.elapsed_seconds = time.perf_counter() - self._t0
        if tracer is not None:
            summary = tracer.stage_summary()
            self.stages = [
                {"name": name, **agg} for name, agg in sorted(summary.items())
            ]
            if include_spans:
                self.spans = tracer.to_dicts()
        if registry is not None:
            self.metrics = registry.to_dict()
        return self

    # ----------------------------------------------------------- persistence
    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "schema_version": self.schema_version,
            "command": self.command,
            "argv": list(self.argv),
            "created_unix": self.created_unix,
            "elapsed_seconds": self.elapsed_seconds,
            "config": dict(self.config),
            "config_digest": config_digest(self.config),
            "seeds": dict(self.seeds),
            "inputs": dict(self.inputs),
            "outputs": dict(self.outputs),
            "counts": dict(self.counts),
            "stages": list(self.stages),
            "validation": dict(self.validation),
            "metrics": dict(self.metrics),
            "results": dict(self.results),
        }
        if self.spans is not None:
            out["spans"] = list(self.spans)
        if self.resilience is not None:
            out["resilience"] = dict(self.resilience)
        if self.serve is not None:
            out["serve"] = dict(self.serve)
        if self.fleet is not None:
            out["fleet"] = dict(self.fleet)
        if self.slo is not None:
            out["slo"] = dict(self.slo)
        return out

    def write(self, path: str | Path) -> Path:
        """Atomically write the manifest JSON; returns the path."""
        path = Path(path)
        body = self.to_dict()
        errors = validate_manifest(body)
        if errors:  # pragma: no cover - builder always emits valid manifests
            raise ManifestError(
                f"refusing to write invalid manifest: {'; '.join(errors)}"
            )
        with atomic_write(path, "w") as fh:
            fh.write(json.dumps(body, indent=2, sort_keys=True) + "\n")
        return path


def load_manifest(path: str | Path) -> dict[str, Any]:
    """Read a manifest JSON file; raises :class:`ManifestError` on problems."""
    path = Path(path)
    try:
        body = json.loads(path.read_text())
    except FileNotFoundError:
        raise ManifestError(
            f"manifest {path} does not exist (runs write run_manifest.json "
            "next to their artifacts)"
        ) from None
    except (OSError, ValueError) as exc:
        raise ManifestError(f"manifest {path} is unreadable: {exc}") from None
    if not isinstance(body, dict):
        raise ManifestError(f"manifest {path} is not a JSON object")
    return body
