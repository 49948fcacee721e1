"""Versioned model registry for the online scoring service.

Layout under one root directory::

    registry/
      registry.json            # {"active": "v0002", "history": [...]}
      versions/
        v0001/model.pkl        # pickled FailurePredictor
        v0001/meta.json        # digests + schema hash + provenance
        v0002/...

Every write is atomic (:func:`repro.reliability.runner.atomic_write`),
so a crash mid-publish never leaves a half-registered version: either
``meta.json`` exists and the artifact digest inside it matches the
pickle on disk, or the version does not exist.

Metadata reuses the :mod:`repro.obs.manifest` digest helpers: the model
pickle's sha256, a config digest over the predictor hyper-parameters,
the feature-schema hash from :func:`repro.core.features.feature_schema_hash`,
and (optionally) the sha256 of the training run's manifest, tying a
served model back to the exact training run that produced it.

:meth:`ModelRegistry.activate` refuses a version whose feature-schema
hash differs from the live feature store's — a model trained on one
feature layout can never silently score rows assembled under another.
:meth:`ModelRegistry.load` re-digests the artifact before unpickling, so
a corrupted pickle is a clean error (and ``rollback`` restores the
previous activation).
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path
from typing import Any

from ..core.features import feature_schema_hash
from ..core.predictor import FailurePredictor
from ..errors import ReproError
from ..obs.manifest import config_digest, file_digest

__all__ = [
    "RegistryError",
    "SchemaMismatchError",
    "ModelRegistry",
]

_REGISTRY_FILE = "registry.json"
_MODEL_FILE = "model.pkl"
_META_FILE = "meta.json"


class RegistryError(RuntimeError, ReproError):
    """A registry operation failed (missing/corrupt version, bad state)."""


class SchemaMismatchError(RegistryError):
    """Refused activation: model and store disagree on the feature layout."""


class ModelRegistry:
    """Filesystem-backed model versions with publish/activate/rollback."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.versions_dir = self.root / "versions"

    # ------------------------------------------------------------------ state
    def _state(self) -> dict[str, Any]:
        path = self.root / _REGISTRY_FILE
        if not path.exists():
            return {"active": None, "history": []}
        try:
            body = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise RegistryError(
                f"registry state {path} is unreadable: {exc}"
            ) from None
        if not isinstance(body, dict):
            raise RegistryError(f"registry state {path} is not a JSON object")
        return {
            "active": body.get("active"),
            "history": list(body.get("history", [])),
        }

    def _write_state(self, state: dict[str, Any]) -> None:
        from ..reliability.runner import atomic_write

        self.root.mkdir(parents=True, exist_ok=True)
        with atomic_write(self.root / _REGISTRY_FILE, "w") as fh:
            json.dump(state, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def versions(self) -> list[str]:
        """Published version names, oldest first."""
        if not self.versions_dir.exists():
            return []
        return sorted(
            p.name
            for p in self.versions_dir.iterdir()
            if p.is_dir() and (p / _META_FILE).exists()
        )

    def active_version(self) -> str | None:
        """The currently-activated version name (``None`` when empty)."""
        return self._state()["active"]

    def _version_dir(self, version: str) -> Path:
        path = self.versions_dir / version
        if not (path / _META_FILE).exists():
            raise RegistryError(
                f"registry has no version {version!r}; published: "
                f"{', '.join(self.versions()) or '(none)'}"
            )
        return path

    def meta(self, version: str) -> dict[str, Any]:
        """The metadata document of one published version."""
        path = self._version_dir(version) / _META_FILE
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise RegistryError(f"metadata {path} is unreadable: {exc}") from None

    # ------------------------------------------------------------------ publish
    def publish(
        self,
        predictor: FailurePredictor,
        training_manifest: str | Path | None = None,
        activate: bool = False,
        extra: dict[str, Any] | None = None,
    ) -> str:
        """Persist a fitted predictor as the next version; returns its name.

        ``training_manifest`` (the ``train`` run's manifest JSON) is
        digested into the metadata so a served score can be traced back
        to the training run.  ``activate=True`` additionally activates
        the fresh version (schema-checked like any activation).
        """
        if predictor.feature_names is None:
            raise RegistryError("cannot publish an unfitted predictor")
        from ..reliability.runner import atomic_write

        existing = self.versions()
        n = int(existing[-1][1:]) + 1 if existing else 1
        version = f"v{n:04d}"
        vdir = self.versions_dir / version
        vdir.mkdir(parents=True, exist_ok=True)
        with atomic_write(vdir / _MODEL_FILE, "wb") as fh:
            pickle.dump(predictor, fh)
        meta: dict[str, Any] = {
            "version": version,
            "feature_schema_hash": feature_schema_hash(),
            "feature_names": list(predictor.feature_names),
            "model_digest": file_digest(vdir / _MODEL_FILE),
            "config": {
                "lookahead": predictor.lookahead,
                "age_partitioned": predictor.age_partitioned,
                "infancy_days": predictor.infancy_days,
                "downsample_ratio": predictor.downsample_ratio,
                "seed": predictor.seed,
                "model_spec": predictor.model_spec.name,
            },
        }
        meta["config_digest"] = config_digest(meta["config"])
        if training_manifest is not None:
            meta["training_manifest_digest"] = file_digest(training_manifest)
        if extra:
            meta.update(extra)
        with atomic_write(vdir / _META_FILE, "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if activate:
            self.activate(version)
        return version

    # ------------------------------------------------------------------ activate
    def activate(
        self, version: str, expected_schema_hash: str | None = None
    ) -> str:
        """Make ``version`` the served model; returns the version name.

        ``expected_schema_hash`` defaults to the live build's
        :func:`feature_schema_hash`; a mismatching model is refused so an
        old artifact can never score rows it does not understand.
        """
        meta = self.meta(version)
        expect = expected_schema_hash or feature_schema_hash()
        got = meta.get("feature_schema_hash")
        if got != expect:
            raise SchemaMismatchError(
                f"refusing to activate {version}: model feature schema "
                f"{str(got)[:12]}… does not match the store's "
                f"{expect[:12]}… (retrain against the current features)"
            )
        state = self._state()
        state["active"] = version
        state["history"].append(version)
        self._write_state(state)
        return version

    def rollback(self) -> str:
        """Re-activate the previously-activated version; returns it.

        The activation history is a stack: rollback pops the current
        activation and restores the one before it (schema-checked, so a
        rollback can never land on a now-incompatible model).
        """
        state = self._state()
        history = state["history"]
        if len(history) < 2:
            raise RegistryError(
                "nothing to roll back to: fewer than two activations recorded"
            )
        previous = history[-2]
        # Re-activating through activate() would append to history and
        # make consecutive rollbacks ping-pong; pop instead.
        meta = self.meta(previous)
        expect = feature_schema_hash()
        if meta.get("feature_schema_hash") != expect:
            raise SchemaMismatchError(
                f"refusing rollback to {previous}: feature schema mismatch"
            )
        state["history"] = history[:-1]
        state["active"] = previous
        self._write_state(state)
        return previous

    # ------------------------------------------------------------------ load
    def load(self, version: str | None = None) -> FailurePredictor:
        """Unpickle a version (default: the active one), integrity-checked.

        The artifact's sha256 is recomputed and compared against the
        digest recorded at publish time *before* unpickling — a corrupt
        or tampered pickle is a :class:`RegistryError`, never a crash or
        a silently-wrong model.
        """
        if version is None:
            version = self.active_version()
            if version is None:
                raise RegistryError(
                    "registry has no active version (publish + activate first)"
                )
        meta = self.meta(version)
        path = self._version_dir(version) / _MODEL_FILE
        if not path.exists():
            raise RegistryError(f"{version}: model artifact {path} is missing")
        digest = file_digest(path)
        if digest != meta.get("model_digest"):
            raise RegistryError(
                f"{version}: model artifact is corrupt (sha256 {digest[:12]}… "
                f"!= published {str(meta.get('model_digest'))[:12]}…); "
                "roll back to a healthy version"
            )
        with open(path, "rb") as fh:
            predictor = pickle.load(fh)
        if not isinstance(predictor, FailurePredictor):
            raise RegistryError(
                f"{version}: artifact is not a FailurePredictor pickle"
            )
        return predictor
