"""High-level failure-prediction API.

:class:`FailurePredictor` is the library's front door: fit it on a trace
(simulated or loaded), then score any telemetry snapshot for
probability-of-failure within the next ``N`` days.  It optionally trains
*separate models for infant and mature drives* — the paper's Section 5.3
improvement, which buys a substantial AUC gain on young failures — and
exposes feature importances for root-cause interpretation (Section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..data import DriveDayDataset, SwapLog, downsample_majority
from ..ml import BinaryClassifier, RandomForestClassifier
from ..obs import tracing
from ..parallel import resolve_workers, shard_ranges
from ..simulator import FleetTrace
from .features import build_features
from .pipeline import (
    INFANCY_DAYS,
    ModelSpec,
    PredictionDataset,
    build_prediction_dataset,
    evaluate_model,
)

if TYPE_CHECKING:
    from ..ml import CVResult
    from ..resilience import SupervisedPool

__all__ = ["FailurePredictor", "DriveRiskReport"]


@dataclass(frozen=True)
class DriveRiskReport:
    """Per-drive risk snapshot: each drive scored on its latest record."""

    drive_id: np.ndarray
    age_days: np.ndarray
    probability: np.ndarray

    def top(self, k: int) -> "DriveRiskReport":
        """The ``k`` highest-risk drives, most risky first."""
        order = np.argsort(-self.probability)[:k]
        return DriveRiskReport(
            drive_id=self.drive_id[order],
            age_days=self.age_days[order],
            probability=self.probability[order],
        )

    def flagged(self, threshold: float) -> np.ndarray:
        """Drive ids whose failure probability meets the threshold."""
        return self.drive_id[self.probability >= threshold]


class _DefaultForestFactory:
    """Picklable factory for the default forest (lambdas cannot be
    pickled, and deployed predictors are saved with pickle)."""

    def __init__(self, seed: int):
        self.seed = seed

    def __call__(self) -> RandomForestClassifier:
        return RandomForestClassifier(
            n_estimators=160, max_depth=13, min_samples_leaf=2, random_state=self.seed
        )


def _score_block(
    models: dict[str, BinaryClassifier],
    age_partitioned: bool,
    infancy_days: int,
    X: np.ndarray,
    age_days: np.ndarray,
) -> np.ndarray:
    """Score one block of rows — the serial path and the pool task call it."""
    if not age_partitioned:
        return models["all"].predict_proba(X)
    out = np.empty(X.shape[0])
    young = age_days <= infancy_days
    if np.any(young):
        out[young] = models["young"].predict_proba(X[young])
    if np.any(~young):
        out[~young] = models["old"].predict_proba(X[~young])
    return out


#: Fitted models, installed once per pool worker by :meth:`scoring_pool`;
#: each call then ships just the row slices, never the model bundle.
_model_state: tuple | None = None


def _set_model_state(
    models: dict[str, BinaryClassifier],
    age_partitioned: bool,
    infancy_days: int,
) -> None:
    global _model_state
    _model_state = (models, age_partitioned, infancy_days)


def _score_rows_task(task: tuple) -> np.ndarray:
    """Pool task: score a shipped ``(X_rows, age_days)`` slice."""
    X, age_days = task
    assert _model_state is not None, "model state not installed"
    models, age_partitioned, infancy_days = _model_state
    return _score_block(models, age_partitioned, infancy_days, X, age_days)


class FailurePredictor:
    """Predicts swap-inducing failures within the next ``lookahead`` days.

    Parameters
    ----------
    lookahead:
        Size of the prediction window ``N`` (days, current day included).
    model_spec:
        Which classifier to use; defaults to the paper's best (random
        forest on raw features).
    age_partitioned:
        Train separate infant (< 90 days) and mature models, as in
        Section 5.3 of the paper.
    infancy_days:
        Boundary of the infant window.
    downsample_ratio:
        Negatives kept per positive when fitting (1:1 by default).
    seed:
        Seeds downsampling and any stochastic model internals.
    """

    def __init__(
        self,
        lookahead: int = 1,
        model_spec: ModelSpec | None = None,
        age_partitioned: bool = False,
        infancy_days: int = INFANCY_DAYS,
        downsample_ratio: float | None = 1.0,
        seed: int = 0,
    ):
        if lookahead < 1:
            raise ValueError("lookahead must be >= 1")
        self.lookahead = lookahead
        self.model_spec = model_spec or ModelSpec(
            "Random Forest", _DefaultForestFactory(seed), scale=False, log1p=False
        )
        self.age_partitioned = age_partitioned
        self.infancy_days = infancy_days
        self.downsample_ratio = downsample_ratio
        self.seed = seed
        self._models: dict[str, BinaryClassifier] = {}
        self._feature_names: tuple[str, ...] | None = None

    @property
    def feature_names(self) -> tuple[str, ...] | None:
        """Feature layout the predictor was fitted on (``None`` before fit).

        The model registry hashes this to refuse activating a model
        against a feature store with a different layout.
        """
        return self._feature_names

    # ------------------------------------------------------------------ fit
    def fit(
        self, trace: FleetTrace | tuple[DriveDayDataset, SwapLog]
    ) -> "FailurePredictor":
        """Fit on a full trace (telemetry + swap log)."""
        dataset = build_prediction_dataset(trace, self.lookahead)
        return self.fit_dataset(dataset)

    def fit_dataset(self, dataset: PredictionDataset) -> "FailurePredictor":
        """Fit on a pre-built :class:`PredictionDataset`."""
        self._feature_names = dataset.feature_names
        self._models = {}
        if self.age_partitioned:
            parts = {
                "young": dataset.young(self.infancy_days),
                "old": dataset.old(self.infancy_days),
            }
        else:
            parts = {"all": dataset}
        rng = np.random.default_rng(self.seed)
        for key, part in parts.items():
            if part.n_positive == 0:
                raise ValueError(
                    f"cannot fit {key!r} partition: no positive samples "
                    f"(need failures inside the partition)"
                )
            with tracing.span(
                "repro.core.fit", rows_in=len(part), partition=key
            ) as sp:
                if self.downsample_ratio is not None:
                    keep = downsample_majority(
                        part.y, ratio=self.downsample_ratio, rng=rng
                    )
                    part = part.select(keep)
                sp.set(rows_out=len(part))
                model = self.model_spec.factory()
                model.fit(self._transform_fit(part.X), part.y)
            self._models[key] = model
        return self

    def _transform_fit(self, X: np.ndarray) -> np.ndarray:
        # Preprocessing for non-tree models is handled by the CV helpers in
        # pipeline.py; the deployable predictor keeps raw features and is
        # therefore restricted to specs with scale=log1p=False.
        if self.model_spec.scale or self.model_spec.log1p:
            raise ValueError(
                "FailurePredictor currently supports raw-feature models "
                "(trees/forests); use repro.core.pipeline.evaluate_model for "
                "scaled models"
            )
        return X

    # ------------------------------------------------------------------ predict
    def predict_proba_dataset(
        self,
        dataset: PredictionDataset,
        workers: int | None = None,
        policy: object | None = None,
        supervision: object | None = None,
        pool: "SupervisedPool | None" = None,
    ) -> np.ndarray:
        """Failure probability for every row of a prediction dataset.

        ``workers`` shards the rows across worker processes (scoring is
        per-row, so the probabilities are identical for any count).  A
        :class:`repro.resilience.SupervisorPolicy` adds deadlines and
        deterministic retries; quarantine is forced off (the shards
        concatenate into one probability vector, so a hole would be
        silent corruption).  ``pool`` scores on a warm
        :meth:`scoring_pool` instead (see :meth:`predict_proba_matrix`).
        """
        self._require_fitted()
        if dataset.feature_names != self._feature_names:
            raise ValueError("feature-name mismatch with fitted predictor")
        with tracing.span("repro.core.predict", rows_in=len(dataset)):
            return self.predict_proba_matrix(
                dataset.X,
                dataset.age_days,
                workers=workers,
                policy=policy,
                supervision=supervision,
                pool=pool,
            )

    def scoring_pool(
        self,
        workers: int | None = None,
        policy: object | None = None,
        supervision: object | None = None,
    ) -> "SupervisedPool":
        """A warm worker pool with this predictor's models pre-installed.

        The returned :class:`repro.resilience.SupervisedPool` installs
        the model bundle in each worker exactly once; pass it to
        :meth:`predict_proba_matrix` (``pool=``) so repeated scoring
        calls — the per-chunk loop of ``serve replay`` — ship only row
        slices.  ``policy``/``supervision`` supervise every call, with
        quarantine forced off (the shards concatenate into one
        probability vector, so a hole would be silent corruption).
        Caller owns the pool's lifetime (``close()``).
        """
        from ..resilience.supervisor import SupervisedPool, force_fail

        self._require_fitted()
        return SupervisedPool(
            workers,
            initializer=_set_model_state,
            initargs=(self._models, self.age_partitioned, self.infancy_days),
            label="repro.core.predict",
            policy=force_fail(policy),
            supervision=supervision,
        )

    def predict_proba_matrix(
        self,
        X: np.ndarray,
        age_days: np.ndarray,
        workers: int | None = None,
        policy: object | None = None,
        supervision: object | None = None,
        pool: "SupervisedPool | None" = None,
    ) -> np.ndarray:
        """Failure probability for every row of a raw feature matrix.

        The serving hot path (:mod:`repro.serve.engine`) calls this with
        feature rows assembled incrementally; the batch paths above call
        it with a full :class:`PredictionDataset` matrix.  Scoring is
        per-row (trees traverse each row independently), so the output is
        bit-identical for any batch split and any ``workers`` count.

        A serial call (one resolved worker, no ``policy``, no ``pool``)
        scores the whole matrix as one block in-process: no sharding, no
        task plumbing, and no reference to ``X`` outlives the call.

        Otherwise the rows are cut into :func:`~repro.parallel.shard_ranges`
        slices and scored on ``pool`` — a warm :meth:`scoring_pool` — or,
        without one, on a pool built for this call from ``workers``,
        ``policy`` and ``supervision``.
        """
        self._require_fitted()
        if pool is None and policy is None and resolve_workers(workers) == 1:
            return _score_block(
                self._models, self.age_partitioned, self.infancy_days, X, age_days
            )
        if pool is None:
            with self.scoring_pool(workers, policy, supervision) as pool:
                return self.predict_proba_matrix(X, age_days, pool=pool)
        age = np.asarray(age_days)
        tasks = [
            (X[lo:hi], age[lo:hi]) for lo, hi in shard_ranges(X.shape[0], pool.workers)
        ]
        parts = [part for _, part in pool.imap(_score_rows_task, tasks)]
        return np.concatenate(parts) if parts else np.empty(0)

    def predict_proba_records(
        self,
        records: DriveDayDataset,
        workers: int | None = None,
        policy: object | None = None,
        supervision: object | None = None,
        pool: "SupervisedPool | None" = None,
    ) -> np.ndarray:
        """Failure probability for every row of a raw telemetry dataset
        (execution arguments as :meth:`predict_proba_dataset`)."""
        self._require_fitted()
        frame = build_features(records)
        dataset = PredictionDataset(
            X=frame.X,
            y=np.zeros(len(frame), dtype=np.int64),
            groups=frame.drive_id,
            age_days=frame.age_days,
            model=frame.model,
            feature_names=frame.names,
            lookahead=self.lookahead,
        )
        return self.predict_proba_dataset(
            dataset,
            workers=workers,
            policy=policy,
            supervision=supervision,
            pool=pool,
        )

    def risk_report(
        self,
        records: DriveDayDataset,
        workers: int | None = None,
        policy: object | None = None,
        supervision: object | None = None,
    ) -> DriveRiskReport:
        """Score each drive on its most recent record.

        This is the operational use-case of Section 5: rank the live fleet
        by probability of failing within the next ``lookahead`` days so
        operators can migrate data / provision spares ahead of the failure.
        """
        self._require_fitted()
        probs = self.predict_proba_records(
            records, workers=workers, policy=policy, supervision=supervision
        )
        ids, offsets = records.drive_groups()
        last = offsets[1:] - 1
        return DriveRiskReport(
            drive_id=ids.astype(np.int32),
            age_days=np.asarray(records["age_days"])[last],
            probability=probs[last],
        )

    # ------------------------------------------------------------------ misc
    def feature_importances(self) -> list[tuple[str, float]]:
        """Importance-sorted ``(feature, weight)`` of the fitted model.

        With age partitioning, returns the *mature*-model importances; use
        :meth:`feature_importances_for` for a specific partition.
        """
        key = "old" if self.age_partitioned else "all"
        return self.feature_importances_for(key)

    def feature_importances_for(self, partition: str) -> list[tuple[str, float]]:
        """Importances for one partition: ``"all"``, ``"young"`` or ``"old"``."""
        self._require_fitted()
        model = self._models.get(partition)
        if model is None:
            raise KeyError(
                f"no partition {partition!r}; fitted partitions: "
                f"{sorted(self._models)}"
            )
        imp = getattr(model, "feature_importances_", None)
        if imp is None:
            raise AttributeError(
                f"{type(model).__name__} does not expose feature importances"
            )
        assert self._feature_names is not None
        pairs = sorted(
            zip(self._feature_names, imp.tolist()), key=lambda p: -p[1]
        )
        return pairs

    def cross_validate(
        self,
        trace: FleetTrace | tuple[DriveDayDataset, SwapLog],
        n_splits: int = 5,
        workers: int | None = None,
        policy: object | None = None,
        supervision: object | None = None,
    ) -> CVResult:
        """Paper-protocol CV of this predictor's model on a trace.

        ``workers`` spreads the folds across worker processes; fold AUCs
        and out-of-fold scores are identical for any count.
        """
        dataset = build_prediction_dataset(trace, self.lookahead)
        return evaluate_model(
            dataset,
            self.model_spec,
            n_splits=n_splits,
            downsample_ratio=self.downsample_ratio,
            seed=self.seed,
            workers=workers,
            policy=policy,
            supervision=supervision,
        )

    def _require_fitted(self) -> None:
        if not self._models:
            raise RuntimeError("FailurePredictor used before fit")
