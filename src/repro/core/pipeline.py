"""End-to-end prediction pipeline: trace -> features -> labels -> CV scores.

This wires the pieces together exactly as Section 5 describes: feature
extraction (daily + cumulative), lookahead labelling against the swap log,
drive-grouped 5-fold cross-validation with 1:1 training downsampling, and
ROC-AUC scoring — for any of the six classifiers of Table 6.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..data import DriveDayDataset, SwapLog
from ..ml import BinaryClassifier
from ..obs import tracing
from ..simulator import FleetTrace
from .features import FeatureFrame, build_features
from .labeling import label_dataset

if TYPE_CHECKING:
    from ..ml import CVResult

__all__ = [
    "PredictionDataset",
    "ModelSpec",
    "build_prediction_dataset",
    "default_model_zoo",
    "extended_model_zoo",
    "evaluate_model",
    "evaluate_model_zoo",
    "INFANCY_DAYS",
]

#: Age boundary between "young" (infant) and "old" (mature) drives
#: (Section 4.1: the elevated-failure window is the first 90 days).
INFANCY_DAYS: int = 90


@dataclass
class PredictionDataset:
    """A ready-to-train snapshot: features, labels, and grouping identity."""

    X: np.ndarray
    y: np.ndarray
    groups: np.ndarray
    age_days: np.ndarray
    model: np.ndarray
    feature_names: tuple[str, ...]
    lookahead: int

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def n_positive(self) -> int:
        return int(self.y.sum())

    def select(self, idx: np.ndarray) -> "PredictionDataset":
        """Row subset (mask or indices)."""
        return PredictionDataset(
            X=self.X[idx],
            y=self.y[idx],
            groups=self.groups[idx],
            age_days=self.age_days[idx],
            model=self.model[idx],
            feature_names=self.feature_names,
            lookahead=self.lookahead,
        )

    def young(self, infancy_days: int = INFANCY_DAYS) -> "PredictionDataset":
        """Rows of drives at most ``infancy_days`` old."""
        return self.select(self.age_days <= infancy_days)

    def old(self, infancy_days: int = INFANCY_DAYS) -> "PredictionDataset":
        """Rows of drives older than ``infancy_days``."""
        return self.select(self.age_days > infancy_days)

    def for_model(self, model_index: int) -> "PredictionDataset":
        """Rows of one drive model."""
        return self.select(self.model == model_index)


def build_prediction_dataset(
    trace: FleetTrace | tuple[DriveDayDataset, SwapLog],
    lookahead: int = 1,
) -> PredictionDataset:
    """Build the supervised dataset for a given lookahead window ``N``.

    Post-failure limbo rows are dropped; everything else becomes one
    training/evaluation row.  Rows flagged by the quarantine repair
    policy (a ``quarantined`` column written by
    :func:`repro.reliability.repair.apply_policy`) are excluded the same
    way limbo rows are: their telemetry is untrusted, so they must feed
    neither training nor evaluation.
    """
    if isinstance(trace, FleetTrace):
        records, swaps = trace.records, trace.swaps
    else:
        records, swaps = trace
    with tracing.span(
        "repro.core.build_dataset", rows_in=len(records)
    ) as sp:
        frame: FeatureFrame = build_features(records)
        y, keep = label_dataset(records, swaps, lookahead)
        if "quarantined" in records:
            keep = keep & (np.asarray(records["quarantined"]) == 0)
        kept = frame.select_rows(keep)
        sp.set(rows_out=int(keep.sum()), n_dropped=int(len(records) - keep.sum()))
    return PredictionDataset(
        X=kept.X,
        y=y[keep],
        groups=kept.drive_id,
        age_days=kept.age_days,
        model=kept.model,
        feature_names=kept.names,
        lookahead=lookahead,
    )


@dataclass(frozen=True)
class ModelSpec:
    """One entry of the model zoo: factory plus preprocessing flags.

    Distance/margin/gradient models get log-compressed, standardized
    features (the raw counters span seven orders of magnitude); trees
    consume raw features.
    """

    name: str
    factory: Callable[[], BinaryClassifier]
    scale: bool
    log1p: bool


def default_model_zoo(seed: int = 0) -> tuple[ModelSpec, ...]:
    """The paper's six classifiers with grid-searched default settings.

    Hyperparameters follow the paper's tuning approach (regularization
    strength, tree depth, hidden-layer sizes chosen by cross-validated
    AUC); the values here are the best configurations found by
    ``benchmarks/ablations`` on the default simulated fleet.
    """
    from ..ml import (
        DecisionTreeClassifier,
        KernelSVM,
        KNeighborsClassifier,
        LogisticRegression,
        MLPClassifier,
        RandomForestClassifier,
    )

    return (
        ModelSpec(
            "Logistic Reg.",
            lambda: LogisticRegression(l2=1.0),
            scale=True,
            log1p=True,
        ),
        ModelSpec(
            "k-NN",
            lambda: KNeighborsClassifier(n_neighbors=15),
            scale=True,
            log1p=True,
        ),
        ModelSpec(
            "SVM",
            lambda: KernelSVM(
                gamma=0.05, n_components=200, lam=1e-3, random_state=seed
            ),
            scale=True,
            log1p=True,
        ),
        ModelSpec(
            "Neural Network",
            lambda: MLPClassifier(
                hidden_sizes=(32, 16), n_epochs=60, random_state=seed
            ),
            scale=True,
            log1p=True,
        ),
        ModelSpec(
            "Decision Tree",
            lambda: DecisionTreeClassifier(
                max_depth=8, min_samples_leaf=3, random_state=seed
            ),
            scale=False,
            log1p=False,
        ),
        ModelSpec(
            "Random Forest",
            lambda: RandomForestClassifier(
                n_estimators=160,
                max_depth=13,
                min_samples_leaf=2,
                random_state=seed,
            ),
            scale=False,
            log1p=False,
        ),
    )


def extended_model_zoo(seed: int = 0) -> tuple[ModelSpec, ...]:
    """The paper's six models plus post-2019 additions.

    Appends gradient boosting (the forest's modern successor) and a
    Gaussian naive-Bayes reference (the Bayesian approach of the paper's
    related work) to :func:`default_model_zoo`.
    """
    from ..ml import GaussianNB, GradientBoostingClassifier

    return (
        *default_model_zoo(seed),
        ModelSpec(
            "Gradient Boosting",
            lambda: GradientBoostingClassifier(
                n_estimators=150,
                learning_rate=0.1,
                max_depth=3,
                subsample=0.8,
                random_state=seed,
            ),
            scale=False,
            log1p=False,
        ),
        ModelSpec(
            "Naive Bayes",
            lambda: GaussianNB(),
            scale=True,
            log1p=True,
        ),
    )


def evaluate_model(
    dataset: PredictionDataset,
    spec: ModelSpec,
    n_splits: int = 5,
    downsample_ratio: float | None = 1.0,
    seed: int = 0,
    workers: int | None = None,
    policy: object | None = None,
    supervision: object | None = None,
) -> CVResult:
    """Cross-validate one model on a prediction dataset (paper protocol).

    ``workers`` spreads the CV folds over worker processes (results are
    identical for any count; the zoo's lambda factories fall back to
    serial automatically since they cannot cross a process boundary).
    ``policy``/``supervision`` route the fold fan-out through the
    supervision layer (:mod:`repro.resilience`).
    """
    from ..ml import cross_validate_auc

    with tracing.span(
        "repro.core.evaluate", rows_in=len(dataset), model=spec.name
    ):
        return cross_validate_auc(
            spec.factory,
            dataset.X,
            dataset.y,
            dataset.groups,
            n_splits=n_splits,
            downsample_ratio=downsample_ratio,
            scale=spec.scale,
            log1p=spec.log1p,
            seed=seed,
            workers=workers,
            policy=policy,
            supervision=supervision,
        )


def evaluate_model_zoo(
    dataset: PredictionDataset,
    specs: tuple[ModelSpec, ...] | None = None,
    n_splits: int = 5,
    downsample_ratio: float | None = 1.0,
    seed: int = 0,
    workers: int | None = None,
) -> dict[str, CVResult]:
    """Cross-validate every model of the zoo; one Table 6 column."""
    specs = specs or default_model_zoo(seed)
    return {
        spec.name: evaluate_model(
            dataset,
            spec,
            n_splits=n_splits,
            downsample_ratio=downsample_ratio,
            seed=seed,
            workers=workers,
        )
        for spec in specs
    }
