"""The paper's primary contribution: SSD failure prediction & interpretation.

- :mod:`repro.core.features` — daily + cumulative feature extraction;
- :mod:`repro.core.labeling` — failure pinpointing and lookahead labels;
- :mod:`repro.core.pipeline` — dataset building, model zoo, CV evaluation;
- :mod:`repro.core.predictor` — high-level :class:`FailurePredictor` API
  with optional infant/mature age partitioning (Section 5.3);
- :mod:`repro.core.error_prediction` — per-error-type prediction (Table 8);
- :mod:`repro.core.interpret` — feature-importance reporting (Figure 16).
"""

from .._lazy import lazy_exports

__all__ = [
    "DEFAULT_HEURISTIC_WEIGHTS",
    "HeuristicRiskScore",
    "SingleFeatureThreshold",
    "DriftReport",
    "FeatureDrift",
    "feature_drift_report",
    "ERROR_PREDICTION_TARGETS",
    "error_event_labels",
    "DAILY_FEATURE_SOURCES",
    "FeatureFrame",
    "assemble_features",
    "build_features",
    "daily_matrix",
    "feature_names",
    "feature_schema_hash",
    "ImportanceReport",
    "compare_importances",
    "importance_report",
    "label_dataset",
    "lookahead_labels",
    "operational_mask",
    "INFANCY_DAYS",
    "ModelSpec",
    "PredictionDataset",
    "build_prediction_dataset",
    "default_model_zoo",
    "extended_model_zoo",
    "evaluate_model",
    "evaluate_model_zoo",
    "DriveRiskReport",
    "FailurePredictor",
    "ThresholdChoice",
    "expected_cost_curve",
    "select_threshold",
    "build_windowed_features",
    "rolling_window_sums",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".baselines": (
            "DEFAULT_HEURISTIC_WEIGHTS",
            "HeuristicRiskScore",
            "SingleFeatureThreshold",
        ),
        ".drift": ("DriftReport", "FeatureDrift", "feature_drift_report"),
        ".error_prediction": ("ERROR_PREDICTION_TARGETS", "error_event_labels"),
        ".features": (
            "DAILY_FEATURE_SOURCES",
            "FeatureFrame",
            "assemble_features",
            "build_features",
            "daily_matrix",
            "feature_names",
            "feature_schema_hash",
        ),
        ".interpret": ("ImportanceReport", "compare_importances", "importance_report"),
        ".labeling": ("label_dataset", "lookahead_labels", "operational_mask"),
        ".pipeline": (
            "INFANCY_DAYS",
            "ModelSpec",
            "PredictionDataset",
            "build_prediction_dataset",
            "default_model_zoo",
            "evaluate_model",
            "extended_model_zoo",
            "evaluate_model_zoo",
        ),
        ".policy": ("ThresholdChoice", "expected_cost_curve", "select_threshold"),
        ".predictor": ("DriveRiskReport", "FailurePredictor"),
        ".windows": ("build_windowed_features", "rolling_window_sums"),
    },
)
