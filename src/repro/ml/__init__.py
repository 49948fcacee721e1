"""From-scratch machine-learning substrate.

scikit-learn is unavailable in this environment, so the six classifiers the
paper compares (Table 6) — logistic regression, k-NN, SVM, neural network,
decision tree, random forest — plus metrics, preprocessing and grouped
cross-validation are implemented here on plain NumPy.  Each algorithm
follows its canonical formulation and is unit/property-tested in
``tests/ml``.
"""

from .._lazy import lazy_exports

__all__ = [
    "BinaryClassifier",
    "check_X",
    "check_Xy",
    "GradientBoostingClassifier",
    "ReliabilityCurve",
    "brier_score",
    "expected_calibration_error",
    "reliability_curve",
    "average_precision_score",
    "precision_recall_curve",
    "RandomForestClassifier",
    "LogisticRegression",
    "sigmoid",
    "ConfusionCounts",
    "confusion_at_threshold",
    "f1_score",
    "false_positive_rate",
    "precision_score",
    "roc_auc_score",
    "roc_curve",
    "true_positive_rate",
    "CVResult",
    "GridSearchResult",
    "cross_validate_auc",
    "grid_search",
    "parameter_grid",
    "GaussianNB",
    "KNeighborsClassifier",
    "permutation_importance",
    "MLPClassifier",
    "Log1pTransformer",
    "StandardScaler",
    "KernelSVM",
    "LinearSVM",
    "RBFSampler",
    "DecisionTreeClassifier",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".base": ("BinaryClassifier", "check_X", "check_Xy"),
        ".boosting": ("GradientBoostingClassifier",),
        ".calibration": (
            "ReliabilityCurve",
            "brier_score",
            "expected_calibration_error",
            "reliability_curve",
        ),
        ".forest": ("RandomForestClassifier",),
        ".linear": ("LogisticRegression", "sigmoid"),
        ".metrics": (
            "ConfusionCounts",
            "confusion_at_threshold",
            "f1_score",
            "false_positive_rate",
            "precision_score",
            "roc_auc_score",
            "roc_curve",
            "true_positive_rate",
        ),
        ".model_selection": (
            "CVResult",
            "GridSearchResult",
            "cross_validate_auc",
            "grid_search",
            "parameter_grid",
        ),
        ".naive_bayes": ("GaussianNB",),
        ".neighbors": ("KNeighborsClassifier",),
        ".permutation": ("permutation_importance",),
        ".neural": ("MLPClassifier",),
        ".pr": ("average_precision_score", "precision_recall_curve"),
        ".preprocessing": ("Log1pTransformer", "StandardScaler"),
        ".svm": ("KernelSVM", "LinearSVM", "RBFSampler"),
        ".tree": ("DecisionTreeClassifier",),
    },
)
