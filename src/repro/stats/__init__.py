"""Statistics toolkit: ECDFs, rank correlation, hazard rates, quantile bands.

Small, dependency-light estimators used throughout the characterization
sections of the reproduction (Tables 1–5, Figures 1–11).
"""

from .._lazy import lazy_exports
from .ecdf import ECDF, CensoredECDF, censored_ecdf, ecdf  # eager: also a submodule

__all__ = [
    "BootstrapResult",
    "bootstrap_ci",
    "rankdata",
    "spearman",
    "spearman_matrix",
    "ECDF",
    "CensoredECDF",
    "ecdf",
    "censored_ecdf",
    "BinnedRate",
    "binned_failure_rate",
    "exposure_from_intervals",
    "QuantileBands",
    "binned_quantiles",
    "KaplanMeier",
    "kaplan_meier",
    "KSResult",
    "ks_two_sample",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".bootstrap": ("BootstrapResult", "bootstrap_ci"),
        ".correlation": ("rankdata", "spearman", "spearman_matrix"),
        ".hazard": ("BinnedRate", "binned_failure_rate", "exposure_from_intervals"),
        ".ks": ("KSResult", "ks_two_sample"),
        ".quantiles": ("QuantileBands", "binned_quantiles"),
        ".survival": ("KaplanMeier", "kaplan_meier"),
    },
)
