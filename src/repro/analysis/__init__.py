"""Experiment harness: one function per table/figure of the paper.

``tables.tableN(trace, ...)`` and ``figures.figureN(trace, ...)`` return
structured results with ``render()`` text output; ``paper_targets`` holds
the published values each result is compared against in EXPERIMENTS.md.
"""

from .._lazy import lazy_exports
from . import paper_targets  # eager: an export that is also a submodule name

__all__ = [
    "paper_targets",
    "figure1",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "figure16",
    "ObservationReport",
    "ObservationResult",
    "check_observations",
    "ReentryAnalysis",
    "analyze_reentry",
    "operational_periods",
    "value_at_failure",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".figures": (
            "figure1",
            "figure3",
            "figure4",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
            "figure11",
            "figure12",
            "figure13",
            "figure14",
            "figure15",
            "figure16",
        ),
        ".observations": ("ObservationReport", "ObservationResult", "check_observations"),
        ".reentry": ("ReentryAnalysis", "analyze_reentry"),
        ".support": ("operational_periods", "value_at_failure"),
        ".tables": (
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "table7",
            "table8",
        ),
    },
)
