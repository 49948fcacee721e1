"""Synthetic SSD fleet telemetry generator.

This package stands in for the proprietary Google trace the paper analyses
(see DESIGN.md §2 for the substitution argument).  It produces a daily
performance log and a swap/repair event log whose published statistics —
error incidence (Table 1), correlation structure (Table 2), failure
incidence (Tables 3–4), repair behaviour (Table 5, Figures 4–5), bathtub
hazard (Figure 6), workload ramp (Figure 7), wear profile (Figures 8–9),
error signatures of failing drives (Figures 10–11) — match the paper's.

Entry point: :func:`simulate_fleet`.
"""

from .._lazy import lazy_exports

__all__ = [
    "MLC_A",
    "MLC_B",
    "MLC_D",
    "DriveModelSpec",
    "ErrorParams",
    "FailureSymptomParams",
    "FleetConfig",
    "LifetimeParams",
    "ObservationParams",
    "RepairParams",
    "WorkloadParams",
    "default_models",
    "paper_scale_config",
    "small_fleet_config",
    "DriveResult",
    "SwapEvent",
    "simulate_drive",
    "ErrorLatents",
    "PeriodErrors",
    "generate_errors",
    "sample_error_latents",
    "FleetTrace",
    "simulate_fleet",
    "FailureDraw",
    "FailureMode",
    "sample_failure",
    "RepairOutcome",
    "sample_inactive_stretch",
    "sample_nonoperational_days",
    "sample_repair",
    "SymptomPlan",
    "plan_symptoms",
    "DailyWorkload",
    "WorkloadLatents",
    "generate_workload",
    "intensity_profile",
    "sample_workload_latents",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".config": (
            "MLC_A",
            "MLC_B",
            "MLC_D",
            "DriveModelSpec",
            "ErrorParams",
            "FailureSymptomParams",
            "FleetConfig",
            "LifetimeParams",
            "ObservationParams",
            "RepairParams",
            "WorkloadParams",
            "default_models",
            "paper_scale_config",
            "small_fleet_config",
        ),
        ".drive": ("DriveResult", "SwapEvent", "simulate_drive"),
        ".errors": (
            "ErrorLatents",
            "PeriodErrors",
            "generate_errors",
            "sample_error_latents",
        ),
        ".fleet": ("FleetTrace", "simulate_fleet"),
        ".lifetime": ("FailureDraw", "FailureMode", "sample_failure"),
        ".repair": (
            "RepairOutcome",
            "sample_inactive_stretch",
            "sample_nonoperational_days",
            "sample_repair",
        ),
        ".symptoms": ("SymptomPlan", "plan_symptoms"),
        ".workload": (
            "DailyWorkload",
            "WorkloadLatents",
            "generate_workload",
            "intensity_profile",
            "sample_workload_latents",
        ),
    },
)
