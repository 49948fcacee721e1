"""repro — reproduction of *SSD Failures in the Field: Symptoms, Causes,
and Prediction Models* (Alter, Xue, Dimnaku, Smirni; SC '19).

Layered architecture (see DESIGN.md):

- :mod:`repro.data` — drive-day telemetry schema and columnar containers;
- :mod:`repro.simulator` — synthetic fleet generator standing in for the
  proprietary Google trace;
- :mod:`repro.stats` — ECDFs, hazard rates, rank correlation;
- :mod:`repro.ml` — from-scratch classifiers, metrics, cross-validation;
- :mod:`repro.core` — the failure-prediction pipeline and high-level API;
- :mod:`repro.analysis` — one function per paper table/figure.

Quickstart::

    from repro.simulator import simulate_fleet, small_fleet_config
    from repro.core import FailurePredictor

    trace = simulate_fleet(small_fleet_config(seed=7))
    predictor = FailurePredictor(lookahead=1).fit(trace)
    report = predictor.risk_report(trace.records)
    print(report.top(5))
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = ["FailurePredictor", "FleetConfig", "simulate_fleet", "__version__"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".core": ("FailurePredictor",),
        ".simulator": ("FleetConfig", "simulate_fleet"),
    },
)
