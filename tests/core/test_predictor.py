"""Tests for the high-level FailurePredictor API."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core import FailurePredictor, build_prediction_dataset
from repro.core.pipeline import ModelSpec
from repro.ml import LogisticRegression
from repro.resilience import SupervisorPolicy
from repro.simulator import FleetConfig, simulate_fleet


@pytest.fixture(scope="module")
def tiny_trace():
    """Smallest fleet with failures among both infant and mature drives."""
    return simulate_fleet(
        FleetConfig(
            n_drives_per_model=12,
            horizon_days=300,
            deploy_spread_days=100,
            seed=21,
        )
    )


class TestFit:
    def test_fit_and_score_trace(self, medium_trace):
        pred = FailurePredictor(lookahead=1, seed=0).fit(medium_trace)
        probs = pred.predict_proba_records(medium_trace.records)
        assert probs.shape == (len(medium_trace.records),)
        assert ((probs >= 0) & (probs <= 1)).all()

    def test_invalid_lookahead(self):
        with pytest.raises(ValueError):
            FailurePredictor(lookahead=0)

    def test_unfitted_raises(self, medium_trace):
        with pytest.raises(RuntimeError):
            FailurePredictor().predict_proba_records(medium_trace.records)

    def test_scaled_spec_rejected(self, medium_trace):
        spec = ModelSpec("LR", lambda: LogisticRegression(), scale=True, log1p=True)
        with pytest.raises(ValueError, match="raw-feature"):
            FailurePredictor(model_spec=spec).fit(medium_trace)

    def test_age_partitioned_fit(self, medium_trace):
        pred = FailurePredictor(lookahead=3, age_partitioned=True, seed=0).fit(
            medium_trace
        )
        probs = pred.predict_proba_records(medium_trace.records)
        assert np.isfinite(probs).all()
        # Both partitions produce importances.
        young = pred.feature_importances_for("young")
        old = pred.feature_importances_for("old")
        assert len(young) == len(old) > 0

    def test_unknown_partition(self, medium_trace):
        pred = FailurePredictor(lookahead=1, seed=0).fit(medium_trace)
        with pytest.raises(KeyError):
            pred.feature_importances_for("young")


class TestScores:
    def test_failure_days_score_above_background(self, medium_trace):
        """In-sample sanity: positives should get much higher scores."""
        pred = FailurePredictor(lookahead=1, seed=0).fit(medium_trace)
        ds = build_prediction_dataset(medium_trace, lookahead=1)
        probs = pred.predict_proba_dataset(ds)
        assert probs[ds.y == 1].mean() > probs[ds.y == 0].mean() + 0.3

    def test_risk_report_one_row_per_drive(self, medium_trace):
        pred = FailurePredictor(lookahead=1, seed=0).fit(medium_trace)
        report = pred.risk_report(medium_trace.records)
        assert len(report.drive_id) == medium_trace.records.n_drives()
        top = report.top(5)
        assert len(top.drive_id) == 5
        assert (np.diff(top.probability) <= 0).all()

    def test_flagged_threshold(self, medium_trace):
        pred = FailurePredictor(lookahead=1, seed=0).fit(medium_trace)
        report = pred.risk_report(medium_trace.records)
        strict = report.flagged(0.95)
        loose = report.flagged(0.05)
        assert len(strict) <= len(loose)

    def test_feature_importances_sorted(self, medium_trace):
        pred = FailurePredictor(lookahead=1, seed=0).fit(medium_trace)
        imps = pred.feature_importances()
        vals = [v for _, v in imps]
        assert vals == sorted(vals, reverse=True)
        assert abs(sum(vals) - 1.0) < 1e-6


class TestCrossValidate:
    def test_cv_returns_sane_auc(self, medium_trace):
        pred = FailurePredictor(lookahead=1, seed=0)
        res = pred.cross_validate(medium_trace, n_splits=4)
        assert 0.6 < res.mean_auc <= 1.0


class TestPredictMatrix:
    def test_serial_call_keeps_no_reference_to_the_matrix(self, tiny_trace):
        pred = FailurePredictor(lookahead=7, seed=0).fit(tiny_trace)
        ds = build_prediction_dataset(tiny_trace, lookahead=7)
        X = ds.X[:50].copy()
        alive = weakref.ref(X)
        pred.predict_proba_matrix(X, ds.age_days[:50], workers=1)
        del X
        gc.collect()
        assert alive() is None

    @pytest.mark.parametrize("age_partitioned", [False, True])
    def test_serial_fanout_and_per_row_agree(self, tiny_trace, age_partitioned):
        pred = FailurePredictor(
            lookahead=7, age_partitioned=age_partitioned, seed=0
        ).fit(tiny_trace)
        ds = build_prediction_dataset(tiny_trace, lookahead=7)
        rows = np.linspace(0, len(ds) - 1, 64).astype(np.int64)
        X, ages = ds.X[rows], ds.age_days[rows]
        young = ages <= pred.infancy_days
        assert young.any() and (~young).any()
        serial = pred.predict_proba_matrix(X, ages, workers=1)
        fanout = pred.predict_proba_matrix(X, ages, workers=2)
        per_row = np.concatenate(
            [
                pred.predict_proba_matrix(X[i : i + 1], ages[i : i + 1], workers=1)
                for i in range(len(rows))
            ]
        )
        assert np.array_equal(serial, fanout)
        assert np.array_equal(serial, per_row)
        empty = pred.predict_proba_matrix(X[:0], ages[:0], workers=1)
        assert empty.shape == (0,)


class TestScoringPool:
    @pytest.mark.parametrize(
        "policy",
        [None, SupervisorPolicy(max_retries=1)],
        ids=["no-policy", "policy"],
    )
    def test_pooled_scoring_is_byte_identical(self, tiny_trace, policy):
        pred = FailurePredictor(lookahead=7, seed=3).fit(tiny_trace)
        ds = build_prediction_dataset(tiny_trace, lookahead=7)
        baseline = pred.predict_proba_matrix(ds.X, ds.age_days, workers=1)
        with pred.scoring_pool(workers=2, policy=policy) as pool:
            pooled_a = pred.predict_proba_matrix(ds.X, ds.age_days, pool=pool)
            pooled_b = pred.predict_proba_matrix(ds.X, ds.age_days, pool=pool)
        assert np.array_equal(pooled_a, baseline)
        assert np.array_equal(pooled_b, baseline)
