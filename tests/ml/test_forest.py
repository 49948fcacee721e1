"""Tests for the random forest ensemble."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml import DecisionTreeClassifier, RandomForestClassifier, roc_auc_score
from repro.ml.forest import _PREDICT_CHUNK_ROWS


def _noisy_nonlinear(rng, n=800):
    X = rng.normal(size=(n, 5))
    logit = 2.0 * ((X[:, 0] > 0) & (X[:, 1] > 0)) + X[:, 2]
    p = 1 / (1 + np.exp(-logit + 0.5))
    y = (rng.random(n) < p).astype(int)
    return X, y


class TestForest:
    def test_validation(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict_proba(np.zeros((1, 2)))

    def test_proba_bounds_and_shape(self, rng):
        X, y = _noisy_nonlinear(rng)
        rf = RandomForestClassifier(20, max_depth=5, random_state=0).fit(X, y)
        p = rf.predict_proba(X[:100])
        assert p.shape == (100,)
        assert ((p >= 0) & (p <= 1)).all()

    def test_deterministic_given_seed(self, rng):
        X, y = _noisy_nonlinear(rng, n=300)
        a = RandomForestClassifier(10, max_depth=4, random_state=7).fit(X, y)
        b = RandomForestClassifier(10, max_depth=4, random_state=7).fit(X, y)
        assert np.allclose(a.predict_proba(X), b.predict_proba(X))

    def test_seeds_differ(self, rng):
        X, y = _noisy_nonlinear(rng, n=300)
        a = RandomForestClassifier(10, max_depth=4, random_state=1).fit(X, y)
        b = RandomForestClassifier(10, max_depth=4, random_state=2).fit(X, y)
        assert not np.allclose(a.predict_proba(X), b.predict_proba(X))

    def test_beats_single_tree_generalization(self, rng):
        Xtr, ytr = _noisy_nonlinear(rng, n=600)
        Xte, yte = _noisy_nonlinear(rng, n=600)
        tree = DecisionTreeClassifier(max_depth=None, random_state=0).fit(Xtr, ytr)
        rf = RandomForestClassifier(60, max_depth=None, random_state=0).fit(Xtr, ytr)
        auc_tree = roc_auc_score(yte, tree.predict_proba(Xte))
        auc_rf = roc_auc_score(yte, rf.predict_proba(Xte))
        assert auc_rf >= auc_tree - 0.01  # typically strictly better

    def test_ensemble_average_of_trees(self, rng):
        """Bit-identical to the fit-order loop over trees, chunk tails too."""
        X, y = _noisy_nonlinear(rng, n=200)
        # Unbounded depth mixes tree depths, so the deepest-first walk order
        # differs from fit order; min_samples_leaf > 1 leaves fractional
        # leaf frequencies, whose float64 sum depends on summation order.
        rf = RandomForestClassifier(
            12, max_depth=None, min_samples_leaf=5, random_state=0
        ).fit(X, y)
        depths = [t.max_depth_ for t in rf.trees_]
        assert depths != sorted(depths, reverse=True)
        c = _PREDICT_CHUNK_ROWS
        for n_rows in (1, c - 1, c, c + 1, 2 * c + 7):
            Xp = rng.normal(size=(n_rows, X.shape[1]))
            manual = np.zeros(n_rows)
            for t in rf.trees_:
                manual += t.predict_proba(Xp)
            manual /= len(rf.trees_)
            assert np.array_equal(rf.predict_proba(Xp), manual), n_rows

    def test_importances_normalized_and_informative(self, rng):
        X = rng.normal(size=(600, 6))
        y = (X[:, 3] > 0).astype(int)
        rf = RandomForestClassifier(40, max_depth=4, random_state=0).fit(X, y)
        assert rf.feature_importances_.sum() == pytest.approx(1.0)
        assert np.argmax(rf.feature_importances_) == 3

    def test_no_bootstrap_mode(self, rng):
        X, y = _noisy_nonlinear(rng, n=200)
        rf = RandomForestClassifier(
            5, max_depth=3, bootstrap=False, random_state=0
        ).fit(X, y)
        assert len(rf.trees_) == 5

    def test_tiny_training_set_with_degenerate_resamples(self):
        # 3 samples: bootstrap will often draw single-class resamples; the
        # fallback must keep the ensemble valid.
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 1, 1])
        rf = RandomForestClassifier(30, random_state=0).fit(X, y)
        p = rf.predict_proba(X)
        assert ((p >= 0) & (p <= 1)).all()
