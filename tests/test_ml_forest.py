"""Tests for the random forest (:mod:`repro.ml.forest`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidParameterError, NotFittedError
from repro.ml.forest import RandomForestClassifier
from tests.test_compiled_parity import per_tree_predict_proba


def _data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int) + (X[:, 2] > 1.2)
    return X, y.astype(int)


class TestForest:
    def test_learns_signal(self):
        X, y = _data()
        forest = RandomForestClassifier(
            n_estimators=25, random_state=0
        ).fit(X, y)
        assert (forest.predict(X) == y).mean() > 0.95

    def test_probabilities_sum_to_one(self):
        X, y = _data()
        forest = RandomForestClassifier(
            n_estimators=10, random_state=0
        ).fit(X, y)
        proba = forest.predict_proba(X[:20])
        assert proba.shape == (20, len(forest.classes_))
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_seed_determinism(self):
        X, y = _data()
        a = RandomForestClassifier(n_estimators=8, random_state=3).fit(X, y)
        b = RandomForestClassifier(n_estimators=8, random_state=3).fit(X, y)
        assert np.allclose(a.predict_proba(X), b.predict_proba(X))

    def test_different_seeds_differ(self):
        X, y = _data()
        a = RandomForestClassifier(n_estimators=8, random_state=1).fit(X, y)
        b = RandomForestClassifier(n_estimators=8, random_state=2).fit(X, y)
        assert not np.allclose(a.predict_proba(X), b.predict_proba(X))

    def test_no_bootstrap_mode(self):
        X, y = _data(n=100)
        forest = RandomForestClassifier(
            n_estimators=5, bootstrap=False, max_features=None,
            random_state=0,
        ).fit(X, y)
        # Without bootstrap or feature sampling all trees are equal, and
        # an unconstrained tree fits the training data perfectly.
        assert (forest.predict(X) == y).mean() == 1.0

    def test_rare_class_probability_alignment(self):
        # One class is so rare that many bootstraps miss it entirely;
        # the forest must still emit aligned 3-column probabilities.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 3))
        y = np.array([0] * 30 + [1] * 28 + [2] * 2)
        forest = RandomForestClassifier(
            n_estimators=12, random_state=0
        ).fit(X, y)
        proba = forest.predict_proba(X)
        assert proba.shape == (60, 3)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            RandomForestClassifier(n_estimators=0)
        with pytest.raises(NotFittedError):
            RandomForestClassifier().predict(np.zeros((1, 2)))

    def test_compiled_and_legacy_paths_agree(self):
        X, y = _data()
        forest = RandomForestClassifier(
            n_estimators=10, random_state=0
        ).fit(X, y)
        assert forest.predict_proba(X).tobytes() == (
            per_tree_predict_proba(forest, X).tobytes()
        )

    def test_ensemble_smoother_than_single_tree(self):
        """Forest probabilities take intermediate values, unlike a
        lone unconstrained tree whose leaves are pure."""
        X, y = _data()
        forest = RandomForestClassifier(
            n_estimators=30, random_state=0
        ).fit(X, y)
        proba = forest.predict_proba(X)
        intermediate = ((proba > 0.05) & (proba < 0.95)).any()
        assert bool(intermediate)


class TestFeatureImportances:
    def test_signal_feature_dominates(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(400, 4))
        y = (X[:, 1] > 0).astype(int)  # only feature 1 matters
        forest = RandomForestClassifier(
            n_estimators=10, random_state=0
        ).fit(X, y)
        importances = forest.feature_importances_
        assert np.argmax(importances) == 1
        assert importances[1] > 0.5

    def test_importances_normalized(self):
        X, y = _data()
        forest = RandomForestClassifier(
            n_estimators=5, random_state=0
        ).fit(X, y)
        importances = forest.feature_importances_
        assert importances.min() >= 0.0
        assert importances.sum() == pytest.approx(1.0)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            RandomForestClassifier().feature_importances_
