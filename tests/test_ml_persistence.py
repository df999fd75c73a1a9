"""Tests for pickle-free model persistence."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.strudel import StrudelCellClassifier, StrudelLineClassifier
from repro.errors import NotFittedError
from repro.ml.forest import RandomForestClassifier
from repro.ml.persistence import (
    PersistenceError,
    load_cell_classifier,
    load_forest,
    load_line_classifier,
    save_cell_classifier,
    save_forest,
    save_line_classifier,
)
from tests.test_compiled_parity import per_tree_predict_proba


@pytest.fixture(scope="module")
def training_data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 4))
    y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 1)
    return X, y


class TestForestPersistence:
    def test_round_trip_predictions_identical(self, tmp_path, training_data):
        X, y = training_data
        forest = RandomForestClassifier(
            n_estimators=7, random_state=0
        ).fit(X, y)
        save_forest(forest, tmp_path / "model")
        restored = load_forest(tmp_path / "model")
        assert np.allclose(
            forest.predict_proba(X), restored.predict_proba(X)
        )
        assert np.array_equal(forest.classes_, restored.classes_)

    def test_round_trip_is_byte_identical(self, tmp_path, training_data):
        X, y = training_data
        forest = RandomForestClassifier(
            n_estimators=7, random_state=0
        ).fit(X, y)
        save_forest(forest, tmp_path / "model")
        restored = load_forest(tmp_path / "model")
        assert restored.predict_proba(X).tobytes() == (
            forest.predict_proba(X).tobytes()
        )

    def test_version_2_bundle_is_predict_ready(
        self, tmp_path, training_data
    ):
        # A v2 load hands the tensors straight to CompiledForest: no
        # compile pass should run on first predict.
        X, y = training_data
        forest = RandomForestClassifier(
            n_estimators=5, random_state=0
        ).fit(X, y)
        save_forest(forest, tmp_path / "model")
        manifest = json.loads(
            (tmp_path / "model" / "manifest.json").read_text()
        )
        assert manifest["format_version"] == 2
        restored = load_forest(tmp_path / "model")
        assert restored._compiled is not None
        # estimators_ are decompiled back, so the per-tree oracle and
        # feature importances still work on a loaded model.
        assert len(restored.estimators_) == 5
        assert per_tree_predict_proba(restored, X).tobytes() == (
            per_tree_predict_proba(forest, X).tobytes()
        )

    def test_bundle_with_listed_arrays_loads_byte_identical(
        self, tmp_path, training_data
    ):
        # A bundle whose writer names each of the nine arrays, as
        # existing version-2 bundles were written, loads to the same
        # predictions.
        X, y = training_data
        forest = RandomForestClassifier(
            n_estimators=7, random_state=0
        ).fit(X, y)
        save_forest(forest, tmp_path / "model")
        compiled = forest.compile()
        np.savez_compressed(
            tmp_path / "model" / "arrays.npz",
            classes=compiled.classes_,
            feature=compiled._feature,
            threshold=compiled._threshold,
            left=compiled._left,
            right=compiled._right,
            proba=compiled._proba,
            roots=compiled._roots,
            tree_classes=compiled._tree_classes,
            tree_class_offsets=compiled._tree_class_offsets,
        )
        restored = load_forest(tmp_path / "model")
        assert restored.predict_proba(X).tobytes() == (
            forest.predict_proba(X).tobytes()
        )
        assert restored.compile().tensors.keys() == compiled.tensors.keys()

    def test_version_2_missing_array_rejected(
        self, tmp_path, training_data
    ):
        X, y = training_data
        forest = RandomForestClassifier(
            n_estimators=2, random_state=0
        ).fit(X, y)
        save_forest(forest, tmp_path / "model")
        archive = tmp_path / "model" / "arrays.npz"
        arrays = dict(np.load(archive, allow_pickle=False))
        del arrays["roots"]
        np.savez_compressed(archive, **arrays)
        with pytest.raises(PersistenceError, match="missing"):
            load_forest(tmp_path / "model")

    def test_tree_count_mismatch_rejected(self, tmp_path, training_data):
        X, y = training_data
        forest = RandomForestClassifier(
            n_estimators=2, random_state=0
        ).fit(X, y)
        save_forest(forest, tmp_path / "model")
        manifest_path = tmp_path / "model" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["n_estimators"] = 5
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="tensors pack"):
            load_forest(tmp_path / "model")

    def test_unfitted_forest_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_forest(RandomForestClassifier(), tmp_path / "x")

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_forest(tmp_path / "nothing")

    def test_kind_mismatch_rejected(self, tmp_path, training_data):
        X, y = training_data
        forest = RandomForestClassifier(
            n_estimators=2, random_state=0
        ).fit(X, y)
        save_forest(forest, tmp_path / "model")
        with pytest.raises(PersistenceError):
            load_line_classifier(tmp_path / "model")

    def test_bad_version_rejected(self, tmp_path, training_data):
        # Only the current format loads: the retired per-tree layout
        # (version 1) is rejected like any unknown version.
        X, y = training_data
        forest = RandomForestClassifier(
            n_estimators=2, random_state=0
        ).fit(X, y)
        save_forest(forest, tmp_path / "model")
        manifest_path = tmp_path / "model" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for version in (1, 999):
            manifest["format_version"] = version
            manifest_path.write_text(json.dumps(manifest))
            with pytest.raises(PersistenceError, match="unsupported"):
                load_forest(tmp_path / "model")


class TestStrudelPersistence:
    def test_line_classifier_round_trip(self, tmp_path, train_test_files):
        train, test = train_test_files
        model = StrudelLineClassifier(n_estimators=6, random_state=0)
        model.fit(train)
        save_line_classifier(model, tmp_path / "line")
        restored = load_line_classifier(tmp_path / "line")
        for annotated in test[:2]:
            assert np.allclose(
                model.predict_proba(annotated.table),
                restored.predict_proba(annotated.table),
            )
            assert model.predict(annotated.table) == restored.predict(
                annotated.table
            )

    def test_cell_classifier_round_trip(self, tmp_path, train_test_files):
        train, test = train_test_files
        model = StrudelCellClassifier(n_estimators=6, random_state=0)
        model.fit(train)
        save_cell_classifier(model, tmp_path / "cell")
        restored = load_cell_classifier(tmp_path / "cell")
        annotated = test[0]
        assert model.predict(annotated.table) == restored.predict(
            annotated.table
        )

    def test_feature_subset_survives(self, tmp_path, train_test_files):
        train, _ = train_test_files
        subset = ("empty_cell_ratio", "line_position", "derived_coverage")
        model = StrudelLineClassifier(
            n_estimators=4, random_state=0, feature_subset=subset
        )
        model.fit(train)
        save_line_classifier(model, tmp_path / "line")
        restored = load_line_classifier(tmp_path / "line")
        assert restored.feature_subset == subset

    def test_detector_config_survives(self, tmp_path, train_test_files):
        from repro.core.derived import DerivedDetector
        from repro.core.line_features import LineFeatureExtractor

        train, _ = train_test_files
        detector = DerivedDetector(delta=0.5, coverage=0.8,
                                   anchor_mode="exhaustive")
        model = StrudelLineClassifier(
            extractor=LineFeatureExtractor(detector=detector),
            n_estimators=4,
            random_state=0,
        )
        model.fit(train)
        save_line_classifier(model, tmp_path / "line")
        restored = load_line_classifier(tmp_path / "line")
        assert restored.extractor.detector.delta == 0.5
        assert restored.extractor.detector.anchor_mode == "exhaustive"

    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_line_classifier(StrudelLineClassifier(), tmp_path / "x")
        with pytest.raises(NotFittedError):
            save_cell_classifier(StrudelCellClassifier(), tmp_path / "x")
