"""Tests for the Strudel classifiers and pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.strudel import (
    LineToCellBaseline,
    StrudelCellClassifier,
    StrudelLineClassifier,
    StrudelPipeline,
)
from repro.errors import InvalidParameterError, NotFittedError
from repro.io.writer import write_csv_text
from repro.ml.forest import RandomForestClassifier
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.types import CellClass, Table


@pytest.fixture(scope="module")
def fitted_line(train_test_files_module):
    train, _ = train_test_files_module
    return StrudelLineClassifier(n_estimators=15, random_state=0).fit(train)


@pytest.fixture(scope="module")
def train_test_files_module(tiny_corpus):
    files = tiny_corpus.files
    cut = max(1, int(0.8 * len(files)))
    return files[:cut], files[cut:]


class TestStrudelLine:
    def test_predict_before_fit_raises(self, verbose_table):
        with pytest.raises(NotFittedError):
            StrudelLineClassifier().predict(verbose_table)

    def test_probability_matrix_shape(self, fitted_line, verbose_table):
        proba = fitted_line.predict_proba(verbose_table)
        assert proba.shape == (verbose_table.n_rows, 6)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_empty_lines_predicted_empty(self, fitted_line, verbose_table):
        predictions = fitted_line.predict(verbose_table)
        assert predictions[1] is CellClass.EMPTY
        assert predictions[6] is CellClass.EMPTY

    def test_learns_obvious_structure(
        self, fitted_line, train_test_files_module
    ):
        _, test = train_test_files_module
        hits = total = 0
        for annotated in test:
            predictions = fitted_line.predict(annotated.table)
            for i in annotated.non_empty_line_indices():
                hits += predictions[i] is annotated.line_labels[i]
                total += 1
        assert hits / total > 0.8

    def test_feature_subset(self, train_test_files_module):
        train, _ = train_test_files_module
        model = StrudelLineClassifier(
            n_estimators=5,
            random_state=0,
            feature_subset=("empty_cell_ratio", "line_position"),
        ).fit(train)
        table = train[0].table
        assert model.predict_proba(table).shape == (table.n_rows, 6)

    def test_unknown_feature_subset_raises(self, train_test_files_module):
        train, _ = train_test_files_module
        model = StrudelLineClassifier(feature_subset=("nope",))
        with pytest.raises(InvalidParameterError):
            model.fit(train)

    def test_custom_backbone(self, train_test_files_module):
        train, _ = train_test_files_module
        model = StrudelLineClassifier(
            classifier_factory=GaussianNaiveBayes
        ).fit(train)
        assert isinstance(model._model, GaussianNaiveBayes)


class TestStrudelCell:
    def test_end_to_end(self, train_test_files_module):
        train, test = train_test_files_module
        model = StrudelCellClassifier(
            n_estimators=15, random_state=0
        ).fit(train)
        hits = total = 0
        for annotated in test:
            predictions = model.predict(annotated.table)
            for i, j, truth in annotated.non_empty_cell_items():
                hits += predictions[(i, j)] is truth
                total += 1
        assert hits / total > 0.8

    def test_prediction_covers_exactly_non_empty_cells(
        self, train_test_files_module, verbose_table
    ):
        train, _ = train_test_files_module
        model = StrudelCellClassifier(
            n_estimators=5, random_state=0
        ).fit(train)
        predictions = model.predict(verbose_table)
        expected = {
            (c.row, c.col) for c in verbose_table.non_empty_cells()
        }
        assert set(predictions) == expected

    def test_shares_prefitted_line_classifier(
        self, fitted_line, train_test_files_module
    ):
        train, _ = train_test_files_module
        model = StrudelCellClassifier(
            line_classifier=fitted_line, n_estimators=5, random_state=0
        )
        model.fit(train)
        assert model.line_classifier is fitted_line
        assert not model._line_fitted_here

    def test_predict_before_fit_raises(self, verbose_table):
        with pytest.raises(NotFittedError):
            StrudelCellClassifier().predict(verbose_table)


class TestForestBackbone:
    """Without a ``classifier_factory`` each classifier builds its own
    random forest from its configuration; both share one base."""

    def test_default_backbone_carries_the_configuration(
        self, train_test_files_module
    ):
        train, _ = train_test_files_module
        line = StrudelLineClassifier(
            n_estimators=4, random_state=7, n_jobs=1
        )
        cell = StrudelCellClassifier(
            line_classifier=line, n_estimators=3, random_state=5, n_jobs=2
        ).fit(train)
        for model, trees, seed, jobs in ((line, 4, 7, 1), (cell, 3, 5, 2)):
            assert type(model._model) is RandomForestClassifier
            assert len(model._model.estimators_) == trees
            assert (
                model._model.n_estimators,
                model._model.random_state,
                model._model.n_jobs,
            ) == (trees, seed, jobs)

    @pytest.mark.parametrize(
        "cls, granularity",
        [(StrudelLineClassifier, "line"), (StrudelCellClassifier, "cell")],
    )
    def test_shared_base_messages(
        self, cls, granularity, train_test_files_module, verbose_table
    ):
        train, _ = train_test_files_module
        with pytest.raises(
            NotFittedError, match=f"^{cls.__name__} must be fitted first$"
        ):
            cls().predict(verbose_table)
        model = cls(n_estimators=2, feature_subset=("nope", "nada"))
        with pytest.raises(InvalidParameterError) as raised:
            model.fit(train)
        assert str(raised.value) == (
            f"unknown {granularity} features: ['nope', 'nada']"
        )


class TestLineToCellBaseline:
    def test_extends_line_labels(self, fitted_line, verbose_table):
        baseline = LineToCellBaseline(fitted_line)
        line_labels = fitted_line.predict(verbose_table)
        predictions = baseline.predict(verbose_table)
        for (i, j), klass in predictions.items():
            assert klass is line_labels[i]

    def test_fit_is_idempotent_on_fitted_classifier(self, fitted_line):
        baseline = LineToCellBaseline(fitted_line)
        model_before = fitted_line._model
        baseline.fit([])
        assert fitted_line._model is model_before


class TestPipeline:
    def test_analyze_text_end_to_end(self, train_test_files_module):
        train, test = train_test_files_module
        pipeline = StrudelPipeline(n_estimators=10, random_state=0)
        pipeline.fit(train)
        text = write_csv_text(test[0].table.rows())
        result = pipeline.analyze(text)
        assert result.dialect.delimiter == ","
        assert len(result.line_classes) == result.table.n_rows
        assert set(result.cell_classes) == {
            (c.row, c.col) for c in result.table.non_empty_cells()
        }

    def test_analyze_detects_semicolon_dialect(
        self, train_test_files_module
    ):
        train, test = train_test_files_module
        pipeline = StrudelPipeline(n_estimators=5, random_state=0)
        pipeline.fit(train)
        from repro.dialect.dialect import Dialect

        text = write_csv_text(
            test[0].table.rows(), Dialect(delimiter=";")
        )
        result = pipeline.analyze(text)
        assert result.dialect.delimiter == ";"

    def test_analyze_table_skips_dialect(self, train_test_files_module):
        train, _ = train_test_files_module
        pipeline = StrudelPipeline(n_estimators=5, random_state=0)
        pipeline.fit(train)
        table = Table([["Title", ""], ["a", "1"], ["b", "2"]])
        result = pipeline.analyze_table(table)
        assert len(result.line_classes) == 3
