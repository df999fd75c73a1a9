"""Failure-injection and edge-case robustness tests.

A production library must not fall over on degenerate inputs: garbage
text, single-cell files, corpora missing entire classes, absurd
dialects.  These tests drive those paths end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.strudel import (
    StrudelCellClassifier,
    StrudelLineClassifier,
    StrudelPipeline,
)
from repro.types import AnnotatedFile, CellClass, Table


@pytest.fixture(scope="module")
def pipeline(tiny_corpus):
    model = StrudelPipeline(n_estimators=8, random_state=0)
    model.fit(tiny_corpus.files[:8])
    return model


class TestDegenerateInputs:
    def test_garbage_text(self, pipeline):
        result = pipeline.analyze("@@@###$$$\n%%%^^^&&&\n!!!***(((\n")
        assert len(result.line_classes) == result.table.n_rows

    def test_single_cell_file(self, pipeline):
        result = pipeline.analyze("hello\n")
        assert len(result.line_classes) == 1
        assert result.line_classes[0] is not CellClass.EMPTY

    def test_numbers_only_file(self, pipeline):
        result = pipeline.analyze("1,2,3\n4,5,6\n7,8,9\n")
        data_lines = sum(
            1 for klass in result.line_classes if klass is CellClass.DATA
        )
        # A bare numeric block has no metadata/notes signal; at least
        # part of it must read as data (tiny training models waver on
        # the margins of a three-line file).
        assert data_lines >= 1

    def test_very_wide_single_row(self, pipeline):
        text = ",".join(str(i) for i in range(200)) + "\n"
        result = pipeline.analyze(text)
        assert result.table.n_cols == 200

    def test_file_of_blank_lines(self, pipeline):
        result = pipeline.analyze(",,,\n,,,\n,,,\n")
        # Cropping collapses the all-empty file to the 1x1 sentinel.
        assert result.table.shape == (1, 1)

    def test_unicode_content(self, pipeline):
        result = pipeline.analyze("Bericht über Umsätze\nRegion,Wert\nKöln,42\n")
        assert len(result.cell_classes) > 0

    def test_lone_surrogate_cell(self, pipeline):
        # A lone surrogate is a valid ``str`` with no UTF encoding; the
        # profile's code-point pass must not choke on it.
        result = pipeline.analyze("\ud800,1\n2,3\n")
        assert result.table.cell(0, 0) == "\ud800"
        assert len(result.line_classes) == result.table.n_rows
        assert len(result.cell_classes) == 4


class TestMissingClasses:
    def _two_class_corpus(self):
        """Files containing only header and data lines."""
        files = []
        for index in range(4):
            rows = [["col a", "col b"]] + [
                [str(10 * index + i), str(20 * index + i)] for i in range(4)
            ]
            labels = [CellClass.HEADER] + [CellClass.DATA] * 4
            cell_labels = [
                [labels[i]] * 2 for i in range(5)
            ]
            files.append(
                AnnotatedFile(
                    name=f"two_{index}",
                    table=Table(rows),
                    line_labels=labels,
                    cell_labels=cell_labels,
                )
            )
        return files

    def test_line_classifier_with_two_classes(self):
        files = self._two_class_corpus()
        model = StrudelLineClassifier(n_estimators=5, random_state=0)
        model.fit(files)
        proba = model.predict_proba(files[0].table)
        # Probability matrix stays 6-wide; absent classes get zero mass.
        assert proba.shape == (5, 6)
        assert np.allclose(proba.sum(axis=1), 1.0)
        predictions = model.predict(files[0].table)
        assert set(predictions) <= {CellClass.HEADER, CellClass.DATA}

    def test_cell_classifier_with_two_classes(self):
        files = self._two_class_corpus()
        model = StrudelCellClassifier(n_estimators=5, random_state=0)
        model.fit(files)
        predictions = model.predict(files[0].table)
        assert set(predictions.values()) <= {
            CellClass.HEADER, CellClass.DATA,
        }


class TestFeatureRobustness:
    def test_features_finite_on_pathological_tables(self):
        from repro.core.cell_features import CellFeatureExtractor
        from repro.core.line_features import LineFeatureExtractor

        pathological = [
            Table([["x"]]),
            Table([[""] * 5] * 3),
            Table([["a" * 500, "1" * 300]]),
            Table([[",", '"', "\\"]]),
            Table([[str(10**15), str(-(10**15))]] * 3),
        ]
        for table in pathological:
            line_features = LineFeatureExtractor().extract(table)
            assert np.isfinite(line_features).all()
            _, cell_features = CellFeatureExtractor().extract(table)
            assert np.isfinite(cell_features).all()

    def test_derived_detector_handles_huge_values(self):
        from repro.core.derived import DerivedDetector

        table = Table(
            [
                ["a", str(10**12)],
                ["b", str(2 * 10**12)],
                ["Total", str(3 * 10**12)],
            ]
        )
        assert (2, 1) in DerivedDetector().detect(table)
