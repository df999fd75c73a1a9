"""Fast unit tests for the Markdown rendering helpers."""

from __future__ import annotations

import numpy as np

from repro.eval.markdown import _paper_cells, confusion_block, f1_table
from repro.eval.runner import ClassificationScores
from repro.types import CONTENT_CLASSES, CellClass


def _scores():
    return ClassificationScores.from_predictions(
        [CellClass.DATA, CellClass.NOTES],
        [CellClass.DATA, CellClass.DATA],
    )


class TestF1Table:
    def test_measured_and_paper_rows(self):
        lines = f1_table(
            {"Strudel-L": _scores()},
            {"Strudel-L": {"metadata": 0.9, "macro_avg": 0.8,
                           "accuracy": 0.95, "derived": None}},
        )
        assert lines[0].startswith("| algorithm |")
        assert any("(ours)" in line for line in lines)
        assert any("(paper)" in line for line in lines)
        # None paper values render as an em dash.
        paper_row = next(line for line in lines if "(paper)" in line)
        assert "—" in paper_row

    def test_no_paper_reference(self):
        lines = f1_table({"X": _scores()}, None)
        assert not any("(paper)" in line for line in lines)

    def test_missing_class_renders_dash(self):
        labels = tuple(
            c for c in CONTENT_CLASSES if c is not CellClass.DERIVED
        )
        scores = ClassificationScores.from_predictions(
            [CellClass.DATA], [CellClass.DATA], labels=labels
        )
        lines = f1_table({"Pytheas-L": scores}, None)
        ours_row = next(line for line in lines if "(ours)" in line)
        assert "—" in ours_row


class TestPaperCells:
    def test_order_and_fallbacks(self):
        cells = _paper_cells({"metadata": 0.5})
        assert cells[0] == "0.500"
        assert cells[1:] == ["—"] * 7


class TestConfusionBlock:
    def test_identity_matrix(self):
        lines = confusion_block(np.eye(6))
        assert len(lines) == 8  # header + rule + 6 rows
        assert "1.000" in lines[2]
        assert lines[2].startswith("| metadata |")
