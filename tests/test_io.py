"""Tests for CSV I/O: reader, writer, cropping, annotations."""

from __future__ import annotations

import pytest

from repro.dialect.dialect import Dialect
from repro.errors import AnnotationError
from repro.io.annotations import (
    annotated_file_from_dict,
    annotated_file_to_dict,
    load_annotated_file,
    load_corpus,
    save_annotated_file,
    save_corpus,
)
from repro.io.cropping import _crop_bounds, crop_annotated_file, crop_table
from repro.io.reader import read_table, read_table_text
from repro.io.writer import write_csv_text, write_table
from repro.types import AnnotatedFile, CellClass, Corpus, Table


class TestReader:
    def test_read_with_detection(self):
        table = read_table_text("a;b\n1;2\n3;4\n")
        assert table.shape == (3, 2)
        assert table.cell(1, 1) == "2"

    def test_read_with_explicit_dialect(self):
        table = read_table_text("a|b\n", Dialect(delimiter="|"))
        assert table.row(0) == ["a", "b"]

    def test_read_pads_ragged_rows(self):
        table = read_table_text("a,b,c\nd\n", Dialect.standard())
        assert table.shape == (2, 3)
        assert table.row(1) == ["d", "", ""]

    def test_read_file_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        original = Table([["a", "b"], ["1", "2"]])
        write_table(original, path)
        assert read_table(path, Dialect.standard()) == original


class TestWriter:
    def test_quotes_delimiter(self):
        text = write_csv_text([["a,b", "c"]])
        assert text == '"a,b",c\n'

    def test_quotes_embedded_quote(self):
        text = write_csv_text([['say "hi"']])
        assert text == '"say ""hi"""\n'

    def test_no_quote_dialect_replaces_specials(self):
        dialect = Dialect(delimiter=",", quotechar="")
        text = write_csv_text([["a,b"]], dialect)
        assert "," not in text.strip().replace("\n", "")

    def test_escape_dialect(self):
        dialect = Dialect(delimiter=",", quotechar="", escapechar="\\")
        assert write_csv_text([["a,b"]], dialect) == "a\\,b\n"

    def test_empty_rows(self):
        assert write_csv_text([]) == ""


def legacy_crop_table(table: Table) -> Table:
    """``crop_table`` before it returned a margin-free table as it is:
    always a new table, copied row by row."""
    row_start, row_stop, col_start, col_stop = _crop_bounds(table)
    if row_start == row_stop or col_start == col_stop:
        return Table([[""]])
    rows = [
        table.row(i)[col_start:col_stop] for i in range(row_start, row_stop)
    ]
    return Table(rows)


class TestCropping:
    def test_crops_marginal_empties(self):
        table = Table(
            [
                ["", "", ""],
                ["", "a", "b"],
                ["", "", ""],
                ["", "c", ""],
                ["", "", ""],
            ]
        )
        cropped = crop_table(table)
        assert cropped.shape == (3, 2)
        assert cropped.cell(0, 0) == "a"
        # Interior empty row is preserved as a separator.
        assert cropped.is_empty_row(1)

    def test_fully_empty_table(self):
        assert crop_table(Table([["", ""], ["", ""]])).shape == (1, 1)

    def test_no_crop_needed(self):
        table = Table([["a", "b"], ["c", "d"]])
        assert crop_table(table) == table

    def test_a_table_without_margins_is_returned_as_it_is(self):
        table = Table([["a", ""], ["", ""], ["", "d"]])
        assert crop_table(table) is table

    def test_cropped_tables_match_the_copying_crop(self):
        """Every parity table, as it is and inside empty margins, crops
        to the rows the copying crop gave."""
        from tests.test_profile_parity import ALL_TABLES

        for name, table in ALL_TABLES:
            width = table.n_cols + 2
            framed = Table(
                [[""] * width]
                + [["", *row, ""] for row in table.rows()]
                + [[""] * width]
            )
            for variant in (table, framed):
                got = crop_table(variant)
                want = legacy_crop_table(variant)
                assert got.shape == want.shape, name
                assert list(got.rows()) == list(want.rows()), name

    def test_crop_annotated_file_consistency(self, verbose_file):
        width = verbose_file.table.n_cols + 1
        padded = AnnotatedFile(
            name="padded",
            table=Table(
                [[""] * width]
                + [["", *row] for row in verbose_file.table.rows()]
            ),
            line_labels=[CellClass.EMPTY] + list(verbose_file.line_labels),
            cell_labels=[[CellClass.EMPTY] * width]
            + [
                [CellClass.EMPTY, *row]
                for row in verbose_file.cell_labels
            ],
        )
        cropped = crop_annotated_file(padded)
        assert cropped.table == verbose_file.table
        assert cropped.line_labels == verbose_file.line_labels
        assert cropped.cell_labels == verbose_file.cell_labels

    def test_crop_annotated_fully_empty(self):
        annotated = AnnotatedFile(
            name="empty",
            table=Table([["", ""]]),
            line_labels=[CellClass.EMPTY],
            cell_labels=[[CellClass.EMPTY, CellClass.EMPTY]],
        )
        cropped = crop_annotated_file(annotated)
        assert cropped.table.shape == (1, 1)


class TestAnnotations:
    def test_dict_round_trip(self, verbose_file):
        payload = annotated_file_to_dict(verbose_file)
        restored = annotated_file_from_dict(payload)
        assert restored.table == verbose_file.table
        assert restored.line_labels == verbose_file.line_labels
        assert restored.cell_labels == verbose_file.cell_labels

    def test_file_round_trip(self, tmp_path, verbose_file):
        path = tmp_path / "f.json"
        save_annotated_file(verbose_file, path)
        restored = load_annotated_file(path)
        assert restored.name == verbose_file.name
        assert restored.table == verbose_file.table

    def test_malformed_payload_raises(self):
        with pytest.raises(AnnotationError):
            annotated_file_from_dict({"name": "x"})

    def test_bad_class_value_raises(self, verbose_file):
        payload = annotated_file_to_dict(verbose_file)
        payload["line_labels"][0] = "not-a-class"
        with pytest.raises(AnnotationError):
            annotated_file_from_dict(payload)

    def test_corpus_round_trip(self, tmp_path, verbose_file):
        corpus = Corpus(name="c", files=[verbose_file])
        save_corpus(corpus, tmp_path / "corpus")
        restored = load_corpus(tmp_path / "corpus", name="c")
        assert len(restored) == 1
        assert restored.files[0].table == verbose_file.table

    def test_load_empty_directory_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(AnnotationError):
            load_corpus(tmp_path / "empty")
