"""Tests for the dialect-aware CSV tokenizer (:mod:`repro.parsing`)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialect.dialect import Dialect
from repro.io.reader import read_table_text
from repro.io.writer import write_csv_text
from repro.parsing import parse_csv_outcome, parse_csv_text, split_record

STANDARD = Dialect.standard()


class TestBasicParsing:
    def test_simple_records(self):
        assert parse_csv_text("a,b\nc,d\n", STANDARD) == [
            ["a", "b"], ["c", "d"],
        ]

    def test_no_trailing_newline(self):
        assert parse_csv_text("a,b", STANDARD) == [["a", "b"]]

    def test_trailing_newline_no_phantom_record(self):
        assert parse_csv_text("a\n", STANDARD) == [["a"]]

    def test_crlf_and_bare_cr(self):
        assert parse_csv_text("a\r\nb\rc\n", STANDARD) == [
            ["a"], ["b"], ["c"],
        ]

    def test_empty_fields(self):
        assert parse_csv_text(",,\n", STANDARD) == [["", "", ""]]

    def test_empty_text(self):
        assert parse_csv_text("", STANDARD) == []

    def test_semicolon_dialect(self):
        dialect = Dialect(delimiter=";")
        assert parse_csv_text("a;b,c\n", dialect) == [["a", "b,c"]]

    def test_tab_dialect(self):
        dialect = Dialect(delimiter="\t")
        assert parse_csv_text("a\tb\n", dialect) == [["a", "b"]]


class TestQuoting:
    def test_quoted_delimiter(self):
        assert parse_csv_text('"a,b",c\n', STANDARD) == [["a,b", "c"]]

    def test_quoted_newline(self):
        assert parse_csv_text('"a\nb",c\n', STANDARD) == [["a\nb", "c"]]

    def test_doubled_quote(self):
        assert parse_csv_text('"say ""hi""",x\n', STANDARD) == [
            ['say "hi"', "x"],
        ]

    def test_quote_mid_field_is_literal(self):
        # A quote that does not open the field is kept verbatim.
        assert parse_csv_text('ab"c,d\n', STANDARD) == [['ab"c', "d"]]

    def test_unterminated_quote_is_lenient(self):
        # Wrong-dialect parses must not raise: the rest of the text
        # becomes part of the open field.
        rows = parse_csv_text('"abc,def\n', STANDARD)
        assert rows == [["abc,def\n"]]

    def test_no_quote_dialect(self):
        dialect = Dialect(delimiter=",", quotechar="")
        assert parse_csv_text('"a",b\n', dialect) == [['"a"', "b"]]


class TestEscaping:
    def test_escaped_delimiter(self):
        dialect = Dialect(delimiter=",", quotechar='"', escapechar="\\")
        assert parse_csv_text("a\\,b,c\n", dialect) == [["a,b", "c"]]

    def test_escaped_quote_inside_quotes(self):
        dialect = Dialect(delimiter=",", quotechar='"', escapechar="\\")
        assert parse_csv_text('"a\\"b"\n', dialect) == [['a"b']]


class TestSplitRecord:
    def test_single_line(self):
        assert split_record("a,b,c", STANDARD) == ["a", "b", "c"]

    def test_empty_line(self):
        assert split_record("", STANDARD) == [""]


class TestLenientEdgeCases:
    """The lenient behaviors dialect scoring leans on, pinned.

    These were load-bearing but untested: dialect detection scores
    *wrong* dialects against arbitrary text, so the tokenizer must
    treat every malformed shape as data, never raise — and the
    recovery facts must surface through :func:`parse_csv_outcome`.
    """

    def test_unterminated_quote_at_eof(self):
        outcome = parse_csv_outcome('a,"bc', STANDARD)
        assert outcome.records == [["a", "bc"]]
        assert outcome.unterminated_quote

    def test_unterminated_quote_swallows_rest_of_text(self):
        outcome = parse_csv_outcome('"x,y\nz\n', STANDARD)
        assert outcome.records == [["x,y\nz\n"]]
        assert outcome.unterminated_quote

    def test_terminated_quote_sets_no_flag(self):
        outcome = parse_csv_outcome('"a",b\n', STANDARD)
        assert not outcome.unterminated_quote

    def test_escape_char_as_last_character(self):
        dialect = Dialect(delimiter=",", quotechar='"', escapechar="\\")
        outcome = parse_csv_outcome("a,b\\", dialect)
        # Nothing to escape: the escape character stays literal.
        assert outcome.records == [["a", "b\\"]]
        assert outcome.dangling_escape

    def test_escaped_escape_at_end_is_not_dangling(self):
        dialect = Dialect(delimiter=",", quotechar='"', escapechar="\\")
        outcome = parse_csv_outcome("a,b\\\\", dialect)
        assert outcome.records == [["a", "b\\"]]
        assert not outcome.dangling_escape

    def test_lone_cr_record_separators(self):
        outcome = parse_csv_outcome("a,b\rc,d\re,f", STANDARD)
        assert outcome.records == [
            ["a", "b"], ["c", "d"], ["e", "f"],
        ]
        assert not outcome.unterminated_quote

    def test_trailing_lone_cr_no_phantom_record(self):
        assert parse_csv_text("a\r", STANDARD) == [["a"]]

    def test_empty_file_sentinel_through_reader(self):
        # parse_csv_text("") is [], and the reader turns that into
        # the 1x1 sentinel table instead of a zero-row table.
        assert parse_csv_text("", STANDARD) == []
        table = read_table_text("", dialect=STANDARD)
        assert table.shape == (1, 1)
        assert table.cell(0, 0) == ""

    def test_outcome_records_match_parse_csv_text(self):
        text = 'a,"b\nc",d\r\ne,f\n'
        assert (
            parse_csv_outcome(text, STANDARD).records
            == parse_csv_text(text, STANDARD)
        )


# ----------------------------------------------------------------------
# Property: writer -> parser round trip
# ----------------------------------------------------------------------
_FIELD = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12
)
_ROWS = st.lists(
    st.lists(_FIELD, min_size=1, max_size=5), min_size=1, max_size=6
)


@given(rows=_ROWS)
@settings(max_examples=150, deadline=None)
def test_write_parse_round_trip(rows):
    """Any table serialized with quoting parses back identically."""
    text = write_csv_text(rows, STANDARD)
    parsed = parse_csv_text(text, STANDARD)
    assert parsed == rows


@given(rows=_ROWS)
@settings(max_examples=100, deadline=None)
def test_round_trip_semicolon_dialect(rows):
    dialect = Dialect(delimiter=";", quotechar="'")
    text = write_csv_text(rows, dialect)
    assert parse_csv_text(text, dialect) == rows


@given(rows=_ROWS)
@settings(max_examples=100, deadline=None)
def test_round_trip_quote_and_escape_dialect(rows):
    """A field holding the escape char is quoted and escaped, so it
    survives the round trip instead of escaping what follows it."""
    dialect = Dialect(delimiter=",", quotechar='"', escapechar="\\")
    text = write_csv_text(rows, dialect)
    assert parse_csv_text(text, dialect) == rows


@given(rows=_ROWS)
@settings(max_examples=100, deadline=None)
def test_round_trip_escape_only_dialect(rows):
    dialect = Dialect(delimiter="\t", quotechar="", escapechar="\\")
    text = write_csv_text(rows, dialect)
    assert parse_csv_text(text, dialect) == rows


def test_trailing_escape_char_does_not_merge_records():
    dialect = Dialect(delimiter=",", quotechar='"', escapechar="\\")
    rows = [["ab\\"], ["c"]]
    assert parse_csv_text(write_csv_text(rows, dialect), dialect) == rows
