"""Tests for the hardened ingestion stage (:mod:`repro.io.ingest`)."""

from __future__ import annotations

import codecs
import json

import pytest

from repro.core.line_features import LineFeatureExtractor
from repro.dialect.dialect import Dialect
from repro.errors import (
    EncodingError,
    IngestError,
    MalformedInputError,
    ReproError,
    SizeLimitError,
)
from repro.io.ingest import (
    IngestPolicy,
    IngestReport,
    decode_bytes,
    decode_path,
    ingest_bytes,
    ingest_path,
    ingest_text,
    with_encoding,
)
from repro.io.reader import read_table, read_table_text

PLAIN = "Region,Q1,Q2\nNorth,5,7\nSouth,6,8\n"


class TestDecodeBytes:
    def test_clean_utf8(self):
        text, report = decode_bytes(PLAIN.encode("utf-8"))
        assert text == PLAIN
        assert report.encoding == "utf-8"
        assert report.bom is None
        assert not report.recovered

    @pytest.mark.parametrize(
        "bom, codec",
        [
            (codecs.BOM_UTF8, "utf-8"),
            (codecs.BOM_UTF16_LE, "utf-16-le"),
            (codecs.BOM_UTF16_BE, "utf-16-be"),
            (codecs.BOM_UTF32_LE, "utf-32-le"),
            (codecs.BOM_UTF32_BE, "utf-32-be"),
        ],
    )
    def test_bom_variants(self, bom, codec):
        data = bom + PLAIN.encode(codec)
        text, report = decode_bytes(data)
        assert text == PLAIN
        assert report.bom is not None
        assert not text.startswith("﻿")

    def test_utf32_le_bom_beats_utf16_prefix(self):
        # FF FE 00 00 is both the UTF-32 LE BOM and the UTF-16 LE BOM
        # followed by a NUL; the longest signature must win.
        data = codecs.BOM_UTF32_LE + PLAIN.encode("utf-32-le")
        text, report = decode_bytes(data)
        assert report.bom == "utf-32-le"
        assert text == PLAIN

    def test_latin1_fallback(self):
        data = "a,\xe9\n".encode("latin-1")
        text, report = decode_bytes(data)
        assert text == "a,é\n"
        assert report.encoding == "latin-1"

    def test_preferred_encoding_tried_first(self):
        # These bytes are valid UTF-8, but the caller knows better.
        data = "a,ä\n".encode("cp1252")
        text, report = decode_bytes(
            data, IngestPolicy(encoding="cp1252")
        )
        assert text == "a,ä\n"
        assert report.encoding == "cp1252"

    def test_bom_beats_preferred_encoding(self):
        data = codecs.BOM_UTF16_LE + PLAIN.encode("utf-16-le")
        text, report = decode_bytes(
            data, IngestPolicy(encoding="latin-1")
        )
        assert text == PLAIN
        assert report.bom == "utf-16-le"

    def test_unknown_preferred_encoding_is_rejected(self):
        # Regression: a typo'd preferred encoding used to be silently
        # swallowed by the fallback loop — ``--encoding uft-8`` decoded
        # as UTF-8 and reported success.  The policy now validates
        # every codec name at construction time.
        with pytest.raises(EncodingError, match="uft-8"):
            IngestPolicy(encoding="uft-8")

    def test_unknown_fallback_encoding_is_rejected(self):
        with pytest.raises(EncodingError, match="no-such-codec"):
            IngestPolicy(fallback_encodings=("no-such-codec",))

    def test_encoding_aliases_still_resolve(self):
        # codecs.lookup accepts aliases, so spellings like ``UTF8`` or
        # ``latin1`` keep working exactly as before the validation.
        text, report = decode_bytes(
            PLAIN.encode("utf-8"), IngestPolicy(encoding="UTF8")
        )
        assert text == PLAIN

    def test_strict_rejects_lying_bom(self):
        # UTF-16 BOM, then an odd number of bytes: not UTF-16.
        data = codecs.BOM_UTF16_LE + b"abc"
        with pytest.raises(EncodingError):
            decode_bytes(data, IngestPolicy.strict_policy())

    def test_lenient_replaces_lying_bom(self):
        data = codecs.BOM_UTF16_LE + b"abc"
        text, report = decode_bytes(data)
        assert report.replacement_count >= 1
        assert report.recovered

    def test_strict_clean_input_identical_to_lenient(self):
        data = PLAIN.encode("utf-8")
        lenient_text, lenient_report = decode_bytes(data)
        strict_text, strict_report = decode_bytes(
            data, IngestPolicy.strict_policy()
        )
        assert lenient_text == strict_text
        assert not lenient_report.recovered
        assert not strict_report.recovered


class TestNulAndSizePolicy:
    def test_lenient_strips_nuls(self):
        result = ingest_bytes(b"a,\x00b\n1,2\n")
        assert result.table.row(0) == ["a", "b"]
        assert result.report.nul_count == 1
        assert result.report.recovered

    def test_strict_rejects_nuls(self):
        with pytest.raises(MalformedInputError):
            ingest_bytes(
                b"a,\x00b\n", policy=IngestPolicy.strict_policy()
            )

    def test_strict_rejects_oversize(self):
        policy = IngestPolicy.strict_policy(max_bytes=16)
        with pytest.raises(SizeLimitError):
            ingest_bytes(b"a,b\n" * 100, policy=policy)

    def test_lenient_truncates_at_record_boundary(self):
        policy = IngestPolicy(max_bytes=10)
        result = ingest_bytes(b"a,b\nc,d\ne,f\ng,h\n", policy=policy)
        assert result.report.truncated_bytes > 0
        # Every surviving row is intact (cut at a newline).
        assert all(row == [row[0], row[1]] for row in result.table.rows())
        assert result.table.n_rows == 2

    def test_text_entry_point_size_guard(self):
        policy = IngestPolicy(max_bytes=10)
        result = ingest_text("a,b\nc,d\ne,f\n", policy=policy)
        assert result.report.truncated_bytes > 0

    def test_lenient_truncates_utf16_on_code_unit_boundary(self):
        # Regression: the byte-level size guard used to cut BOM'd
        # UTF-16 payloads at any 0x0A *byte* — the low byte of dozens
        # of ordinary characters ('Ȋ', '攊', …), not just of
        # a newline — leaving a mis-aligned tail that decoded to
        # garbage.  Truncation now happens on decoded text, so every
        # surviving row is intact.
        rows = "Region,Q1\nNorth,5\n" * 20
        data = codecs.BOM_UTF16_LE + rows.encode("utf-16-le")
        policy = IngestPolicy(max_bytes=100)
        result = ingest_bytes(data, policy=policy)
        assert result.report.truncated_bytes > 0
        assert result.report.bom == "utf-16-le"
        assert all(
            row in (["Region", "Q1"], ["North", "5"])
            for row in result.table.rows()
        )

    def test_utf16_truncation_byte_count_is_honest(self):
        rows = "Region,Q1\nNorth,5\n" * 20
        data = codecs.BOM_UTF16_LE + rows.encode("utf-16-le")
        policy = IngestPolicy(max_bytes=100)
        text, report = decode_bytes(data, policy)
        kept = len(text.encode("utf-16-le"))
        # kept payload + reported cut = everything after the BOM.
        assert kept + report.truncated_bytes == len(data) - 2
        assert kept <= policy.max_bytes

    def test_lenient_truncates_utf32_on_code_unit_boundary(self):
        rows = "Region,Q1\nNorth,5\n" * 20
        data = codecs.BOM_UTF32_LE + rows.encode("utf-32-le")
        policy = IngestPolicy(max_bytes=120)
        result = ingest_bytes(data, policy=policy)
        assert result.report.truncated_bytes > 0
        assert all(
            row in (["Region", "Q1"], ["North", "5"])
            for row in result.table.rows()
        )

    def test_strict_oversize_wide_bom_still_rejected(self):
        data = codecs.BOM_UTF16_LE + ("a,b\n" * 100).encode("utf-16-le")
        policy = IngestPolicy.strict_policy(max_bytes=64)
        with pytest.raises(SizeLimitError):
            ingest_bytes(data, policy=policy)


class TestIngestText:
    def test_bom_in_str_is_stripped(self):
        result = ingest_text("﻿" + PLAIN)
        assert result.table.cell(0, 0) == "Region"
        assert result.report.bom == "utf-8-sig"

    def test_unterminated_quote_lenient_flag(self):
        result = ingest_text(
            'a,"open\nrest,of,file\n', dialect=Dialect.standard()
        )
        assert result.report.unterminated_quote
        assert result.report.recovered

    def test_unterminated_quote_strict_raises(self):
        with pytest.raises(MalformedInputError):
            ingest_text(
                'a,"open\nrest\n',
                dialect=Dialect.standard(),
                policy=IngestPolicy.strict_policy(),
            )

    def test_empty_input_dialect_fallback(self):
        result = ingest_bytes(b"")
        assert result.report.dialect_fallback
        assert result.report.recovered

    def test_ragged_padding_reported(self):
        result = ingest_text(
            "a,b,c\nd\n", dialect=Dialect.standard()
        )
        assert result.report.ragged_rows == 1
        assert result.report.ragged_pad_cells == 2
        # Padding is not recovery: both modes do it identically.
        assert not result.report.recovered

    def test_empty_input_yields_sentinel(self):
        result = ingest_bytes(b"")
        assert result.table.shape == (1, 1)
        assert result.table.cell(0, 0) == ""

    def test_explicit_dialect_skips_detection(self):
        result = ingest_text("a|b\n", dialect=Dialect(delimiter="|"))
        assert result.table.row(0) == ["a", "b"]

    def test_report_warnings_are_prose(self):
        result = ingest_bytes(
            codecs.BOM_UTF8 + "a,\x00b\n".encode("utf-8")
        )
        notes = result.report.warnings()
        assert any("byte-order mark" in n for n in notes)
        assert any("NUL" in n for n in notes)

    def test_clean_input_has_no_warnings(self):
        assert ingest_text(PLAIN).report.warnings() == []


class TestBomFeatureRegression:
    """The satellite bug: a UTF-8 BOM must not poison features."""

    def test_content_hash_equal_with_and_without_bom(self):
        with_bom = ingest_bytes(codecs.BOM_UTF8 + PLAIN.encode("utf-8"))
        without = ingest_bytes(PLAIN.encode("utf-8"))
        assert with_bom.table == without.table

    def test_line_features_byte_identical(self):
        extractor = LineFeatureExtractor()
        with_bom = ingest_bytes(codecs.BOM_UTF8 + PLAIN.encode("utf-8"))
        without = ingest_bytes(PLAIN.encode("utf-8"))
        a = extractor.extract(with_bom.table)
        b = extractor.extract(without.table)
        assert a.tobytes() == b.tobytes()


class TestReaderFacades:
    def test_read_table_text_strips_bom(self):
        table = read_table_text("﻿a,b\n1,2\n")
        assert table.cell(0, 0) == "a"

    def test_read_table_non_utf8_no_longer_crashes(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes("name,city\nRené,Köln\n".encode("latin-1"))
        table = read_table(path)
        assert table.cell(1, 0) == "René"

    def test_read_table_respects_encoding_preference(self, tmp_path):
        path = tmp_path / "cp.csv"
        path.write_bytes("a,ä\n".encode("cp1252"))
        table = read_table(path, encoding="cp1252")
        assert table.cell(0, 1) == "ä"

    def test_read_table_strict_policy_raises_typed_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(codecs.BOM_UTF16_LE + b"abc")
        with pytest.raises(IngestError):
            read_table(path, policy=IngestPolicy.strict_policy())

    def test_ingest_error_is_repro_error(self):
        assert issubclass(IngestError, ReproError)
        assert issubclass(EncodingError, IngestError)
        assert issubclass(SizeLimitError, IngestError)
        assert issubclass(MalformedInputError, IngestError)

    def test_with_encoding_helper(self):
        policy = with_encoding(None, "cp1252")
        assert policy.encoding == "cp1252"
        assert with_encoding(policy, None) is policy


class TestDecodePath:
    def test_bom_tolerant_json_loading(self, tmp_path):
        payload = {"key": "välue"}
        path = tmp_path / "m.json"
        path.write_bytes(
            codecs.BOM_UTF8 + json.dumps(payload).encode("utf-8")
        )
        text, report = decode_path(path, IngestPolicy.strict_policy())
        assert json.loads(text) == payload
        assert report.bom == "utf-8-sig"

    def test_ingest_path_reads_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(PLAIN.encode("utf-8"))
        result = ingest_path(path)
        assert result.table.n_rows == 3
        assert result.dialect.delimiter == ","


class TestAnalyzeIntegration:
    def test_analyze_carries_ingest_report(self, tiny_pipeline):
        result = tiny_pipeline.analyze("﻿Region,Q1\nNorth,5\n")
        assert result.ingest is not None
        assert result.ingest.bom == "utf-8-sig"
        assert result.table.cell(0, 0) == "Region"

    def test_analyze_bom_invariant_predictions(self, tiny_pipeline):
        clean = tiny_pipeline.analyze(PLAIN)
        bommed = tiny_pipeline.analyze("﻿" + PLAIN)
        assert clean.line_classes == bommed.line_classes
        assert clean.cell_classes == bommed.cell_classes


@pytest.fixture(scope="module")
def tiny_pipeline(tiny_corpus):
    from repro.core.strudel import StrudelPipeline

    pipeline = StrudelPipeline(n_estimators=8, random_state=0)
    pipeline.fit(tiny_corpus.files[:8])
    return pipeline


# ----------------------------------------------------------------------
# One parse when the detection sample is the whole text
# ----------------------------------------------------------------------
#: Texts whose detection sample (100 lines as ``splitlines`` counts
#: them) is the whole text, by what they exercise.
_WHOLE_SAMPLE_TEXTS = {
    "plain": PLAIN,
    "unterminated-quote": (
        'name,value\n"North, East",5\n"South, West",6\nx,"open\n'
    ),
    "dangling-escape": 'h,v\n"x\\"y,z",1\n"p\\"q,r",2\n"s\\"t,u",3\nw,4\\',
    "cr-endings": "a,b\r1,2\r3,4\r",
    # Line breaks to ``splitlines``, field text to the parser.
    "splitlines-only-breaks": "a,b\x0bc,d\n1,2\x0c3,4\u20285,6\n",
    "bom": "\ufeffa;b\n1;2\n",
    "nuls": "a,b\x00\n1,2\n",
    "100-lines": "".join(f"r{i},{i}\n" for i in range(100)),
}

#: Texts whose sample stops short of the end.
_LONGER_TEXTS = {
    "101-lines": "".join(f"r{i},{i}\n" for i in range(101)),
    "101-lines-by-splitlines": "a,b\x0c" * 100 + "c,d\n",
}


def _ingest_outcome(text: str, policy: IngestPolicy):
    """What ``ingest_text`` gives on a memo miss: the rows, dialect,
    text and report, or the typed error it raised."""
    from repro.dialect.detector import clear_dialect_memo

    clear_dialect_memo()
    try:
        result = ingest_text(text, policy=policy)
    except ReproError as error:
        return type(error), str(error)
    return (
        list(result.table.rows()), result.dialect, result.text,
        result.report,
    )


def _count_parses(monkeypatch) -> list:
    import repro.io.ingest as ingest_mod

    calls = []
    parse = ingest_mod.parse_csv_outcome

    def counted(text, dialect):
        calls.append(text)
        return parse(text, dialect)

    monkeypatch.setattr(ingest_mod, "parse_csv_outcome", counted)
    return calls


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
@pytest.mark.parametrize(
    "name", sorted(_WHOLE_SAMPLE_TEXTS) + sorted(_LONGER_TEXTS)
)
def test_ingest_reuses_the_detection_parse(name, strict, monkeypatch):
    """The same table and report as a forced full parse; the text is
    parsed again only when the sample stops short of it."""
    from repro.dialect.detector import DialectDetector

    text = {**_WHOLE_SAMPLE_TEXTS, **_LONGER_TEXTS}[name]
    policy = IngestPolicy(strict=strict)
    parses = _count_parses(monkeypatch)
    got = _ingest_outcome(text, policy)
    reparsed = len(parses)
    detect_parsed = DialectDetector.detect_parsed
    monkeypatch.setattr(
        DialectDetector,
        "detect_parsed",
        lambda self, text: (detect_parsed(self, text)[0], None),
    )
    assert got == _ingest_outcome(text, policy)
    if isinstance(got[0], type):
        assert strict and name in ("unterminated-quote", "nuls"), got
        return
    assert reparsed == (name in _LONGER_TEXTS)
    report = got[3]
    if name == "unterminated-quote":
        assert report.unterminated_quote
    if name == "dangling-escape":
        assert report.dangling_escape
    if name == "splitlines-only-breaks":
        assert len(got[0]) == 2


def test_a_detection_memo_hit_parses_the_text(monkeypatch):
    from repro.dialect.detector import clear_dialect_memo

    clear_dialect_memo()
    first = ingest_text(PLAIN)
    parses = _count_parses(monkeypatch)
    second = ingest_text(PLAIN)
    assert len(parses) == 1
    assert list(second.table.rows()) == list(first.table.rows())
    assert second.report == first.report
    assert second.dialect == first.dialect


def test_an_explicit_dialect_parses_the_text(monkeypatch):
    parses = _count_parses(monkeypatch)
    ingest_text(PLAIN, dialect=Dialect(","))
    assert len(parses) == 1
