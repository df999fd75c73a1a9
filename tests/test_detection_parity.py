"""Parity of the pruned dialect detection with the full ranking.

:meth:`DialectDetector.detect` skips the type score of every candidate
whose pattern score cannot beat the best consistency score so far, and
:func:`is_known_type` asks one alternation instead of walking the
ordered type cascade.  Both are pure performance changes:
``detect`` must return ``rank()[0]`` (which still scores every
candidate) and ``is_known_type`` must agree with
:func:`cell_type_name`.  The plain-text acquisition, whose surviving
files are decided by detection, is pinned at its values from before
the pruning.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.corpora import CORPUS_BUILDERS, make_corpus, make_mendeley
from repro.datagen.plaintext import EMISSION_DIALECTS, acquire_plain_text_corpus
from repro.dialect.detector import (
    CANDIDATE_DELIMITERS,
    DialectDetector,
    clear_dialect_memo,
)
from repro.dialect.type_score import cell_type_name, is_known_type
from repro.errors import DialectError
from repro.io.writer import write_csv_text
from repro.parsing import parse_csv_text

_TEXTS = st.lists(
    st.one_of(
        st.sampled_from(
            (*CANDIDATE_DELIMITERS, '"', "'", "\\", "\r", "\n", "\r\n")
        ),
        st.sampled_from(("a", "7", "2.5", "x y", "2019-01-02", "n/a")),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=80,
).map("".join)


def _assert_detect_is_top_ranked(text: str) -> None:
    detector = DialectDetector()
    ranking = detector.rank(text)
    clear_dialect_memo()
    if not ranking:
        with pytest.raises(DialectError):
            detector.detect(text)
        return
    assert detector.detect(text) == ranking[0].dialect, text


@pytest.fixture(scope="module")
def personality_texts() -> list[str]:
    """Every personality's files written under every emission dialect."""
    return [
        write_csv_text(annotated.table.rows(), dialect)
        for name in CORPUS_BUILDERS
        for annotated in make_corpus(name, scale=0.02)
        for dialect in EMISSION_DIALECTS
    ]


@given(text=_TEXTS)
@settings(max_examples=200, deadline=None)
def test_detect_matches_rank_on_generated_text(text):
    _assert_detect_is_top_ranked(text)


def test_detect_matches_rank_on_personality_files(personality_texts):
    assert len(personality_texts) == 29 * len(EMISSION_DIALECTS)
    for text in personality_texts:
        _assert_detect_is_top_ranked(text)


def test_one_regex_type_test_matches_cascade(personality_texts):
    detector = DialectDetector()
    values: set[str] = set()
    for text in personality_texts:
        for scored in detector.rank(text):
            for row in parse_csv_text(detector._sample(text), scored.dialect):
                values.update(row)
    assert len(values) > 1000
    for value in values:
        assert is_known_type(value) == (cell_type_name(value) is not None), value


#: Fragments of every known type and of near misses, in mixed case.
_TYPE_TOKENS = (
    " ", "\t", "\u00a0", "+", "-", ".", ",", "/", ":", "%", "$", "€", "@",
    "?", "0", "7", "12", "123", "1,234", "2019", "e5", "E", "x", "Word",
    "N/A", "NaN", "null", "NONE", "http://", "\u0660",
)


@given(value=st.lists(st.sampled_from(_TYPE_TOKENS), max_size=4).map("".join))
@settings(max_examples=300, deadline=None)
def test_one_regex_type_test_matches_cascade_on_type_like_text(value):
    assert is_known_type(value) == (cell_type_name(value) is not None)


@pytest.mark.parametrize(
    "value", ["N/A", "NaN", "NULL", "None", "--", "?", "1,234.5e-3", "$ 12"]
)
def test_one_regex_type_test_keeps_case_insensitive_missing(value):
    assert is_known_type(value)
    assert cell_type_name(value) is not None


def test_mendeley_acquisition_is_pinned():
    """The acquisition ``benchmarks/test_acquisition_mendeley.py``
    reports (seed 0), at the values it had before detection was
    pruned."""
    corpus = make_mendeley(seed=17, scale=0.25)
    clear_dialect_memo()
    kept, report = acquire_plain_text_corpus(corpus, seed=0)
    assert [f.name for f in kept] == [
        f"mendeley_{i:04d}" for i in (*range(14), 15)
    ]
    assert (report.total, report.parseable) == (16, 15)
    assert report.per_dialect == {
        "' '": (2, 2),
        "','": (3, 3),
        "':'": (2, 3),
        "';'": (3, 3),
        "'|'": (5, 5),
    }
