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

Since the candidates of one detection share their per-value type
verdicts, ``legacy_best`` and ``legacy_rank_sample`` (with the
``legacy_type_score`` they called) keep the detector from before,
verbatim: the winner must be the same dialect and every ranked score
the same float.
"""

from __future__ import annotations

from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench import inputs
from repro.datagen.corpora import CORPUS_BUILDERS, make_corpus, make_mendeley
from repro.datagen.plaintext import EMISSION_DIALECTS, acquire_plain_text_corpus
from repro.dialect.detector import (
    CANDIDATE_DELIMITERS,
    DialectDetector,
    ScoredDialect,
    clear_dialect_memo,
)
from repro.dialect.dialect import Dialect
from repro.dialect.patterns import pattern_score
from repro.dialect.type_score import cell_type_name, is_known_type
from repro.errors import DialectError
from repro.fuzz import FuzzConfig, run_fuzz
from repro.io.ingest import ingest_bytes
from repro.io.writer import write_csv_text
from repro.parsing import parse_csv_text


# ----------------------------------------------------------------------
# Oracles: the detector before candidates shared their type verdicts
# ----------------------------------------------------------------------
def legacy_type_score(rows: list[list[str]], eps: float = 1e-10) -> float:
    """Fraction of cells with a recognizable type, floored at ``eps``."""
    total = sum(map(len, rows))
    if total == 0:
        return eps
    known = sum(map(is_known_type, chain.from_iterable(rows)))
    return max(known / total, eps)


def legacy_best(self, sample: str) -> Dialect:
    """The winner of :meth:`rank`, skipping the type score of every
    candidate that cannot win."""
    candidates = self._candidates(sample)
    best, best_score = candidates[0], 0.0
    for dialect in candidates:
        rows = parse_csv_text(sample, dialect)
        p = pattern_score(rows)
        if p <= best_score:
            continue
        score = p * legacy_type_score(rows)
        if score > best_score:
            best, best_score = dialect, score
    return best


def legacy_rank_sample(self, sample: str) -> list[ScoredDialect]:
    scored: list[ScoredDialect] = []
    for dialect in self._candidates(sample):
        rows = parse_csv_text(sample, dialect)
        p = pattern_score(rows)
        t = legacy_type_score(rows)
        scored.append(ScoredDialect(dialect, p * t, p, t))
    scored.sort(key=lambda s: -s.score)
    return scored


def _assert_matches_the_oracles(text: str) -> None:
    """The same winner and parse as the oracle, and the same ranking
    down to every float."""
    detector = DialectDetector()
    sample = detector._sample(text)
    if not sample.strip():
        assert detector.rank(text) == []
        return
    winner, parsed = detector._best(sample)
    assert winner == legacy_best(detector, sample), text
    assert parsed.records == parse_csv_text(sample, winner), text
    assert detector.rank(text) == legacy_rank_sample(detector, sample), text

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


# ----------------------------------------------------------------------
# Shared type verdicts: the same winner and scores as before
# ----------------------------------------------------------------------
@given(text=_TEXTS)
@settings(max_examples=200, deadline=None)
def test_shared_verdicts_match_the_oracles_on_generated_text(text):
    _assert_matches_the_oracles(text)


def test_shared_verdicts_match_the_oracles_on_personality_files(
    personality_texts,
):
    """Every corpus personality under every ``EMISSION_DIALECTS``
    dialect."""
    for text in personality_texts:
        _assert_matches_the_oracles(text)


@pytest.fixture
def checked_samples(monkeypatch) -> list[str]:
    """Every sample ``_best`` scores from here on is also scored by
    ``legacy_best``, which must pick the same dialect; the samples
    checked are collected."""
    checked: list[str] = []
    best = DialectDetector._best

    def checked_best(self, sample):
        winner = best(self, sample)
        assert winner[0] == legacy_best(self, sample), sample[:200]
        checked.append(sample)
        return winner

    monkeypatch.setattr(DialectDetector, "_best", checked_best)
    clear_dialect_memo()
    yield checked
    clear_dialect_memo()


def test_shared_verdicts_match_the_oracle_on_the_bench_lake_and_deck(
    checked_samples,
):
    sources = inputs.lake(0) + inputs.deck(0)
    for source in sources:
        ingest_bytes(source.data)
    assert len(checked_samples) == len(sources) == 136


def test_shared_verdicts_match_the_oracle_on_fuzz_inputs(checked_samples):
    """The inputs of ``repro fuzz`` at its defaults, strict and
    lenient."""
    report = run_fuzz(FuzzConfig())
    assert report.ok
    assert len(checked_samples) > 100
