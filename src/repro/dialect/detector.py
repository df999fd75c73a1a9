"""Data-consistency dialect detection.

The detector enumerates candidate dialects (delimiters actually present
in the text crossed with quote and escape options), parses the text
under each, and scores every parse with

    Q(dialect) = pattern_score * type_score

as in van den Burg et al.  The highest-scoring dialect is returned;
ties break deterministically in favour of more conventional dialects
(comma before semicolon before tab, quoting before no quoting) so that
detection is stable across runs.

The type score T is a fraction of cells, so Q <= P.  ``detect`` uses
that bound: it scores candidates in preference order and skips the
type score of any candidate whose pattern score cannot beat the best Q
so far, which returns the same winner for a fraction of the regex
work.  ``rank`` is the full ranking, every candidate scored.  Within
one detection or ranking the candidates share one dict of per-value
type verdicts, since their parses mostly hold the same cells; it is
dropped when the call returns.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.dialect.dialect import Dialect
from repro.dialect.patterns import pattern_score
from repro.dialect.type_score import shared_type_score
from repro.errors import DialectError
from repro.parsing import ParseOutcome, parse_csv_outcome, parse_csv_text

#: Delimiters considered, in tie-break preference order.
CANDIDATE_DELIMITERS: tuple[str, ...] = (",", ";", "\t", "|", ":", " ", "^", "~")

#: Quote characters considered, in tie-break preference order.
CANDIDATE_QUOTES: tuple[str, ...] = ('"', "'", "")

#: Escape characters considered.
CANDIDATE_ESCAPES: tuple[str, ...] = ("", "\\")

#: Bound on the whole-sample detection memo below — generous for a
#: corpus sweep (one entry per distinct file prefix) yet small enough
#: that the memo never holds more than a few hundred kilobytes.
_MEMO_MAX_ENTRIES = 1024

# Detection is a pure function of the scored sample, so the winning
# dialect is memoized on a content hash of that sample (the bounded
# LRU mirrors ``infer_data_type``'s): a sweep that misses the feature
# or sweep caches still skips the candidate-enumeration cascade when
# it has seen identical leading bytes before.  Only the hash and the
# tiny frozen ``Dialect`` are retained, never the text.  This layer
# stays below ``obs``, so the memo keeps plain counters instead of
# metrics; callers that want them can surface ``dialect_memo_stats``.
_MEMO_LOCK = threading.Lock()
_MEMO: OrderedDict[str, Dialect] = OrderedDict()
_MEMO_HITS = 0
_MEMO_MISSES = 0


def _sample_key(sample: str) -> str:
    """Content hash of a detection sample."""
    data = sample.encode("utf-8", "backslashreplace")
    return hashlib.sha256(data).hexdigest()


def _memo_get(key: str) -> Dialect | None:
    global _MEMO_HITS, _MEMO_MISSES
    with _MEMO_LOCK:
        dialect = _MEMO.get(key)
        if dialect is None:
            _MEMO_MISSES += 1
            return None
        _MEMO.move_to_end(key)
        _MEMO_HITS += 1
        return dialect


def _memo_put(key: str, dialect: Dialect) -> None:
    with _MEMO_LOCK:
        _MEMO[key] = dialect
        _MEMO.move_to_end(key)
        while len(_MEMO) > _MEMO_MAX_ENTRIES:
            _MEMO.popitem(last=False)


def dialect_memo_stats() -> dict[str, int]:
    """Hit/miss/size counters of the detection memo (for tests and
    observability shims above this layer)."""
    with _MEMO_LOCK:
        return {
            "hits": _MEMO_HITS,
            "misses": _MEMO_MISSES,
            "entries": len(_MEMO),
        }


def clear_dialect_memo() -> None:
    """Drop all memoized detections and reset the counters."""
    global _MEMO_HITS, _MEMO_MISSES
    with _MEMO_LOCK:
        _MEMO.clear()
        _MEMO_HITS = 0
        _MEMO_MISSES = 0


@dataclass(frozen=True)
class ScoredDialect:
    """A candidate dialect together with its consistency score."""

    dialect: Dialect
    score: float
    pattern: float
    type: float


class DialectDetector:
    """Detects the dialect of a messy CSV text.

    Parameters
    ----------
    max_lines:
        Number of leading lines used for scoring.  Dialect signal
        saturates quickly, so bounding the sample keeps detection fast
        on large files.
    """

    def __init__(self, max_lines: int = 100):
        if max_lines <= 0:
            raise DialectError("max_lines must be positive")
        self.max_lines = max_lines

    # ------------------------------------------------------------------
    def detect(self, text: str) -> Dialect:
        """The best-scoring dialect for ``text``.

        Memoized on a content hash of the scored sample — two texts
        with identical leading lines share one detection.  Raises
        :class:`DialectError` on empty input.
        """
        return self.detect_parsed(text)[0]

    def detect_parsed(self, text: str) -> tuple[Dialect, ParseOutcome | None]:
        """:meth:`detect`'s dialect, with the parse of ``text`` under
        it when detection has just made that parse: on a memo miss for
        a text no longer than the sample (``None`` otherwise)."""
        sample = self._sample(text)
        if not sample.strip():
            raise DialectError("cannot detect the dialect of empty text")
        key = _sample_key(sample)
        cached = _memo_get(key)
        if cached is not None:
            return cached, None
        dialect, parsed = self._best(sample)
        _memo_put(key, dialect)
        return dialect, parsed if len(sample) == len(text) else None

    def rank(self, text: str) -> list[ScoredDialect]:
        """All candidate dialects scored and sorted best-first."""
        sample = self._sample(text)
        if not sample.strip():
            return []
        return self._rank_sample(sample)

    def _best(self, sample: str) -> tuple[Dialect, ParseOutcome | None]:
        """The winner of :meth:`rank`, skipping the type score of every
        candidate that cannot win, and its parse of ``sample``.

        Q = P * T with T <= 1, so a candidate whose pattern score P is
        no higher than the best Q so far cannot beat it.  Only a
        strictly higher Q takes the lead, so ties go to the earliest
        candidate, as in the stable sort of :meth:`_rank_sample`.
        Every Q is positive, so the first candidate always scores.
        """
        candidates = self._candidates(sample)
        verdicts: dict[str, bool] = {}
        best, best_score, best_parse = candidates[0], 0.0, None
        for dialect in candidates:
            parsed = parse_csv_outcome(sample, dialect)
            p = pattern_score(parsed.records)
            if p <= best_score:
                continue
            score = p * shared_type_score(parsed.records, verdicts)
            if score > best_score:
                best, best_score, best_parse = dialect, score, parsed
        return best, best_parse

    def _rank_sample(self, sample: str) -> list[ScoredDialect]:
        scored: list[ScoredDialect] = []
        verdicts: dict[str, bool] = {}
        for dialect in self._candidates(sample):
            rows = parse_csv_text(sample, dialect)
            p = pattern_score(rows)
            t = shared_type_score(rows, verdicts)
            scored.append(ScoredDialect(dialect, p * t, p, t))
        # Stable sort: score descending, then candidate preference order
        # (enumeration order) ascending via the stable sort guarantee.
        scored.sort(key=lambda s: -s.score)
        return scored

    # ------------------------------------------------------------------
    def _sample(self, text: str) -> str:
        lines = text.splitlines(keepends=True)
        return "".join(lines[: self.max_lines])

    def _candidates(self, sample: str) -> list[Dialect]:
        present = set(sample)
        delimiters = [d for d in CANDIDATE_DELIMITERS if d in present]
        if not delimiters:
            # A file with no candidate delimiter is a one-column file;
            # default to the standard dialect.
            delimiters = [","]
        quotes = [q for q in CANDIDATE_QUOTES if not q or q in present]
        if "" not in quotes:
            quotes.append("")
        escapes = [e for e in CANDIDATE_ESCAPES if not e or e in present]
        if "" not in escapes:
            escapes.append("")

        candidates: list[Dialect] = []
        for delimiter in delimiters:
            for quote in quotes:
                if quote == delimiter:
                    continue
                for escape in escapes:
                    if escape and escape in (delimiter, quote):
                        continue
                    candidates.append(
                        Dialect(
                            delimiter=delimiter,
                            quotechar=quote,
                            escapechar=escape,
                        )
                    )
        return candidates


def detect_dialect(text: str, max_lines: int = 100) -> Dialect:
    """Convenience wrapper: detect the dialect of ``text``."""
    return DialectDetector(max_lines=max_lines).detect(text)
