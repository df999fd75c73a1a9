"""The aggregation keyword dictionary (Section 4, ``AggregationWord``).

The paper uses a fixed, case-insensitive dictionary of "terms
associated with aggregation in tables": *total, all, sum, average,
avg, mean, median*.  The same dictionary anchors candidate cells in
the derived cell detection Algorithm 2.
"""

from __future__ import annotations

import re

#: The paper's aggregation term dictionary, lower-cased.
AGGREGATION_KEYWORDS: frozenset[str] = frozenset(
    {"total", "all", "sum", "average", "avg", "mean", "median"}
)

#: A keyword that is a whole word: a maximal run of ASCII letters and
#: digits (the words of :func:`repro.util.text.tokenize_words`).
#: ``re.ASCII`` keeps case folding to ASCII, so ``"ſum"`` (long s) is
#: not ``"sum"``.  The profile runs it over all distinct values at once.
AGGREGATION_PATTERN: re.Pattern[str] = re.compile(
    "(?<![A-Za-z0-9])(?:"
    + "|".join(sorted(AGGREGATION_KEYWORDS))
    + ")(?![A-Za-z0-9])",
    re.ASCII | re.IGNORECASE,
)


def contains_aggregation_keyword(text: str) -> bool:
    """Whether any word of ``text`` is an aggregation keyword.

    Matching is word-based and case-insensitive: ``"Grand Total:"``
    matches, ``"totally"`` does not.
    """
    return AGGREGATION_PATTERN.search(text) is not None


def line_contains_aggregation_keyword(cells: list[str]) -> bool:
    """Whether any cell of a line contains an aggregation keyword."""
    return any(contains_aggregation_keyword(cell) for cell in cells)
